import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwoclink.fec import STATUS_FAILURE, STATUS_OK, BchCodeSpec, generator_polynomial


def bits_to_poly(bits):
    """Oracle helper: bit i is the coefficient of x^(n-1-i)."""
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    return value


def reference_syndromes(code, word):
    """Oracle: S_j = XOR over the 1-bits i of alpha^(j * (n-1-i)), j = 1..2t."""
    order = code.field.order
    degrees = code.n - 1 - np.nonzero(word)[0]
    return np.array([
        np.bitwise_xor.reduce(code.field.exp_np[(j * degrees) % order], initial=0)
        for j in range(1, 2 * code.t + 1)
    ])


def named_code(request, codec, name):
    """The production codec's ``inner``/``outer`` code, or a code fixture."""
    if name in ("inner", "outer"):
        return getattr(codec, name)
    return request.getfixturevalue(name)


def poly_long_division(dividend, divisor):
    """Independent GF(2) long-division oracle returning the remainder."""
    d = divisor.bit_length()
    while dividend.bit_length() >= d:
        dividend ^= divisor << (dividend.bit_length() - d)
    return dividend


CODE_NAMES = st.sampled_from(["bch15_7", "bch15_5", "inner", "outer"])


def assert_encodes_like_oracle(code, msgs):
    """Each row's codeword is msg * x^r plus its remainder mod the generator."""
    batch = code.encode(msgs)
    assert batch.shape == msgs.shape[:-1] + (code.n,)
    for msg, cw in zip(np.atleast_2d(msgs), np.atleast_2d(batch)):
        shifted = bits_to_poly(msg) << code.parity_bits
        assert bits_to_poly(cw) == shifted ^ poly_long_division(shifted, code.generator)


class TestGeneratorPolynomials:
    def test_bch15_7_generator(self, gf16):
        # m1(x) * m3(x) = x^8 + x^7 + x^6 + x^4 + 1
        assert generator_polynomial(gf16, 2) == 0b111010001

    def test_inner_code_degree(self, codec):
        assert codec.inner.parity_bits == 110
        assert codec.inner.generator.bit_length() - 1 == 110

    def test_outer_code_degree(self, codec):
        assert codec.outer.parity_bits == 36

    def test_code_shape(self, codec):
        assert (codec.inner.n, codec.inner.k, codec.inner.t) == (2040, 1930, 10)
        assert codec.inner.parent_n == 2047
        assert codec.inner.shortening == 7
        assert (codec.outer.n, codec.outer.k, codec.outer.t) == (3860, 3824, 3)
        assert codec.outer.parent_n == 4095
        assert codec.outer.shortening == 235

    def test_mismatched_spec_rejected(self, gf16):
        with pytest.raises(ValueError):
            BchCodeSpec(15, 8, 2, gf16)  # n-k=7 but generator degree is 8


class TestEncode:
    def test_all_zero_message(self, bch15_7):
        cw = bch15_7.encode(np.zeros(7, dtype=np.uint8))
        assert not cw.any()

    def test_wrong_length_rejected(self, bch15_7):
        with pytest.raises(ValueError):
            bch15_7.encode(np.zeros(8, dtype=np.uint8))

    def test_systematic_prefix(self, bch15_7):
        rng = np.random.default_rng(0)
        msg = rng.integers(0, 2, 7).astype(np.uint8)
        cw = bch15_7.encode(msg)
        assert np.array_equal(cw[:7], msg)

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_against_long_division_oracle(self, request, codec, data):
        # one message or rows of them; parity must equal msg * x^r mod g
        code = named_code(request, codec, data.draw(CODE_NAMES))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        shape = data.draw(st.sampled_from([(code.k,), (1, code.k), (5, code.k)]))
        msgs = rng.integers(0, 2, shape).astype(np.uint8)
        assert_encodes_like_oracle(code, msgs)

    @pytest.mark.parametrize("name", ["bch15_7", "bch15_5", "inner", "outer"])
    @pytest.mark.parametrize("pattern", ["zeros", "ones", "first", "last"])
    def test_edge_messages_against_oracle(self, request, codec, name, pattern):
        # k = 1930 and 3824 are not multiples of 64: the last message bit
        # sits in a partial byte of a partial packed word
        code = named_code(request, codec, name)
        msg = np.zeros(code.k, dtype=np.uint8)
        if pattern == "ones":
            msg[:] = 1
        elif pattern == "first":
            msg[0] = 1
        elif pattern == "last":
            msg[-1] = 1
        assert_encodes_like_oracle(code, msg)
        assert_encodes_like_oracle(code, np.stack([msg, 1 - msg, msg]))

    def test_every_codeword_divisible_by_generator(self, bch15_7):
        rng = np.random.default_rng(1)
        for _ in range(50):
            msg = rng.integers(0, 2, 7).astype(np.uint8)
            cw = bch15_7.encode(msg)
            assert poly_long_division(bits_to_poly(cw), 0b111010001) == 0

    def test_linearity(self, bch15_7, codec):
        rng = np.random.default_rng(2)
        for code, k in ((bch15_7, 7), (codec.inner, 1930), (codec.outer, 3824)):
            a = rng.integers(0, 2, k).astype(np.uint8)
            b = rng.integers(0, 2, k).astype(np.uint8)
            assert np.array_equal(code.encode(a ^ b), code.encode(a) ^ code.encode(b))

    def test_codeword_syndromes_zero(self, codec):
        rng = np.random.default_rng(3)
        for code in (codec.inner, codec.outer):
            msg = rng.integers(0, 2, code.k).astype(np.uint8)
            assert not code.syndromes(code.encode(msg)).any()


class TestSyndromes:
    @pytest.mark.parametrize("name", ["bch15_7", "bch15_5", "inner", "outer"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_syndromes_match_reference_gather(self, request, codec, name, data):
        # words with 0 .. 2t+2 flips: clean, correctable and beyond t
        code = named_code(request, codec, name)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        flips = data.draw(st.integers(0, 2 * code.t + 2))
        word = code.encode(rng.integers(0, 2, code.k).astype(np.uint8))
        word[rng.choice(code.n, flips, replace=False)] ^= 1
        assert np.array_equal(code.syndromes(word), reference_syndromes(code, word))

        # rows of words, clean and dirty mixed: each row as its 1-D reference
        rows = code.encode(rng.integers(0, 2, (data.draw(st.integers(1, 6)), code.k))
                           .astype(np.uint8))
        for row in rows:
            row[rng.choice(code.n, data.draw(st.integers(0, 2 * code.t + 2)),
                           replace=False)] ^= 1
        batch = code.syndromes(rows)
        assert batch.shape == (len(rows), 2 * code.t)
        for row, synd in zip(rows, batch):
            assert np.array_equal(synd, reference_syndromes(code, row))


class TestBatchedEncode:
    @pytest.mark.parametrize("name", ["bch15_7", "inner", "outer"])
    @given(rows=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_rows_match_one_word_encode(self, request, codec, name, rows, seed):
        code = named_code(request, codec, name)
        msgs = np.random.default_rng(seed).integers(0, 2, (rows, code.k)).astype(np.uint8)
        batch = code.encode(msgs)
        assert batch.shape == (rows, code.n)
        for msg, cw in zip(msgs, batch):
            assert np.array_equal(cw, code.encode(msg))

    @pytest.mark.parametrize("shape", [(3, 8), (3, 6), (2, 3, 7), ()])
    def test_wrong_shapes_rejected(self, bch15_7, shape):
        with pytest.raises(ValueError):
            bch15_7.encode(np.zeros(shape, dtype=np.uint8))

    @pytest.mark.parametrize("shape", [(14,), (16,), (3, 14), (2, 3, 15), ()])
    def test_syndromes_wrong_shapes_rejected(self, bch15_7, shape):
        with pytest.raises(ValueError, match=rf"15 bits .*got {re.escape(str(shape))}"):
            bch15_7.syndromes(np.zeros(shape, dtype=np.uint8))

    @pytest.mark.parametrize("n", [2039, 2041, 2100])
    def test_inner_syndromes_wrong_length_rejected(self, codec, n):
        # 2039 bits used to give wrong syndromes, 2100 a broadcast error
        with pytest.raises(ValueError, match=rf"2040 bits .*got \({n},\)"):
            codec.inner.syndromes(np.ones(n, dtype=np.uint8))


class TestDecode:
    def test_clean_word(self, bch15_7):
        rng = np.random.default_rng(4)
        msg = rng.integers(0, 2, 7).astype(np.uint8)
        out = bch15_7.decode(bch15_7.encode(msg))
        assert out.status == STATUS_OK
        assert out.corrected_count == 0
        assert np.array_equal(out.message_bits, msg)

    @pytest.mark.parametrize("n_err", [1, 2])
    def test_small_code_corrects(self, bch15_7, n_err):
        rng = np.random.default_rng(5)
        for _ in range(200):
            msg = rng.integers(0, 2, 7).astype(np.uint8)
            cw = bch15_7.encode(msg)
            pos = rng.choice(15, n_err, replace=False)
            rx = cw.copy()
            rx[pos] ^= 1
            out = bch15_7.decode(rx)
            assert out.status == STATUS_OK
            assert out.corrected_count == n_err
            assert np.array_equal(out.message_bits, msg)

    def test_production_codes_correct_up_to_t(self, codec):
        rng = np.random.default_rng(6)
        for code in (codec.inner, codec.outer):
            for _ in range(300):
                msg = rng.integers(0, 2, code.k).astype(np.uint8)
                cw = code.encode(msg)
                n_err = int(rng.integers(0, code.t + 1))
                rx = cw.copy()
                if n_err:
                    pos = rng.choice(code.n, n_err, replace=False)
                    rx[pos] ^= 1
                out = code.decode(rx)
                assert out.status == STATUS_OK
                assert out.corrected_count == n_err
                assert np.array_equal(out.message_bits, msg)

    def test_beyond_t_never_silently_corrupts(self, bch15_7):
        # weight-3 patterns on a random codeword: either flagged failure or
        # a miscorrection that reports a nonzero corrected_count
        rng = np.random.default_rng(7)
        msg = rng.integers(0, 2, 7).astype(np.uint8)
        cw = bch15_7.encode(msg)
        outcomes = {"failure": 0, "miscorrect": 0, "correct": 0}
        for pos in itertools.combinations(range(15), 3):
            rx = cw.copy()
            rx[list(pos)] ^= 1
            out = bch15_7.decode(rx)
            if out.status == STATUS_FAILURE:
                outcomes["failure"] += 1
                continue
            if np.array_equal(out.message_bits, msg):
                outcomes["correct"] += 1
            else:
                outcomes["miscorrect"] += 1
                assert out.corrected_count > 0
        assert outcomes["failure"] + outcomes["miscorrect"] > 0

    @pytest.mark.parametrize("n_err", [4, 5, 6, 7])
    def test_outer_beyond_t_miscorrects_but_never_passes_clean(self, codec, n_err):
        # t+1 .. 2t+1 flips on the t = 3 outer code: each word is flagged, or
        # decoded to a wrong payload with 1 .. t corrections; never returned
        # as the sent payload, and miscorrections do occur
        code = codec.outer
        rng = np.random.default_rng(1000 + n_err)
        miscorrections = 0
        for _ in range(100):
            msg = rng.integers(0, 2, code.k).astype(np.uint8)
            rx = code.encode(msg)
            rx[rng.choice(code.n, n_err, replace=False)] ^= 1
            out = code.decode(rx)
            if out.status == STATUS_FAILURE:
                continue
            assert out.status == STATUS_OK
            assert not np.array_equal(out.message_bits, msg)
            assert 1 <= out.corrected_count <= code.t
            miscorrections += 1
        assert miscorrections >= 1

    def test_wrong_length_rejected(self, bch15_7):
        with pytest.raises(ValueError):
            bch15_7.decode(np.zeros(16, dtype=np.uint8))


class TestShortening:
    def test_shortened_matches_zero_prefixed_parent(self, gf16):
        parent = BchCodeSpec(15, 7, 2, gf16)
        short = BchCodeSpec(12, 4, 2, gf16)
        rng = np.random.default_rng(8)
        for _ in range(100):
            msg4 = rng.integers(0, 2, 4).astype(np.uint8)
            cw_short = short.encode(msg4)
            cw_parent = parent.encode(
                np.concatenate([np.zeros(3, dtype=np.uint8), msg4]))
            assert np.array_equal(cw_parent[3:], cw_short)

        for pattern in itertools.chain(
                itertools.combinations(range(12), 1),
                itertools.combinations(range(12), 2)):
            msg4 = rng.integers(0, 2, 4).astype(np.uint8)
            cw_short = short.encode(msg4)
            rx = cw_short.copy()
            rx[list(pattern)] ^= 1
            out_short = short.decode(rx)
            out_parent = parent.decode(
                np.concatenate([np.zeros(3, dtype=np.uint8), rx]))
            assert out_short.status == out_parent.status == STATUS_OK
            assert np.array_equal(out_short.message_bits,
                                  out_parent.message_bits[3:])
            assert np.array_equal(out_short.message_bits, msg4)
