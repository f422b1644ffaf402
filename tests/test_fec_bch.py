import itertools
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwoclink.fec.bch import (
    STATUS_FAILURE,
    STATUS_OK,
    BchCodeSpec,
    _pack,
    generator_polynomial,
)


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


def low_weight_fit(code, s):
    """``code._low_weight_degrees`` on syndromes ``s``, with their S_5 ..
    S_(2t-1) packed as ``decode`` packs them."""
    return code._low_weight_degrees(s, _pack(np.array([s[4::2]], dtype=np.int64))[0])


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


@pytest.fixture(scope="module")
def bch12_4(gf16):
    """(15,7) shortened by 3: degrees 12 .. 14 are never transmitted."""
    return BchCodeSpec(12, 4, 2, gf16)


def reference_berlekamp_massey(code, synd):
    """Oracle: general Berlekamp-Massey over all 2t syndromes, even steps too."""
    exp, log, order = code.field.exp, code.field.log, code.field.order
    s = [int(v) for v in synd]
    locator = [1]
    prev = [1]
    length = 0
    shift = 1
    prev_disc = 1
    for step in range(len(s)):
        disc = s[step]
        for i in range(1, length + 1):
            if i < len(locator) and locator[i] and s[step - i]:
                disc ^= exp[(log[locator[i]] + log[s[step - i]]) % order]
        if disc == 0:
            shift += 1
            continue
        coef = exp[(log[disc] - log[prev_disc]) % order]
        update = [0] * shift + prev
        if len(update) > len(locator):
            locator = locator + [0] * (len(update) - len(locator))
        saved = list(locator)
        for i, u in enumerate(update):
            if u:
                locator[i] ^= exp[(log[u] + log[coef]) % order]
        if 2 * length <= step:
            length = step + 1 - length
            prev = saved
            prev_disc = disc
            shift = 1
        else:
            shift += 1
    while len(locator) > 1 and locator[-1] == 0:
        locator.pop()
    return locator, length


def field_mul(field, a, b):
    """Oracle helper: the product of two elements of ``field``."""
    return 0 if a == 0 or b == 0 else field.exp[(field.log[a] + field.log[b]) % field.order]


def reference_roots(code, locator):
    """Oracle: Chien search over every degree d of the 2^m - 1 cycle."""
    field = code.field
    return [d for d in range(field.order)
            if not np.bitwise_xor.reduce(
                [field_mul(field, c, field.exp[(j * (field.order - d)) % field.order])
                 for j, c in enumerate(locator)])]


def reference_roots_rows(field, locators):
    """Oracle ``reference_roots`` for rows of locators at once: the degrees d
    of the whole cycle where the locator vanishes at alpha^-d."""
    order, log = field.order, np.array(field.log)
    locators = np.asarray(locators)
    minus_d = (order - np.arange(order)) % order
    value = np.zeros((len(locators), order), dtype=np.int64)
    for j, coef in enumerate(locators.T):
        term = field.exp_np[(log[coef][:, None] + j * minus_d) % order]
        value ^= np.where(coef[:, None] > 0, term, 0)
    return [np.flatnonzero(row == 0).tolist() for row in value]


def pattern_syndromes(code, degrees):
    """Oracle: S_1 .. S_2t of the error pattern at ``degrees``, or of each
    row of degrees; any degree of the 2^m - 1 cycle, past n too."""
    j = np.arange(1, 2 * code.t + 1)
    terms = code.field.exp_np[np.asarray(degrees)[..., None] * j % code.field.order]
    return np.bitwise_xor.reduce(terms, axis=-2)


def word_with_pattern(code, degrees):
    """A received word whose syndromes are those of errors at ``degrees``:
    a unit bit for each degree < n, ``beyond_n`` for each in the prefix."""
    word = np.zeros(code.n, dtype=np.uint8)
    for degree in degrees:
        if degree < code.n:
            word[code.n - 1 - degree] ^= 1
        else:
            word ^= beyond_n(code, degree)
    return word


def random_cubics(code, rng, count):
    """1 + s1 x + s2 x^2 + s3 x^3 with s3 != 0, as rows: a quarter each from
    three roots (some in the shortened prefix, some repeated, some three
    times), from p = s1^2 + s2 = 0, and from random coefficients."""
    field = code.field
    order, exp, log = field.order, field.exp_np, np.array(field.log)
    quarter = count // 4
    degs = rng.integers(0, order, (2 * quarter, 3))
    degs[: quarter // 2, 0] = rng.integers(code.n, order, quarter // 2)
    degs[quarter // 2: quarter, 1] = degs[quarter // 2: quarter, 0]
    degs[quarter: quarter + quarter // 8, 1:] = degs[quarter: quarter + quarter // 8, :1]
    x = exp[degs]
    from_roots = np.stack([
        x[:, 0] ^ x[:, 1] ^ x[:, 2],
        exp[(degs[:, 0] + degs[:, 1]) % order] ^ exp[(degs[:, 0] + degs[:, 2]) % order]
        ^ exp[(degs[:, 1] + degs[:, 2]) % order],
        exp[degs.sum(axis=1) % order],
    ], axis=1)
    s1 = rng.integers(0, order + 1, count - 2 * quarter)
    s2 = rng.integers(0, order + 1, len(s1))
    s2[:quarter] = np.where(s1[:quarter] > 0, exp[2 * log[s1[:quarter]]], 0)  # p = 0
    s3 = rng.integers(1, order + 1, len(s1))
    coefs = np.concatenate([from_roots, np.stack([s1, s2, s3], axis=1)])
    return np.concatenate([np.ones((count, 1), dtype=np.int64), coefs], axis=1)


def sorted_or_none(degrees):
    return None if degrees is None else sorted(degrees)


def near_codeword(code, t_fit, rng):
    """A codeword of the t_fit-error BCH code on the same field and length:
    S_1 .. S_2t_fit are zero, the later syndromes almost surely are not."""
    degree = generator_polynomial(code.field, t_fit).bit_length() - 1
    near = BchCodeSpec(code.n, code.n - degree, t_fit, code.field)
    return near.encode(rng.integers(0, 2, near.k).astype(np.uint8))


def reference_decode(code, word):
    """Oracle decoder: (status, corrected_count, message_bits)."""
    synd = reference_syndromes(code, word)
    if not synd.any():
        return STATUS_OK, 0, word[: code.k]
    locator, length = reference_berlekamp_massey(code, synd)
    failed = (STATUS_FAILURE, 0, word[: code.k])
    if length > code.t or len(locator) - 1 != length:
        return failed
    roots = reference_roots(code, locator)
    if len(roots) != length or max(roots) >= code.n:
        return failed
    corrected = word.copy()
    corrected[code.n - 1 - np.array(roots)] ^= 1
    return STATUS_OK, len(roots), corrected[: code.k]


def assert_decodes_like_reference(code, word):
    out = code.decode(word)
    status, count, message = reference_decode(code, word)
    assert (out.status, out.corrected_count) == (status, count)
    assert np.array_equal(out.message_bits, message)
    return out


def beyond_n(code, degree):
    """A received word whose syndromes are those of one error at ``degree``
    >= n, in the shortened prefix: x^degree mod g in the parity bits."""
    word = np.zeros(code.n, dtype=np.uint8)
    rem = poly_long_division(1 << degree, code.generator)
    word[code.k:] = [(rem >> (code.parity_bits - 1 - i)) & 1
                     for i in range(code.parity_bits)]
    return word


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
        assert (codec.outer.n, codec.outer.k, codec.outer.t) == (3860, 3824, 3)
        assert codec.outer.parent_n == 4095

    @pytest.mark.parametrize("n", [0, -1, 16])
    def test_length_outside_the_cycle_rejected(self, gf16, n):
        with pytest.raises(ValueError, match=rf"n={n} must be in \(0, 15\]"):
            BchCodeSpec(n, 7, 2, gf16)

    def test_mismatched_spec_rejected(self, gf16):
        with pytest.raises(ValueError):
            BchCodeSpec(15, 8, 2, gf16)  # n-k=7 but generator degree is 8

    @pytest.mark.parametrize("name", ["inner", "outer", "bch15_7", "bch15_5",
                                      "bch12_4", "inner_t6"])
    def test_roots_are_the_conjugates(self, request, codec, name):
        # g(alpha^i) = 0 for i = 1 .. 2t, and g has one simple root per
        # conjugate alpha^(i 2^j) of an odd i < 2t, and no other
        if name == "inner_t6":  # the t = 6 code of test_length_past_t_stops_early
            inner = codec.inner
            code = BchCodeSpec(inner.n, inner.n - 66, 6, inner.field)
        else:
            code = named_code(request, codec, name)
        field, g = code.field, code.generator
        powers = np.flatnonzero([(g >> k) & 1 for k in range(g.bit_length())])
        exponents = np.arange(field.order)[:, None] * powers % field.order
        roots = np.flatnonzero(np.bitwise_xor.reduce(field.exp_np[exponents], axis=1) == 0)
        assert set(np.arange(1, 2 * code.t + 1) % field.order) <= set(roots.tolist())
        conjugates = {i * 2**j % field.order
                      for i in range(1, 2 * code.t, 2) for j in range(field.m)}
        assert set(roots.tolist()) == conjugates
        assert g.bit_length() - 1 == len(conjugates)


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


class TestRowDecode:
    @pytest.mark.parametrize("name", ["bch15_7", "inner", "outer"])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_rows_match_one_word_decode(self, request, codec, name, data):
        # 1 .. 9 rows of 0 .. 2t+2 flips each: clean, corrected, failed and
        # miscorrected rows in one call, each row as its own 1-D decode
        code = named_code(request, codec, name)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n_rows = data.draw(st.integers(1, 9))
        rows = code.encode(rng.integers(0, 2, (n_rows, code.k)).astype(np.uint8))
        for row in rows:
            row[rng.choice(code.n, data.draw(st.integers(0, 2 * code.t + 2)),
                           replace=False)] ^= 1
        received = rows.copy()
        out = code.decode(rows)
        singles = [code.decode(row) for row in rows]
        assert np.array_equal(rows, received)  # the input is not corrected in place
        assert out.message_bits.shape == (n_rows, code.k)
        assert out.failed.shape == (n_rows,)
        for message, failed, single in zip(out.message_bits, out.failed, singles):
            assert np.array_equal(message, single.message_bits)
            assert failed == single.failed
        assert out.corrected_count == sum(s.corrected_count for s in singles)
        assert out.ok is all(s.ok for s in singles)
        assert out.status == (STATUS_OK if out.ok else STATUS_FAILURE)

    @pytest.mark.parametrize("name, rows, ber, seed, kinds", [
        ("inner", 48, 1e-3, 31, {"clean", "weight 1", "weight 2", "weight 3", "chien"}),
        ("inner", 48, 6e-3, 32, {"chien", "failed"}),
        ("outer", 24, 5e-4, 33, {"clean", "weight 1", "weight 2", "weight 3", "failed"}),
    ])
    def test_batch_matches_reference_decode(self, codec, name, rows, ber, seed, kinds):
        # one call on a batch of i.i.d. flips, as a simulated second sends
        # it: light rows for the fit, heavy rows for the Chien search, rows
        # past t. Each row must come out as the reference decoder, which
        # does not use the fit, gives it, so a packed value read for the
        # wrong row or a flip at the wrong offset fails here even where the
        # one-word decode shares the slip
        code = getattr(codec, name)
        rng = np.random.default_rng(seed)
        sent = code.encode(rng.integers(0, 2, (rows, code.k), dtype=np.uint8))
        received = sent ^ (rng.random(sent.shape) < ber).view(np.uint8)
        out = code.decode(received)
        seen, corrected = set(), 0
        for word, message, failed in zip(received, out.message_bits, out.failed):
            status, count, expected = reference_decode(code, word)
            assert (STATUS_FAILURE if failed else STATUS_OK) == status
            assert np.array_equal(message, expected)
            corrected += count
            seen.add("failed" if failed else "clean" if count == 0
                     else f"weight {count}" if count <= 3 else "chien")
        assert out.corrected_count == corrected
        assert kinds <= seen

    def test_one_word_has_one_flag(self, bch15_7):
        word = bch15_7.encode(np.ones(7, dtype=np.uint8))
        word[[0, 1, 5]] ^= 1  # beyond t = 2, and not miscorrected
        out = bch15_7.decode(word)
        assert out.message_bits.shape == (7,) and out.failed.shape == ()
        assert out.failed and out.ok is False and out.status == STATUS_FAILURE

    @pytest.mark.parametrize("name", ["bch15_7", "inner", "outer"])
    def test_no_rows(self, request, codec, name):
        code = named_code(request, codec, name)
        words = np.zeros((0, code.n), dtype=np.uint8)
        synd = code.syndromes(words)
        assert synd.shape == (0, 2 * code.t)
        out = code.decode(words)
        assert out.message_bits.shape == (0, code.k)
        assert out.failed.shape == (0,)
        assert out.ok and out.corrected_count == 0

    @pytest.mark.parametrize("shape", [(2, 3, 15), (3, 14), (3, 16), (16,), ()])
    def test_wrong_shapes_rejected(self, bch15_7, shape):
        with pytest.raises(ValueError, match=rf"15 bits .*got {re.escape(str(shape))}"):
            bch15_7.decode(np.zeros(shape, dtype=np.uint8))


class TestDecodeAgainstReference:
    @pytest.mark.parametrize("name", ["bch15_7", "bch12_4", "inner", "outer"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_patterns(self, request, codec, name, data):
        # weight 0 .. 2t+2: clean, correctable, failures and miscorrections
        code = named_code(request, codec, name)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        word = code.encode(rng.integers(0, 2, code.k).astype(np.uint8))
        word[rng.choice(code.n, data.draw(st.integers(0, 2 * code.t + 2)),
                        replace=False)] ^= 1
        assert_decodes_like_reference(code, word)

    def test_every_pattern_up_to_weight_4_on_bch12_4(self, bch12_4):
        outcomes = set()
        for weight in range(5):
            for pos in itertools.combinations(range(12), weight):
                word = bch12_4.encode(np.array([1, 0, 1, 1], dtype=np.uint8))
                word[list(pos)] ^= 1
                outcomes.add(assert_decodes_like_reference(bch12_4, word).status)
        assert outcomes == {STATUS_OK, STATUS_FAILURE}

    def test_every_pattern_up_to_weight_4_on_bch15_5(self, bch15_5):
        # t = 3 and n = 15 is the whole cycle: 1,941 words, weight 3 solved
        # by the fit and weight 4 failed or miscorrected
        outcomes = set()
        sent = bch15_5.encode(np.array([1, 0, 1, 1, 0], dtype=np.uint8))
        for weight in range(5):
            for pos in itertools.combinations(range(15), weight):
                word = sent.copy()
                word[list(pos)] ^= 1
                outcomes.add(assert_decodes_like_reference(bch15_5, word).status)
        assert outcomes == {STATUS_OK, STATUS_FAILURE}

    def test_t1_code_corrects_every_single_error(self, gf16):
        # a t = 1 code has S_1 and S_2 only: the fit reads no S_3
        code = BchCodeSpec(15, 11, 1, gf16)
        sent = code.encode(np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1], dtype=np.uint8))
        for pos in range(15):
            word = sent.copy()
            word[pos] ^= 1
            assert assert_decodes_like_reference(code, word).corrected_count == 1

    def test_every_word_of_bch12_4(self, bch12_4):
        # all 2^12 received words; some reach a Berlekamp-Massey locator of
        # degree 1 or 2 after the weight-1/weight-2 fit failed, where the
        # decoder fails the word without a root search
        low_degree = 0
        for value in range(1 << 12):
            word = np.array([(value >> (11 - i)) & 1 for i in range(12)], dtype=np.uint8)
            assert_decodes_like_reference(bch12_4, word)
            synd = bch12_4.syndromes(word).tolist()
            if any(synd) and low_weight_fit(bch12_4, synd) is None:
                locator = bch12_4._berlekamp_massey(synd)
                low_degree += locator is not None and len(locator) <= 3
        assert low_degree > 0

    def test_sigma1_zero_is_a_repeated_root(self, bch15_7):
        # 1 + s2 x^2 = (1 + sqrt(s2) x)^2: one root, twice, so no correction
        for s2 in range(1, 16):
            assert len(reference_roots(bch15_7, [1, 0, s2])) == 1
            assert bch15_7._error_degrees([1, 0, s2]) is None

    def test_trace_one_quadratic_fails(self, bch15_7):
        # weight-3 words whose degree-2 locator maps to y^2 + y = c with no
        # root in GF(16): the decoder must flag them, like the reference
        field = bch15_7.field
        irreducible = 0
        for pos in itertools.combinations(range(15), 3):
            word = np.zeros(15, dtype=np.uint8)
            word[list(pos)] = 1
            locator = bch15_7._berlekamp_massey(bch15_7.syndromes(word))
            if locator is None or len(locator) != 3:
                continue
            c = field.exp[(field.log[locator[2]] - 2 * field.log[locator[1]]) % 15]
            if field.quadratic_root[c] < 0:
                irreducible += 1
                assert reference_roots(bch15_7, locator) == []
                assert assert_decodes_like_reference(bch15_7, word).status == STATUS_FAILURE
        assert irreducible > 0

    @pytest.mark.parametrize("name, sent", [
        ("bch12_4", ()),            # degree 1: the one root is in the prefix
        ("bch12_4", (5,)),          # degree 2, closed form
        ("inner", (3, 1500)),       # degree 3, closed form
        ("inner", tuple(range(0, 1800, 200))),  # degree 10 = t
        ("outer", (7, 3000)),       # degree 3 on the t = 3 outer code
    ])
    def test_root_in_shortened_prefix_fails(self, request, codec, name, sent):
        code = named_code(request, codec, name)
        for degree in (code.n, (code.n + code.parent_n) // 2, code.parent_n - 1):
            word = beyond_n(code, degree)
            word[list(sent)] ^= 1
            locator = code._berlekamp_massey(code.syndromes(word))
            assert len(locator) - 1 == len(sent) + 1
            assert assert_decodes_like_reference(code, word).status == STATUS_FAILURE

    def test_length_past_t_stops_early(self, codec):
        # a codeword of the t = 6 code on the same field has S_1 .. S_12 = 0
        # and S_13 != 0: L jumps to 13 > t = 10 on the 7th of 10 steps
        code = codec.inner
        t6 = BchCodeSpec(code.n, code.n - 66, 6, code.field)
        rng = np.random.default_rng(9)
        for _ in range(10):
            word = t6.encode(rng.integers(0, 2, t6.k).astype(np.uint8))
            synd = code.syndromes(word)
            assert not synd[:12].any() and synd[12]
            assert reference_berlekamp_massey(code, synd)[1] > code.t
            assert assert_decodes_like_reference(code, word).status == STATUS_FAILURE
            # S_14 .. S_20 are never read: values outside the field there
            # would raise IndexError in the log table
            synd[13:] = 1 << 20
            assert code._berlekamp_massey(synd) is None


class TestClosedFormCubic:
    # A Berlekamp-Massey locator of degree 3 never reaches the root search:
    # _error_degrees returns None for it, and the fit solves the weight-3
    # pattern at each split cubic's roots before Berlekamp-Massey runs
    def test_every_cubic_over_gf16(self, bch15_5):
        # 16 * 16 * 15 locators; n = 15 is the whole cycle
        code, solved = bch15_5, 0
        for s1, s2, s3 in itertools.product(range(16), range(16), range(1, 16)):
            roots = reference_roots(code, [1, s1, s2, s3])
            expected = roots if len(roots) == 3 else None
            assert sorted_or_none(code._cubic_degrees(s1, s2, s3)) == expected
            assert code._error_degrees([1, s1, s2, s3]) is None
            if expected is not None:
                synd = pattern_syndromes(code, expected).tolist()
                assert sorted(low_weight_fit(code, synd)) == expected
                solved += 1
        assert solved > 0

    @pytest.mark.parametrize("name", ["inner", "outer"])  # GF(2^11), GF(2^12)
    def test_random_locators(self, codec, name):
        code = getattr(codec, name)
        field = code.field
        locators = random_cubics(code, np.random.default_rng(11), 10_000)
        for locator in locators[::1000].tolist():  # the batch oracle is the oracle
            assert reference_roots_rows(field, [locator])[0] == reference_roots(code, locator)
        seen = Counter()
        split = []
        for start in range(0, len(locators), 500):
            chunk = locators[start:start + 500]
            for locator, roots in zip(chunk.tolist(), reference_roots_rows(field, chunk)):
                expected = roots if len(roots) == 3 else None
                assert sorted_or_none(code._cubic_degrees(*locator[1:])) == expected
                assert code._error_degrees(locator) is None
                split += [expected] if expected else []
                p_zero = field_mul(field, locator[1], locator[1]) == locator[2]
                seen["p = 0, three roots" if p_zero and expected else
                     "p = 0, fails" if p_zero else
                     "root in prefix" if expected and roots[-1] >= code.n else
                     "repeated root" if 0 < len(roots) < 3 else
                     "three roots" if expected else "no root"] += 1
        # cube roots exist three at a time only on even m (GF(2^12))
        assert (seen["p = 0, three roots"] > 0) == (field.m % 2 == 0)
        assert min(seen["p = 0, fails"], seen["root in prefix"], seen["repeated root"],
                   seen["three roots"], seen["no root"]) > 0
        for roots, synd in zip(split, pattern_syndromes(code, split).tolist()):
            assert sorted(low_weight_fit(code, synd)) == roots
        # the fit works over the whole cycle; a root in the shortened
        # prefix still fails the word
        prefix = [roots for roots in split if roots[-1] >= code.n]
        for roots in prefix[:10]:
            word = word_with_pattern(code, roots)
            assert assert_decodes_like_reference(code, word).status == STATUS_FAILURE


class TestLowWeightSolve:
    @pytest.mark.parametrize("name, t_fit", [("inner", 2), ("inner", 9), ("outer", 2)])
    @pytest.mark.parametrize("weight", [1, 2])
    def test_fit_on_leading_syndromes_only(self, codec, name, t_fit, weight):
        # far more than t errors, whose S_1 .. S_(2 t_fit) are those of a
        # weight-1 or weight-2 pattern and whose later odd syndromes are not
        code = getattr(codec, name)
        field, rng = code.field, np.random.default_rng(100 * t_fit + weight)
        for _ in range(4):
            sent = code.encode(rng.integers(0, 2, code.k).astype(np.uint8))
            word = sent ^ near_codeword(code, t_fit, rng)
            errors = rng.choice(code.n, weight, replace=False)
            word[errors] ^= 1
            assert np.count_nonzero(word != sent) > code.t
            synd = code.syndromes(word)
            pattern = reference_syndromes(code, np.isin(np.arange(code.n), errors))
            assert np.array_equal(synd[: 2 * t_fit], pattern[: 2 * t_fit])
            assert not np.array_equal(synd, pattern)
            if weight == 1:
                assert synd[2] == field.exp[3 * field.log[synd[0]] % field.order]
            # the fit reads S_5 into a weight-3 pattern, so on the t = 3
            # outer code it may find one; it must then give every syndrome
            fit = low_weight_fit(code, synd.tolist())
            if fit is not None:
                assert len(fit) == 3
                assert np.array_equal(pattern_syndromes(code, fit), synd)
            assert_decodes_like_reference(code, word)

    def test_inner_frames_reach_every_solve_branch(self, codec):
        # 200 frames of 8 inner words at BER 1e-3 take the fit at weights 1,
        # 2 and 3 and the Chien search; Berlekamp-Massey runs only when the
        # fit misses. A word fails after the Chien search only past t = 10
        # errors, which takes a higher BER; its locator then has degree <= t
        # but too few roots
        code = BchCodeSpec(codec.inner.n, codec.inner.k, codec.inner.t, codec.inner.field)
        seen = Counter()

        def spy(name, kind):
            original = getattr(code, name)

            def wrapped(*args):
                result = original(*args)
                seen[kind(args, result)] += 1
                return result
            setattr(code, name, wrapped)

        spy("_low_weight_degrees", lambda a, r: "fit missed" if r is None else f"weight {len(r)}")
        spy("_berlekamp_massey", lambda a, r: "berlekamp-massey")
        spy("_error_degrees", lambda a, r: ("chien" if len(a[0]) > 4 else "degree < 4")
            + (" failed" if r is None else ""))
        rng = np.random.default_rng(13)
        for ber, frames in ((1e-3, 200), (6e-3, 20)):
            for _ in range(frames):
                words = code.encode(rng.integers(0, 2, (8, code.k)).astype(np.uint8))
                code.decode(words ^ (rng.random(words.shape) < ber).view(np.uint8))
            if ber == 1e-3:
                assert min(seen["weight 1"], seen["weight 2"], seen["weight 3"],
                           seen["chien"]) > 0
                assert seen["chien failed"] == 0
        assert seen["chien failed"] > 0
        assert seen["berlekamp-massey"] == seen["fit missed"]

    def test_fit_solves_weight_up_to_3_on_bch15_5(self, bch15_5, monkeypatch):
        # no Berlekamp-Massey run, including the patterns with
        # X_1 + X_2 + X_3 = 0, whose S_1 is 0
        def no_run(synd):
            raise AssertionError(f"Berlekamp-Massey ran on {synd}")

        monkeypatch.setattr(bch15_5, "_berlekamp_massey", no_run)
        s1_zero = 0
        sent = bch15_5.encode(np.array([0, 1, 1, 0, 1], dtype=np.uint8))
        for weight in range(1, 4):
            for pos in itertools.combinations(range(15), weight):
                word = sent.copy()
                word[list(pos)] ^= 1
                degrees = sorted(14 - p for p in pos)
                synd = bch15_5.syndromes(word)
                assert sorted(low_weight_fit(bch15_5, synd.tolist())) == degrees
                out = bch15_5.decode(word)
                assert (out.status, out.corrected_count) == (STATUS_OK, weight)
                assert np.array_equal(out.message_bits, sent[:5])
                s1_zero += synd[0] == 0
        # X_1 != X_2 of the 15 nonzero elements and X_3 = X_1 + X_2, each
        # set counted in its 3! orders: 15 * 14 / 6
        assert s1_zero == 35

    @pytest.mark.parametrize("name", ["inner", "outer"])
    def test_weight_3_with_zero_s1_corrects(self, codec, name):
        # X_3 = X_1 + X_2, every degree < n: S_1 = 0 goes to the fit
        code = getattr(codec, name)
        field, rng = code.field, np.random.default_rng(21)
        done = 0
        while done < 30:
            d1, d2 = rng.choice(code.n, 2, replace=False).tolist()
            d3 = field.log[field.exp[d1] ^ field.exp[d2]]
            if d3 >= code.n:
                continue
            sent = code.encode(rng.integers(0, 2, code.k).astype(np.uint8))
            word = sent.copy()
            word[[code.n - 1 - d for d in (d1, d2, d3)]] ^= 1
            assert code.syndromes(word)[0] == 0
            out = code.decode(word)
            assert (out.status, out.corrected_count) == (STATUS_OK, 3)
            assert np.array_equal(out.message_bits, sent[: code.k])
            done += 1


class TestTables:
    def test_production_tables_under_2_5_mb(self, codec):
        total = 0
        for code in (codec.inner, codec.outer):
            for value in vars(code).values():
                for array in value if isinstance(value, list) else [value]:
                    total += array.nbytes if isinstance(array, np.ndarray) else 0
        assert total < 2.5e6


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
