import itertools
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwoclink.fec.bch import BchCodeSpec
from uwoclink.fec.concat import ConcatCodecSpec, _code, codec_for, interleave


@pytest.fixture(scope="module")
def mini(gf16):
    """Tiny concat codec: one 14-bit outer word over two 7-bit inner
    payloads, as each production outer word fills two inner payloads."""
    outer = BchCodeSpec(14, 3, gf16)
    inner = BchCodeSpec(15, 2, gf16)
    return ConcatCodecSpec(outer=outer, inner=inner, outer_words_per_frame=1)


@pytest.fixture(scope="module")
def small(gf16):
    """Four 14-bit outer words over eight 7-bit inner payloads, the
    production shape: t = 2 inner words miscorrect often enough to hand the
    outer code errors to correct."""
    return ConcatCodecSpec(outer=BchCodeSpec(14, 3, gf16),
                           inner=BchCodeSpec(15, 2, gf16),
                           outer_words_per_frame=4)


@pytest.fixture(scope="module")
def toy():
    """A 10-bit payload in one shortened (14, 10) t = 1 outer word over two
    (15, 7) t = 2 inner words: a 30-bit frame whose error patterns can all
    be listed."""
    return ConcatCodecSpec(outer=_code(14, 1, 0b10011), inner=_code(15, 2, 0b10011),
                           outer_words_per_frame=1)


def error_patterns(n, weight):
    """Every n-bit row with exactly ``weight`` ones, one row each."""
    count = math.comb(n, weight)
    ones = np.array(list(itertools.combinations(range(n), weight)),
                    dtype=np.intp).reshape(count, weight)
    rows = np.zeros((count, n), dtype=np.uint8)
    rows[np.arange(count)[:, None], ones] = 1
    return rows


def reference_decode(codec, frame):
    """Oracle: every inner word through ``inner.decode``, outer words under a
    failed inner word passed through, every other outer word through
    ``outer.decode``. Also returns what happened, by kind."""
    inner, outer = codec.inner, codec.outer
    raw = interleave(frame, codec.inner.n)  # undoes depth W
    inner_outcomes = [inner.decode(word) for word in raw.reshape(-1, inner.n)]
    stream = np.concatenate([o.message_bits for o in inner_outcomes])
    corrected = sum(o.corrected_count for o in inner_outcomes)
    ok = all(o.ok for o in inner_outcomes)
    seen = Counter(inner_failed=sum(not o.ok for o in inner_outcomes))
    messages = []
    for w in range(codec.outer_words_per_frame):
        start, stop = w * outer.n, (w + 1) * outer.n
        word = stream[start:stop]
        under = inner_outcomes[start // inner.k:(stop - 1) // inner.k + 1]
        if not all(o.ok for o in under):
            seen["outer_tainted"] += 1
            messages.append(word[: outer.k])
            continue
        outcome = outer.decode(word)
        corrected += outcome.corrected_count
        ok &= outcome.ok
        seen["outer_corrected"] += outcome.corrected_count > 0
        messages.append(outcome.message_bits)
    return np.concatenate(messages), corrected, ok, seen


def frame_with_inner_errors(codec, rng, errors_per_word):
    """A random frame with the given number of flips in each inner word."""
    payload = rng.integers(0, 2, codec.frame_payload_bits).astype(np.uint8)
    raw = interleave(codec.encode(payload), codec.inner.n)
    words = raw.reshape(-1, codec.inner.n)
    for word, n_err in zip(words, errors_per_word):
        word[rng.choice(codec.inner.n, n_err, replace=False)] ^= 1
    return interleave(raw, codec.interleaver_depth)


class TestInterleaver:
    @given(depth=st.integers(1, 16), width=st.integers(1, 30),
           rows=st.integers(0, 3), seed=st.integers(0, 2**16))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_any_shape(self, depth, width, rows, seed):
        # one frame (rows = 0) or rows of frames, along the last axis
        rng = np.random.default_rng(seed)
        shape = (rows, depth * width) if rows else (depth * width,)
        data = rng.integers(0, 2, shape).astype(np.uint8)
        # depth width undoes depth depth
        assert np.array_equal(interleave(interleave(data, depth), width), data)
        # channel bit j is bit j // depth of row j % depth
        j = np.arange(depth * width)
        rows_first = data.reshape(*shape[:-1], depth, width)
        assert np.array_equal(interleave(data, depth),
                              rows_first[..., j % depth, j // depth])

    @pytest.mark.parametrize("length, depth", [(135, 4), (16320, 7), (3, 4),
                                               (10, 0), (10, -2)])
    def test_depth_must_divide_the_length(self, length, depth):
        data = np.zeros((2, length), dtype=np.uint8)
        with pytest.raises(ValueError, match=f"depth {depth} does not divide"):
            interleave(data, depth)

    def test_consecutive_outputs_stride_apart(self):
        # depth-8 interleave of 16320 bits: adjacent channel bits come from
        # positions 16320/8 = 2040 apart
        data = np.arange(16320)
        out = interleave(data, 8)
        deltas = np.diff(out[:8].astype(np.int64))
        assert (deltas == 2040).all()

    def test_depth_one_is_identity(self):
        data = np.arange(37)
        assert np.array_equal(interleave(data, 1), data)

    @pytest.mark.parametrize("depth", [1, 8])
    def test_no_rows(self, depth):
        data = np.zeros((0, 16320), dtype=np.uint8)
        for d in (depth, 16320 // depth):  # the permutation and its inverse
            assert interleave(data, d).shape == (0, 16320)


class TestCodecCache:
    def test_spec_codec_is_shared(self, green, blue_nlos):
        # every link and the fec subcommand share the one production codec
        assert green.codec is green.codec is blue_nlos.codec is codec_for()


class TestFraming:
    def test_default_frame_arithmetic(self, codec):
        assert codec.frame_payload_bits == 4 * 3824 == 15296
        # each 3860-bit outer word fills two 1930-bit inner payloads
        assert codec.inner_words_per_frame == 4 * 3860 // 1930 == 8
        assert codec.frame_bits == 8 * 2040 == 16320
        # the interleave depth is always the inner word count
        assert codec.interleaver_depth == 8

    @pytest.mark.parametrize("words", [0, -1])
    def test_no_outer_word_rejected(self, mini, words):
        with pytest.raises(ValueError, match="outer_words_per_frame must be >= 1"):
            ConcatCodecSpec(mini.outer, mini.inner, outer_words_per_frame=words)

    def test_frame_length_matches_rate(self, codec):
        expected = codec.frame_payload_bits / codec.code_rate()
        assert codec.frame_bits == pytest.approx(expected, abs=1.0)

    @pytest.mark.parametrize("name", ["codec", "small", "mini"])
    def test_channel_bit_j_is_in_inner_word_j_mod_w(self, request, name):
        codec = request.getfixturevalue(name)
        rng = np.random.default_rng(19)
        payload = rng.integers(0, 2, codec.frame_payload_bits).astype(np.uint8)
        frame = codec.encode(payload)
        words = frame.reshape(-1, codec.inner_words_per_frame).T
        assert words.any()
        assert not codec.inner.syndromes(words).any()

    def test_non_dividing_codes_rejected(self, gf16):
        # a 15-bit outer word would straddle 7-bit inner payloads
        with pytest.raises(ValueError, match="inner k=7 does not divide outer n=15"):
            ConcatCodecSpec(outer=BchCodeSpec(15, 3, gf16),
                            inner=BchCodeSpec(15, 2, gf16))


class TestCodeRate:
    def test_default_rate(self, codec):
        assert codec.code_rate() == pytest.approx(0.93725, abs=1e-4)
        assert codec.code_rate() == pytest.approx((1930 / 2040) * (3824 / 3860))

    def test_redundancy_near_seven_percent(self, codec):
        redundancy = 1.0 / codec.code_rate() - 1.0
        assert redundancy == pytest.approx(0.0669, abs=1e-3)


class TestRoundtrip:
    def test_all_zero_payload(self, codec):
        frame = codec.encode(np.zeros(codec.frame_payload_bits, dtype=np.uint8))
        assert not frame.any()

    def test_wrong_payload_length(self, codec):
        with pytest.raises(ValueError):
            codec.encode(np.zeros(100, dtype=np.uint8))

    @pytest.mark.parametrize("shape", [(), (16319,), (2, 16321), (2, 1, 16320)])
    def test_malformed_frames_name_their_shape(self, codec, shape):
        with pytest.raises(ValueError, match=re.escape(f"got {shape}")):
            codec.decode(np.zeros(shape, dtype=np.uint8))

    @pytest.mark.parametrize("name", ["codec", "mini", "small"])
    def test_no_frames(self, request, name):
        codec = request.getfixturevalue(name)
        out = codec.decode(np.zeros((0, codec.frame_bits), dtype=np.uint8))
        assert out.message_bits.shape == (0, codec.frame_payload_bits)
        assert out.failed.shape == (0,)
        assert out.ok and out.corrected_count == 0

    def test_clean_roundtrip_production_thousand(self, codec):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            payload = rng.integers(0, 2, codec.frame_payload_bits).astype(np.uint8)
            out = codec.decode(codec.encode(payload))
            assert out.ok
            assert out.corrected_count == 0
            assert np.array_equal(out.message_bits, payload)

    def test_clean_roundtrip_mini_thousand(self, mini):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            payload = rng.integers(0, 2, mini.frame_payload_bits).astype(np.uint8)
            out = mini.decode(mini.encode(payload))
            assert out.ok
            assert np.array_equal(out.message_bits, payload)


class TestErrorHandling:
    def test_scattered_low_rate_errors_vanish(self, codec):
        # i.i.d. flips at 1e-4: a couple per frame, far below inner t=10
        rng = np.random.default_rng(12)
        for _ in range(30):
            payload = rng.integers(0, 2, codec.frame_payload_bits).astype(np.uint8)
            frame = codec.encode(payload)
            flips = rng.random(codec.frame_bits) < 1e-4
            out = codec.decode(frame ^ flips.astype(np.uint8))
            assert out.ok
            assert np.array_equal(out.message_bits, payload)

    def test_burst_of_40_is_corrected(self, codec):
        # a 40-bit channel burst spreads over the 8 inner words (<= 6 each)
        rng = np.random.default_rng(13)
        for _ in range(10):
            payload = rng.integers(0, 2, codec.frame_payload_bits).astype(np.uint8)
            frame = codec.encode(payload)
            start = int(rng.integers(0, codec.frame_bits - 40))
            rx = frame.copy()
            rx[start:start + 40] ^= 1
            out = codec.decode(rx)
            assert out.ok
            assert out.corrected_count == 40
            assert np.array_equal(out.message_bits, payload)

    def burst_frames(self, codec, length):
        """Frames with every bit of one ``length``-bit channel span flipped:
        spans that start at each offset mod W at both ends of the frame, and
        at random places."""
        rng = np.random.default_rng(18)
        words, last = codec.inner_words_per_frame, codec.frame_bits - length
        starts = [*range(words), *range(last - words + 1, last + 1),
                  *rng.integers(0, last + 1, 12)]
        for start in starts:
            payload = rng.integers(0, 2, codec.frame_payload_bits).astype(np.uint8)
            rx = codec.encode(payload)
            rx[start:start + length] ^= 1
            yield start, payload, rx

    def test_burst_up_to_w_times_t_is_corrected(self, codec):
        # channel bit j belongs to inner word j mod W, so any span of W*t
        # channel bits puts exactly t errors in each inner word
        length = codec.inner_words_per_frame * codec.inner.t
        assert length == 80
        seen = 0
        for start, payload, rx in self.burst_frames(codec, length):
            out = codec.decode(rx)
            assert out.ok, start
            assert out.corrected_count == length, start
            assert np.array_equal(out.message_bits, payload), start
            seen += 1
        assert seen == 28

    def test_burst_past_w_times_t_is_not_corrected(self, codec):
        # one bit more puts t + 1 errors in one inner word, past what the
        # inner code corrects; none of these frames comes back as its payload
        # with ok status, so W*t is the exact limit of the layout
        length = codec.inner_words_per_frame * codec.inner.t + 1
        for start, payload, rx in self.burst_frames(codec, length):
            out = codec.decode(rx)
            assert not (out.ok and np.array_equal(out.message_bits, payload)), start

    def test_overwhelming_errors_flag_failure(self, codec):
        rng = np.random.default_rng(14)
        payload = rng.integers(0, 2, codec.frame_payload_bits).astype(np.uint8)
        frame = codec.encode(payload)
        flips = rng.random(codec.frame_bits) < 0.02
        out = codec.decode(frame ^ flips.astype(np.uint8))
        assert not out.ok

    def test_single_dead_inner_word_fails_frame(self, codec):
        # 40 errors concentrated in one inner word (channel bits 2 mod 8)
        # defeat inner t=10; the frame must be flagged, never silently passed
        rng = np.random.default_rng(15)
        payload = rng.integers(0, 2, codec.frame_payload_bits).astype(np.uint8)
        frame = codec.encode(payload)
        word_positions = 2 + codec.inner_words_per_frame * np.arange(40)
        rx = frame.copy()
        rx[word_positions] ^= 1
        out = codec.decode(rx)
        assert not out.ok


class TestScreenedDecode:
    @pytest.mark.parametrize("name", ["codec", "small"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_word_reference(self, request, name, data):
        # 0 .. t+2 errors per inner word: clean, corrected and failed inner
        # words, tainted outer words and outer corrections
        codec = request.getfixturevalue(name)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        errors = data.draw(st.lists(st.integers(0, codec.inner.t + 2),
                                    min_size=codec.inner_words_per_frame,
                                    max_size=codec.inner_words_per_frame))
        frame = frame_with_inner_errors(codec, rng, errors)
        out = codec.decode(frame)
        message, corrected, ok, _ = reference_decode(codec, frame)
        assert np.array_equal(out.message_bits, message)
        assert out.corrected_count == corrected
        assert out.ok == ok

    @pytest.mark.parametrize("name", ["codec", "small"])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_rows_match_one_frame_at_a_time(self, request, name, data):
        # drawn frames (0 .. t+2 errors per inner word) in one batch with a
        # clean frame and one whose first inner word is far past t
        codec = request.getfixturevalue(name)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        words, t = codec.inner_words_per_frame, codec.inner.t
        drawn = data.draw(st.lists(st.lists(st.integers(0, t + 2), min_size=words,
                                            max_size=words), max_size=5))
        errors = data.draw(st.permutations(
            [[0] * words, [t + 3] + [0] * (words - 1), *drawn]))
        frames = np.array([frame_with_inner_errors(codec, rng, e) for e in errors])
        out = codec.decode(frames)
        singles = [codec.decode(frame) for frame in frames]
        assert all(one.failed.shape == () for one in singles)
        assert out.failed.shape == (len(frames),)
        assert np.array_equal(out.message_bits, [one.message_bits for one in singles])
        assert out.failed.tolist() == [bool(one.failed) for one in singles]
        assert out.corrected_count == sum(one.corrected_count for one in singles)

    def test_one_row_wise_call_per_code(self, monkeypatch, codec):
        # about 2 flips in every inner word: all eight go to one inner
        # decode, whose one syndromes call is the only inner screen; the
        # outer words come out clean, so the outer code is only screened.
        # A batch of frames makes the same calls.
        rng = np.random.default_rng(17)
        per_frame = codec.inner_words_per_frame
        frame = frame_with_inner_errors(codec, rng, [2] * per_frame)
        calls = Counter()
        for attr in ("syndromes", "decode"):
            def counted(code, words, _attr=attr, _original=getattr(BchCodeSpec, attr)):
                calls[_attr, "inner" if code is codec.inner else "outer"] += 1
                return _original(code, words)
            monkeypatch.setattr(BchCodeSpec, attr, counted)
        out = codec.decode(frame)
        assert out.ok and out.corrected_count == 2 * per_frame
        one_each = {("syndromes", "inner"): 1, ("decode", "inner"): 1,
                    ("syndromes", "outer"): 1}
        assert calls == one_each
        calls.clear()
        batch = [frame] + [frame_with_inner_errors(codec, rng, [2] * per_frame)
                           for _ in range(3)]
        out = codec.decode(np.array(batch))
        assert out.ok and out.corrected_count == 4 * 2 * per_frame
        assert calls == one_each

    def test_reference_draws_reach_every_case(self, small):
        # the draws above do reach failed inner words, tainted outer words
        # and outer corrections, and the decoder agrees on each frame, alone
        # and with all 200 in one batch
        rng = np.random.default_rng(16)
        seen = Counter()
        frames, expected = [], []
        for _ in range(200):
            errors = rng.integers(0, small.inner.t + 3, small.inner_words_per_frame)
            frame = frame_with_inner_errors(small, rng, errors)
            message, corrected, ok, kinds = reference_decode(small, frame)
            out = small.decode(frame)
            assert np.array_equal(out.message_bits, message)
            assert (out.corrected_count, out.ok) == (corrected, ok)
            seen += kinds
            frames.append(frame)
            expected.append((message, corrected, not ok))
        assert min(seen["inner_failed"], seen["outer_tainted"],
                   seen["outer_corrected"]) > 0
        messages, corrected, failed = zip(*expected)
        batch = small.decode(np.array(frames))
        assert np.array_equal(batch.message_bits, messages)
        assert batch.corrected_count == sum(corrected)
        assert batch.failed.tolist() == list(failed)


class TestToyFrameEnumeration:
    """Every error pattern of weight 0-5 on the toy codec's zero frame, one
    decode call per weight: the exact number of frames flagged failed and of
    frames called clean with a wrong payload (undetected)."""

    @pytest.mark.parametrize("weights, patterns, failed, undetected", [
        ((0, 1, 2), 466, 0, 0),
        ((3,), 4_060, 550, 260),
        ((4,), 27_405, 9_960, 4_810),
        ((5,), 142_506, 86_646, 43_176),
    ], ids=["weight-0-2", "weight-3", "weight-4", "weight-5"])
    def test_counts_per_weight(self, toy, weights, patterns, failed, undetected):
        counts = Counter()
        for weight in weights:
            frames = error_patterns(toy.frame_bits, weight)
            out = toy.decode(frames)
            wrong = out.message_bits.any(axis=1)
            counts.update(patterns=len(frames), failed=int(out.failed.sum()),
                          undetected=int((wrong & ~out.failed).sum()))
        assert counts == Counter(patterns=patterns, failed=failed,
                                 undetected=undetected)

    def test_rows_match_the_reference_up_to_weight_3(self, toy):
        assert toy.frame_bits == 30
        frames = np.concatenate([error_patterns(toy.frame_bits, w) for w in range(4)])
        out = toy.decode(frames)
        for frame, message, failed in zip(frames, out.message_bits, out.failed):
            reference, _, ok, _ = reference_decode(toy, frame)
            assert np.array_equal(message, reference)
            assert failed == (not ok)


class TestLinearity:
    """Both codes are linear and each decoder reads only syndromes, so a
    received frame decodes as its error pattern alone does: the same
    failure flags and correction count, and message bits that differ by the
    sent payload. The frame loop relies on this: it decodes error patterns
    only."""

    @staticmethod
    def decode_alike(codec, patterns, rng):
        """Decode ``patterns`` alone, then XOR-ed onto each of three random
        codewords; returns the patterns' own outcome."""
        alone = codec.decode(patterns)
        for _ in range(3):
            payload = rng.integers(0, 2, codec.frame_payload_bits, dtype=np.uint8)
            out = codec.decode(patterns ^ codec.encode(payload))
            assert np.array_equal(out.failed, alone.failed)
            assert out.corrected_count == alone.corrected_count
            assert np.array_equal(out.message_bits ^ payload, alone.message_bits)
        return alone

    def test_every_toy_pattern_up_to_weight_3(self, toy):
        # weight 3 reaches failed and undetected frames
        patterns = np.concatenate([error_patterns(toy.frame_bits, w) for w in range(4)])
        alone = self.decode_alike(toy, patterns, np.random.default_rng(23))
        undetected = alone.message_bits.any(axis=1) & ~alone.failed
        assert (len(patterns), alone.failed.sum(), undetected.sum()) == (4_526, 550, 260)

    def test_production_frames_at_ber_3e_3(self, codec):
        rng = np.random.default_rng(29)
        patterns = (rng.random((100, codec.frame_bits)) < 3e-3).view(np.uint8)
        alone = self.decode_alike(codec, patterns, rng)
        assert 0 < alone.failed.sum() < 100
