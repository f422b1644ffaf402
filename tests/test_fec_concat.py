import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwoclink.fec.bch import STATUS_FAILURE, STATUS_OK, BchCodeSpec
from uwoclink.fec.concat import ConcatCodecSpec, deinterleave, interleave, interleave_indices


@pytest.fixture(scope="module")
def mini(gf16):
    """Tiny concat codec exercising the zero-padded tail path."""
    outer = BchCodeSpec(15, 5, 3, gf16)
    inner = BchCodeSpec(15, 7, 2, gf16)
    return ConcatCodecSpec(outer=outer, inner=inner, interleaver_depth=3,
                           outer_words_per_frame=1)


@pytest.fixture(scope="module")
def small(gf16):
    """Four 15-bit outer words over nine 7-bit inner payloads: outer words
    straddle inner words, and t = 2 inner words miscorrect often enough to
    hand the outer code errors to correct."""
    return ConcatCodecSpec(outer=BchCodeSpec(15, 5, 3, gf16),
                           inner=BchCodeSpec(15, 7, 2, gf16),
                           interleaver_depth=3, outer_words_per_frame=4)


def reference_decode(codec, frame):
    """Oracle: every inner word through ``inner.decode``, outer words under a
    failed inner word passed through, every other outer word through
    ``outer.decode``. Also returns what happened, by kind."""
    inner, outer = codec.inner, codec.outer
    raw = deinterleave(frame, codec.interleaver_depth)
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
    status = STATUS_OK if ok else STATUS_FAILURE
    return np.concatenate(messages), corrected, status, seen


def frame_with_inner_errors(codec, rng, errors_per_word):
    """A random frame with the given number of flips in each inner word."""
    payload = rng.integers(0, 2, codec.frame_payload_bits).astype(np.uint8)
    raw = deinterleave(codec.encode(payload), codec.interleaver_depth)
    words = raw.reshape(-1, codec.inner.n)
    for word, n_err in zip(words, errors_per_word):
        word[rng.choice(codec.inner.n, n_err, replace=False)] ^= 1
    return interleave(raw, codec.interleaver_depth)


class TestInterleaver:
    @given(length=st.integers(1, 400), depth=st.integers(1, 16),
           seed=st.integers(0, 2**16))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_any_shape(self, length, depth, seed):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 2, length).astype(np.uint8)
        assert np.array_equal(deinterleave(interleave(data, depth), depth), data)

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

    def test_indices_are_read_only(self):
        perm = interleave_indices(16320, 8)
        with pytest.raises(ValueError):
            perm[0] = 1
        assert perm[0] == 0


class TestCodecCache:
    def test_spec_codec_is_shared(self, green):
        assert green.codec is green.codec

    def test_other_depth_gets_other_codec(self, green):
        other = dataclasses.replace(green, interleaver_depth=4)
        assert other.codec is not green.codec
        assert other.codec.interleaver_depth == 4
        assert green.codec.interleaver_depth == 8


class TestFraming:
    def test_default_frame_arithmetic(self, codec):
        assert codec.frame_payload_bits == 4 * 3824 == 15296
        assert codec.inner_words_per_frame == 8
        assert codec.tail_pad_bits == 0
        assert codec.frame_bits == 8 * 2040 == 16320

    def test_frame_length_matches_rate(self, codec):
        expected = codec.frame_payload_bits / codec.code_rate()
        assert codec.frame_bits == pytest.approx(expected, abs=1.0)

    def test_mini_codec_pads_tail(self, mini):
        assert mini.frame_payload_bits == 5
        # one 15-bit outer word chops into three 7-bit inner payloads
        assert mini.inner_words_per_frame == 3
        assert mini.tail_pad_bits == 6
        assert mini.frame_bits == 45


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

    def test_clean_roundtrip_production_thousand(self, codec):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            payload = rng.integers(0, 2, codec.frame_payload_bits).astype(np.uint8)
            out = codec.decode(codec.encode(payload))
            assert out.status == STATUS_OK
            assert out.corrected_count == 0
            assert np.array_equal(out.message_bits, payload)

    def test_clean_roundtrip_mini_thousand(self, mini):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            payload = rng.integers(0, 2, 5).astype(np.uint8)
            out = mini.decode(mini.encode(payload))
            assert out.status == STATUS_OK
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
            assert out.status == STATUS_OK
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
            assert out.status == STATUS_OK
            assert out.corrected_count == 40
            assert np.array_equal(out.message_bits, payload)

    def test_burst_positions_traced_through_interleaver(self, codec):
        # each inner word must see at most ceil(40/8)+1 of the burst
        perm = interleave_indices(codec.frame_bits, codec.interleaver_depth)
        for start in (0, 5000, 16000 - 40):
            hit_positions = perm[start:start + 40]
            words = hit_positions // codec.inner.n
            counts = np.bincount(words, minlength=8)
            assert counts.max() <= 6

    def test_overwhelming_errors_flag_failure(self, codec):
        rng = np.random.default_rng(14)
        payload = rng.integers(0, 2, codec.frame_payload_bits).astype(np.uint8)
        frame = codec.encode(payload)
        flips = rng.random(codec.frame_bits) < 0.02
        out = codec.decode(frame ^ flips.astype(np.uint8))
        assert out.status == STATUS_FAILURE

    def test_single_dead_inner_word_fails_frame(self, codec):
        # 40 errors concentrated in one inner word (post-deinterleave) defeat
        # inner t=10; the frame must be flagged, never silently passed
        rng = np.random.default_rng(15)
        payload = rng.integers(0, 2, codec.frame_payload_bits).astype(np.uint8)
        frame = codec.encode(payload)
        perm = interleave_indices(codec.frame_bits, codec.interleaver_depth)
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(len(perm))
        word_positions = inverse[np.arange(40) + 2 * codec.inner.n]
        rx = frame.copy()
        rx[word_positions] ^= 1
        out = codec.decode(rx)
        assert out.status == STATUS_FAILURE


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
        message, corrected, status, _ = reference_decode(codec, frame)
        assert np.array_equal(out.message_bits, message)
        assert out.corrected_count == corrected
        assert out.status == status

    def test_reference_draws_reach_every_case(self, small):
        # the draws above do reach failed inner words, tainted outer words
        # and outer corrections, and the decoder agrees on each frame
        rng = np.random.default_rng(16)
        seen = Counter()
        for _ in range(200):
            errors = rng.integers(0, small.inner.t + 3, small.inner_words_per_frame)
            frame = frame_with_inner_errors(small, rng, errors)
            message, corrected, status, kinds = reference_decode(small, frame)
            out = small.decode(frame)
            assert np.array_equal(out.message_bits, message)
            assert (out.corrected_count, out.status) == (corrected, status)
            seen += kinds
        assert min(seen["inner_failed"], seen["outer_tainted"],
                   seen["outer_corrected"]) > 0
