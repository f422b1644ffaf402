import hashlib
import io
import itertools
import json
import math
import re
import threading
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest
from scipy.stats import binom, chisquare, norm

from uwoclink import engine
from uwoclink.channel import FadingSpec, total_loss_db
from uwoclink.cli import _bits_to_hex, main, render_report
from uwoclink.config import load_preset
from uwoclink.fec.concat import ConcatCodecSpec, deinterleave, interleave
from uwoclink.engine import (
    ETHERNET_CAP_BPS,
    ETHERNET_OVERHEAD_BYTES,
    ETHERNET_PAYLOAD_BYTES,
    SYNC_OVERHEAD_FRACTION,
    LinkSpec,
    epoch_seed,
    goodput_for,
    inject_errors_run,
    long_term_monitor,
    margin_to_snr,
    run_scenario,
)
from uwoclink.modem import (
    OOK,
    PPM4,
    add_noise,
    demodulate,
    modulate,
    ppm4_symbol_error_rate,
    qfunc,
    theoretical_ber,
)

class TestGoodput:
    def test_green_matches_field_measurement(self, green):
        # 100M interface cap * 1500/1538 framing; field value was 97.4 Mbps
        value = goodput_for(green)
        assert value == pytest.approx(100e6 * 1500 / 1538)
        assert value == pytest.approx(97.53e6, abs=0.05e6)
        assert abs(value - 97.4e6) / 97.4e6 < 0.002

    def test_blue_matches_field_measurement(self, blue):
        # line rate * FEC rate * (1 - sync overhead) * framing = 5.50 Mbps
        value = goodput_for(blue)
        assert value == pytest.approx(5.50e6, abs=0.01e6)

    def test_overhead_constant(self):
        assert ETHERNET_OVERHEAD_BYTES == 14 + 4 + 8 + 12

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rates_rejected(self, green, value):
        with pytest.raises(ValueError, match=r"bit_rate_bps must be in \[1e3, 1e11\] b/s"):
            replace(green.modulation, bit_rate_bps=value)

    def test_never_exceeds_cap_times_efficiency(self, green):
        rng = np.random.default_rng(0)
        payload = ETHERNET_PAYLOAD_BYTES
        for _ in range(100):
            line = 10 ** rng.uniform(5, 9)
            spec = replace(green, modulation=replace(green.modulation, bit_rate_bps=line))
            carried = min(ETHERNET_CAP_BPS, line * (1 - SYNC_OVERHEAD_FRACTION))
            assert goodput_for(spec) <= carried * payload / (payload + 38) + 1e-6

    @pytest.mark.parametrize("preset, expected", [("green-125M", 97.5293e6),
                                                  ("blue-6M25", 5.5017e6),
                                                  ("blue-6M25-nlos", 5.5017e6)])
    def test_python_spec_reports_the_preset_goodput(self, preset, expected):
        # the interface was once three LinkSpec fields, and their defaults (no
        # sync share) gave a blue spec built here 5.713 Mb/s against the preset's 5.502
        link = load_preset(preset)
        spec = LinkSpec(name=link.name, tx_power_w=link.tx_power_w,
                        c_db_per_m=link.c_db_per_m, geometry=link.geometry,
                        modulation=link.modulation, budget_db=link.budget_db,
                        fading=link.fading, nlos=link.nlos,
                        snr_offset_db=link.snr_offset_db)
        assert goodput_for(spec) == goodput_for(link) == pytest.approx(expected, abs=100)
        assert spec == link

    def test_port_cap_holds_faster_links(self, green):
        # 125 Mb/s after coding and sync is already past the 100 Mb/s port
        faster = replace(green, modulation=replace(green.modulation, bit_rate_bps=250e6))
        assert goodput_for(faster) == goodput_for(green)
        assert goodput_for(green) == pytest.approx(
            ETHERNET_CAP_BPS * ETHERNET_PAYLOAD_BYTES
            / (ETHERNET_PAYLOAD_BYTES + ETHERNET_OVERHEAD_BYTES))

    def test_links_under_the_cap_scale_with_line_rate(self, blue):
        half = replace(blue, modulation=replace(blue.modulation, bit_rate_bps=3.125e6))
        assert goodput_for(half) == pytest.approx(goodput_for(blue) / 2)
        assert goodput_for(blue) < ETHERNET_CAP_BPS * (1 - SYNC_OVERHEAD_FRACTION)


class TestRunScenario:
    def test_green_quiet_and_clean_over_a_minute(self, green):
        report = run_scenario(green, 60, seed=1)
        assert report.pre_fec_ber < 1e-5
        assert report.post_fec_bit_errors == 0
        assert report.packet_loss_count == 0
        assert max(report.beps_series) < 4

    def test_blue_nlos_bursts_echo_field_log(self, blue_nlos):
        # Deep fades on the bounce path: seconds with tens to hundreds of
        # errors and a handful of lost packets. One 120-s run loses no
        # packet for 13 of seeds 0-29, so this pools eight independent 120-s
        # epochs. With P(no loss in 120 s) = 13/30 all eight lose none with
        # probability (13/30)^8 = 1.2e-3 (0.016 at the one-sided 95 % upper
        # bound 0.60 of 13/30). Every one of the 30 seeds had a second with
        # at least 10 errors (0.095^8 = 7e-9 at the 95 % upper bound of
        # 0/30 for a run without one) and at least 108 quiet seconds.
        # Seed 3 loses 0, 6, 7, 0, 10, 1, 6, 0 packets with 929 quiet seconds
        # of 960, against the threshold 800.
        reports = long_term_monitor(blue_nlos, 8, 120, seed=3)
        beps = [b for r in reports for b in r.beps_series]
        assert sum(r.packet_loss_count for r in reports) > 0
        assert any(b >= 10 for b in beps)
        quiet = sum(1 for b in beps if b == 0)
        assert quiet > len(beps) * 100 / 120  # bursts are the exception, not the rule

    def test_determinism_byte_identical(self, green):
        a = render_report(run_scenario(green, 5, seed=77))
        b = render_report(run_scenario(green, 5, seed=77))
        assert a == b

    def test_different_seeds_differ(self, green):
        a = run_scenario(green, 5, seed=1)
        b = run_scenario(green, 5, seed=2)
        assert a.margin_trace_db != b.margin_trace_db

    def test_beps_sums_to_total(self, blue_nlos):
        report = run_scenario(blue_nlos, 30, seed=5)
        assert sum(report.beps_series) == report.pre_fec_bit_errors
        assert len(report.beps_series) == report.duration_s
        assert len(report.margin_trace_db) == report.duration_s

    def test_post_fec_never_exceeds_pre_fec(self, green, blue, blue_nlos):
        for spec in (green, blue, blue_nlos):
            report = run_scenario(spec, 20, seed=11)
            assert report.post_fec_ber <= report.pre_fec_ber

    def test_margin_trace_matches_static_loss(self, green):
        report = run_scenario(green, 10, seed=8)
        # sigma 0.4 dB fading around the 50.40 dB static margin
        assert all(abs(m - 50.40) < 3.0 for m in report.margin_trace_db)

    def test_counts_consistent(self, green):
        report = run_scenario(green, 5, seed=1)
        assert report.frames_sent == 5 * green.sim_frames_per_second
        assert report.bits_simulated == report.frames_sent * green.codec.frame_bits
        assert report.payload_bits_simulated == \
            report.frames_sent * green.codec.frame_payload_bits

    def test_invalid_duration(self, green):
        with pytest.raises(ValueError):
            run_scenario(green, 0, seed=1)

    @pytest.mark.parametrize("c_db_per_m", [1.0, 4.0])
    def test_link_far_past_its_budget_saturates_every_second(self, green, c_db_per_m):
        # 1 km of water costs 1,000 or 4,000 dB; at 4,000 the received power,
        # under 1e-400 W, is below float range, and in dB its seconds count
        geometry = replace(green.geometry, distance_m=1000.0)
        spec = replace(green, geometry=geometry, c_db_per_m=c_db_per_m)
        report = run_scenario(spec, 5, seed=1)
        assert report.agc_saturated_seconds == report.duration_s == 5


class TestNoWorkerOutlivesARun:
    """A run starts no thread: every slot-chain step runs on the caller's."""

    @pytest.fixture
    def watched(self, monkeypatch):
        """Counts modulate calls and the threads alive at each one."""
        baseline = threading.active_count()
        seen = {"calls": 0, "counts": set()}
        modulate = engine.modem.modulate

        def counting(kind, bits):
            seen["calls"] += 1
            seen["counts"].add(threading.active_count())
            return modulate(kind, bits)

        monkeypatch.setattr(engine.modem, "modulate", counting)
        return baseline, seen

    def test_run_scenario(self, blue_nlos, watched):
        baseline, seen = watched
        run_scenario(blue_nlos, 2, seed=4)
        assert seen["calls"] == 12 and seen["counts"] == {baseline}
        assert threading.active_count() == baseline

    def test_long_term_monitor(self, green, watched):
        baseline, seen = watched
        long_term_monitor(green, 3, 2, seed=6)
        assert seen["calls"] == 36 and seen["counts"] == {baseline}
        assert threading.active_count() == baseline

    def test_run_that_raises(self, blue, monkeypatch):
        baseline = threading.active_count()
        modulate = engine.modem.modulate
        calls = []
        failure = RuntimeError("modulator fault")

        def third_call_raises(kind, bits):
            calls.append(threading.active_count())
            if len(calls) == 3:
                raise failure
            return modulate(kind, bits)

        monkeypatch.setattr(engine.modem, "modulate", third_call_raises)
        with pytest.raises(RuntimeError) as caught:
            run_scenario(blue, 5, seed=2)
        assert caught.value is failure and calls == [baseline] * 3
        assert threading.active_count() == baseline


class TestSlotChain:
    """``modem.flipped_bits`` returns the positions the full modem chain
    flips, re-deciding only the touched slots, and draws what the full chain
    draws."""

    # q = 2 Q(0.5 / sigma), the share of slots past the decision margin:
    # about 1.5e-23, 1e-3, 0.01 and 0.21
    SIGMAS = {"q~0": 0.05, "q~1e-3": 0.5 / 3.29, "sparse": 0.5 / 2.576, "dense": 0.4}
    SEEDS = range(25)

    @staticmethod
    def full_chain(kind, sigma, rng, frame):
        """Positions where demodulate(add_noise(modulate(frame))) differs
        from ``frame``, and the noisy stream."""
        sent = modulate(kind, frame)
        noisy = add_noise(sent, sigma, rng)
        return np.flatnonzero(demodulate(kind, noisy) != frame), sent, noisy

    # odd OOK lengths end in a partial 4-slot group; 4-PPM takes even ones
    CASES = [pytest.param(kind, level, n, id=f"{kind}-{level}-{n}")
             for (kind, n), level in itertools.product(
                 [(OOK, n) for n in (16320, 4001, 4000, 7, 1)]
                 + [(PPM4, n) for n in (16320, 4000, 2)], SIGMAS)]

    @pytest.mark.parametrize(("kind", "level", "n_bits"), CASES)
    def test_matches_the_full_chain(self, kind, level, n_bits):
        sigma = self.SIGMAS[level]
        q = 2.0 * qfunc(0.5 / sigma)
        assert {"q~0": q < 1e-20, "q~1e-3": 9e-4 <= q <= 1.1e-3,
                "sparse": 1e-4 <= q <= 0.04, "dense": q > 0.04}[level]
        frame = np.random.default_rng(71).integers(0, 2, n_bits, dtype=np.uint8)
        for seed in self.SEEDS:
            g1, g2 = np.random.default_rng(seed), np.random.default_rng(seed)
            got = engine.modem.flipped_bits(kind, sigma, g1, frame)
            expected, sent, noisy = self.full_chain(kind, sigma, g2, frame)
            assert got.dtype.kind == "i" and np.array_equal(got, expected)
            assert g1.bit_generator.state == g2.bit_generator.state
            if level == "q~0":
                assert noisy is sent
            if noisy is sent:
                assert got.size == 0
            else:
                assert (noisy.touched is None) == (level == "dense")

    def test_demodulates_exactly_the_touched_frames(self, blue_nlos, monkeypatch):
        events = []
        add_noise_, demodulate_ = engine.modem.add_noise, engine.modem.demodulate

        def noting_noise(stream, sigma, rng):
            noisy = add_noise_(stream, sigma, rng)
            events.append("touched" if noisy is not stream else "untouched")
            return noisy

        def noting_demodulate(kind, stream):
            events.append("demodulate")
            return demodulate_(kind, stream)

        monkeypatch.setattr(engine.modem, "add_noise", noting_noise)
        monkeypatch.setattr(engine.modem, "demodulate", noting_demodulate)
        report = run_scenario(blue_nlos, 10, seed=4)
        touched, untouched = events.count("touched"), events.count("untouched")
        assert touched and untouched
        assert touched + untouched == report.frames_sent
        expected = []
        for event in events:
            if event != "demodulate":
                expected += [event] + ["demodulate"] * (event == "touched")
        assert events == expected


def full_chain_bits(kind, sigma, noise, frame):
    """The received frame: demodulate(add_noise(modulate(frame)))."""
    return demodulate(kind, add_noise(modulate(kind, frame), sigma, noise))


def full_slot_channel(spec):
    """``_slot_channel``'s fading and AGC, with every frame through the full
    modem chain."""
    def channel(rng, log):
        for chain in engine._slot_channel(spec, rng, log):
            yield partial(full_chain_bits, *chain.args)

    return channel


def full_flip_channel(ber):
    """Each line bit flipped i.i.d. on a copy of the frame."""
    def channel(rng, log):
        def flip(frame):
            flipped = frame.copy()
            if ber:
                flipped[rng.choice(len(frame), rng.binomial(len(frame), ber),
                                   replace=False)] ^= 1
            return flipped

        yield from itertools.repeat(flip)

    return channel


def reference_simulate(spec, seed, n_frames, channel):
    """The frame loop as it was before error sources returned positions:
    each received frame is compared whole with the sent one, and each
    decoded payload with the sent payload."""
    rng = np.random.default_rng(seed)
    codec = spec.codec
    payload_bytes = -(-codec.frame_payload_bits // 8)
    fps = spec.sim_frames_per_second
    log = engine._AnalogLog()
    seconds = channel(rng, log)
    beps, losses, post_errors, failures = [], [], 0, 0
    for start in range(0, n_frames, fps):
        corrupt = next(seconds)
        errors = lost = 0
        for _ in range(min(fps, n_frames - start)):
            payload = np.unpackbits(rng.integers(0, 256, payload_bytes, dtype=np.uint8),
                                    count=codec.frame_payload_bits)
            frame = codec.encode(payload)
            received = corrupt(frame)
            errors += int(np.count_nonzero(received != frame))
            outcome = codec.decode(received)
            wrong = int(np.count_nonzero(outcome.message_bits != payload))
            post_errors += wrong
            failures += int(outcome.failed)
            lost += int(bool(outcome.failed) or wrong > 0)
        beps.append(errors)
        losses.append(lost)
    bits, payload_bits = n_frames * codec.frame_bits, n_frames * codec.frame_payload_bits
    return engine.SimReport(
        name=spec.name, seed=seed, config_hash=spec.fingerprint(),
        duration_s=len(beps), frames_sent=n_frames, bits_simulated=bits,
        payload_bits_simulated=payload_bits, pre_fec_bit_errors=sum(beps),
        pre_fec_ber=sum(beps) / bits, post_fec_bit_errors=post_errors,
        post_fec_ber=post_errors / payload_bits, packet_loss_count=sum(losses),
        decode_failures=failures, goodput_bps=goodput_for(spec),
        agc_saturated_seconds=log.saturated_seconds,
        link_dark_seconds=log.dark_seconds, beps_series=tuple(beps),
        loss_series=tuple(losses), margin_trace_db=tuple(log.margins))


@pytest.fixture
def decode_rows(monkeypatch):
    """The frame count of every ``ConcatCodecSpec.decode`` call."""
    rows = []
    decode = ConcatCodecSpec.decode

    def counting(codec, frames):
        rows.append(len(frames))
        return decode(codec, frames)

    monkeypatch.setattr(ConcatCodecSpec, "decode", counting)
    return rows


def scripted_channel(seconds):
    """An error source per second that flips, in its i-th frame, the line
    bits listed at ``seconds[s][i]``."""
    def channel(rng, log):
        for flips in seconds:
            frames = iter(flips)
            yield lambda frame, frames=frames: np.asarray(next(frames), dtype=np.intp)

    return channel


class TestFullChainOracle:
    """``run_scenario`` and ``inject_errors_run`` report what a loop that
    passes whole frames through the full chain and compares them whole
    reports. In 30 s, green flips a few bits, blue-6M25 none, and
    blue-6M25-nlos hundreds, losing one frame on seed 4."""

    SECONDS = 30

    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize("preset", ["green-125M", "blue-6M25", "blue-6M25-nlos"])
    def test_run_scenario(self, preset, seed):
        spec = load_preset(preset)
        report = run_scenario(spec, self.SECONDS, seed)
        n_frames = self.SECONDS * spec.sim_frames_per_second
        assert report == reference_simulate(spec, seed, n_frames, full_slot_channel(spec))
        if preset == "blue-6M25-nlos":
            assert report.pre_fec_bit_errors > 0

    def test_inject_errors_run(self, green):
        report = inject_errors_run(green, 3e-3, 40 * green.codec.frame_bits, seed=5)
        assert report.decode_failures > 0 and report.packet_loss_count < report.frames_sent
        assert report == reference_simulate(green, 5, 40, full_flip_channel(3e-3))

    def test_inject_errors_run_with_clean_frames(self, green, decode_rows):
        # at 1e-4 a frame holds Poisson(1.6) flips: about a fifth are clean,
        # so the decoder sees only some of the frames
        report = inject_errors_run(green, 1e-4, 60 * green.codec.frame_bits, seed=6)
        assert 0 < sum(decode_rows) < report.frames_sent
        assert report == reference_simulate(green, 6, 60, full_flip_channel(1e-4))


class TestErrorDistribution:
    """Pre-FEC errors of ``run_scenario`` follow the slot-noise model exactly.

    Fading is off and ``snr_offset_db`` puts the line BER near 3e-3, so a
    run's error count has a known law. OOK errs on each line bit
    independently with probability Q(snr/2), a binomial. A 4-PPM symbol errs
    with probability SER, and by symmetry of i.i.d. slot noise the wrong slot
    is uniform over the other three, so it costs 1 bit (XOR 01 or 10) with
    probability 2/3 and 2 bits (XOR 11) with probability 1/3: per symbol the
    mean is 4/3 SER and the variance 2 SER - (16/9) SER^2. Bernstein's
    inequality for a sum of independent terms within 2 of their means bounds
    that sum. Each bound is two-sided at a false-alarm probability of 1e-9.

    Each modem's run is sized so that a slot sigma off by ``SIGMA_BIAS``
    either way fails it. Sigma is 1 / snr, so the biased law is the law at
    snr / 1.01 or snr * 1.01. Its mean count must lie past the bound by
    z(POWER) = 3.09 of its own standard deviations; a count of thousands of
    errors is near normal, so such a bias passes with probability under
    1 - POWER. With z(alpha / 2) = 6.11, a 1 % bias moves the OOK BER by
    8.6 % up and 8.1 % down, and the count needs 43 s (4.2e6 line bits);
    it moves the 4-PPM SER by 9.6 % up and 8.9 % down, and Bernstein's
    wider bound needs 59 s.
    """

    ALPHA = 1e-9
    POWER = 0.999
    SIGMA_BIAS = 1.01
    TARGET_BER = 3e-3

    def at_target(self, spec):
        """``spec`` with the ``snr_offset_db`` that puts its unfaded line BER
        at ``TARGET_BER``, and the amplitude SNR it runs at unfaded."""
        kind = spec.modulation.kind
        lo, hi = 1.0, 100.0  # amplitude SNRs bracketing TARGET_BER
        for _ in range(100):
            mid = math.sqrt(lo * hi)
            lo, hi = (mid, hi) if theoretical_ber(kind, mid) > self.TARGET_BER else (lo, mid)
        margin = spec.budget_db - total_loss_db(spec.geometry, spec.c_db_per_m,
                                                spec.nlos).total_db
        return replace(spec, snr_offset_db=20.0 * math.log10(lo) - margin), lo

    def flat_spec(self, spec):
        """``spec`` without fading, and the amplitude SNR it runs at."""
        return self.at_target(replace(spec, fading=FadingSpec()))

    @staticmethod
    def ook_law(snr, bits):
        """Mean and variance of the OOK error count over ``bits`` line bits."""
        p = theoretical_ber(OOK, snr)
        return bits * p, bits * p * (1.0 - p)

    @staticmethod
    def ppm4_law(snr, bits):
        """Mean and variance of the 4-PPM error count over ``bits`` line bits."""
        ser = ppm4_symbol_error_rate(snr)
        symbols = bits // 2
        return symbols * 4.0 / 3.0 * ser, symbols * (2.0 * ser - 16.0 / 9.0 * ser * ser)

    def ook_bounds(self, snr, bits):
        p = theoretical_ber(OOK, snr)
        return binom.ppf(self.ALPHA / 2, bits, p), binom.isf(self.ALPHA / 2, bits, p)

    def bernstein_bounds(self, mean, variance):
        # P(|S - mean| >= t) <= alpha when t^2 = 2 L (variance + 2 t / 3),
        # L = ln(2 / alpha): Bernstein with terms within 2 of their means
        log_term = math.log(2.0 / self.ALPHA)
        t = 2.0 * log_term / 3.0 + math.sqrt((2.0 * log_term / 3.0) ** 2
                                             + 2.0 * log_term * variance)
        return mean - t, mean + t

    def ppm4_bounds(self, snr, bits):
        return self.bernstein_bounds(*self.ppm4_law(snr, bits))

    def seconds_to_see_bias(self, spec, snr, law, bounds):
        """The fewest seconds whose bound a biased sigma's mean count passes
        by z(POWER) of its standard deviations, either way."""
        z_power = norm.isf(1.0 - self.POWER)
        bits_per_second = spec.sim_frames_per_second * spec.codec.frame_bits
        for seconds in itertools.count(1):
            bits = seconds * bits_per_second
            low, high = bounds(snr, bits)
            up_mean, up_var = law(snr / self.SIGMA_BIAS, bits)
            down_mean, down_var = law(snr * self.SIGMA_BIAS, bits)
            if (up_mean - z_power * math.sqrt(up_var) > high
                    and down_mean + z_power * math.sqrt(down_var) < low):
                return seconds

    def errors_in_bounds(self, spec, law, bounds, seed=17):
        spec, snr = self.flat_spec(spec)
        seconds = self.seconds_to_see_bias(spec, snr, law, bounds)
        assert seconds <= 60  # the sizes the docstring gives, well under a second each
        report = run_scenario(spec, seconds, seed)
        assert len(set(report.margin_trace_db)) == 1
        snr = margin_to_snr(report.margin_trace_db[0], spec.snr_offset_db)
        assert 1e-3 <= theoretical_ber(spec.modulation.kind, snr) <= 1e-2
        low, high = bounds(snr, report.bits_simulated)
        return low <= report.pre_fec_bit_errors <= high

    def test_ook_errors_are_binomial(self, green):
        assert green.modulation.kind == OOK
        assert self.errors_in_bounds(green, self.ook_law, self.ook_bounds)

    def test_ppm4_errors_follow_symbol_law(self, blue):
        assert blue.modulation.kind == PPM4
        assert self.errors_in_bounds(blue, self.ppm4_law, self.ppm4_bounds)

    @pytest.mark.parametrize("preset, seconds", [("green-125M", 60),
                                                 ("blue-6M25-nlos", 120)])
    def test_errors_follow_the_fading_trace(self, preset, seconds):
        """The margin path with the preset's own fading: given the run's
        ``margin_trace_db``, second i runs at amplitude SNR
        10^((m_i + snr_offset_db) / 20), and the errors of the seconds are
        independent, so their count has the summed per-second means and
        variances. Its Bernstein bound is two-sided at ``ALPHA``; the run is
        long enough that a slot sigma off by ``SIGMA_BIAS`` either way moves
        the mean past it by z(POWER) of its standard deviations."""
        spec, _ = self.at_target(load_preset(preset))
        assert spec.fading.sigma_db > 0
        law = self.ook_law if spec.modulation.kind == OOK else self.ppm4_law
        report = run_scenario(spec, seconds, seed=17)
        assert len(set(report.margin_trace_db)) == seconds
        bits = spec.sim_frames_per_second * spec.codec.frame_bits

        def summed_law(bias):
            laws = [law(10.0 ** ((m + spec.snr_offset_db) / 20.0) / bias, bits)
                    for m in report.margin_trace_db]
            return sum(mean for mean, _ in laws), sum(var for _, var in laws)

        low, high = self.bernstein_bounds(*summed_law(1.0))
        z_power = norm.isf(1.0 - self.POWER)
        up_mean, up_var = summed_law(self.SIGMA_BIAS)
        down_mean, down_var = summed_law(1.0 / self.SIGMA_BIAS)
        assert up_mean - z_power * math.sqrt(up_var) > high
        assert down_mean + z_power * math.sqrt(down_var) < low
        assert low <= report.pre_fec_bit_errors <= high


class TestDecodeBatches:
    """Each simulated second makes one ``decode`` call, on its flipped frames
    only (none, when none flipped)."""

    def test_only_flipped_frames_are_decoded(self, green, decode_rows):
        # one flip on frames 1 and 4 of each second
        flips = [[0] if i in (1, 4) else [] for i in range(6)]
        engine._simulate(green, 0, 18, scripted_channel([flips] * 3))
        assert decode_rows == [2, 2, 2]

    def test_a_clean_second_decodes_no_frame(self, green, decode_rows):
        report = run_scenario(green, 3, seed=1)
        assert report.pre_fec_bit_errors == 0
        assert decode_rows == [0, 0, 0]
        decode_rows.clear()
        # 50 frames at 6 per second: the last of the 9 seconds holds 2 frames
        inject_errors_run(green, 1e-3, 50 * 16320, seed=2)
        assert decode_rows == [6] * 8 + [2]

    @pytest.mark.parametrize("preset", ["green-125M", "blue-6M25", "blue-6M25-nlos"])
    def test_one_call_per_simulated_second(self, preset, decode_rows):
        run_scenario(load_preset(preset), 5, seed=3)
        assert len(decode_rows) == 5
        assert all(rows <= 6 for rows in decode_rows)

    def test_the_frame_clock_is_not_a_field(self, green):
        assert green.sim_frames_per_second == 6
        assert "sim_frames_per_second" not in {f.name for f in fields(green)}
        with pytest.raises(TypeError):
            replace(green, sim_frames_per_second=7)


class TestLossTally:
    """A frame is lost when its decode fails or its payload comes out
    wrong; each alone counts."""

    @staticmethod
    def miscorrecting_flips(codec):
        # the flips form a codeword, so the received frame is another
        # codeword: it decodes clean, to its payload XOR p, 3 bits wrong
        p = np.zeros(codec.frame_payload_bits, dtype=np.uint8)
        p[[5, 900, 7000]] = 1
        return np.flatnonzero(codec.encode(p))

    @staticmethod
    def failing_flips(codec):
        # 30 flips in inner word 0's parity bits: the word fails, and its
        # message bits, with the outer words they feed, pass through intact
        errors = np.zeros(codec.frame_bits, dtype=np.uint8)
        errors[codec.inner.k:codec.inner.k + 30] = 1
        return np.flatnonzero(interleave(errors, codec.interleaver_depth))

    def run(self, spec, flips):
        # 12 frames, two seconds of green, each with the same line-bit flips
        return engine._simulate(spec, 0, 12, scripted_channel([[flips] * 6] * 2))

    def test_miscorrected_frame_is_lost(self, green):
        report = self.run(green, self.miscorrecting_flips(green.codec))
        assert report.decode_failures == 0
        assert report.packet_loss_count == 12
        assert report.post_fec_bit_errors == 12 * 3

    def test_failed_frame_with_a_right_payload_is_lost(self, green):
        report = self.run(green, self.failing_flips(green.codec))
        assert report.decode_failures == 12
        assert report.packet_loss_count == 12
        assert report.post_fec_bit_errors == 0

    def test_mixed_second_is_tallied_frame_by_frame(self, green):
        # clean, corrected, miscorrecting and failing frames interleaved in
        # each second: the flipped ones are packed into the leading rows of
        # the batch, and each clean one is overwritten by the next frame
        clean, one = [], [7]
        mis, fail = self.miscorrecting_flips(green.codec), self.failing_flips(green.codec)
        seconds = [[clean, mis, fail, clean, one, mis],
                   [fail, clean, clean, one, clean, mis],
                   [clean] * 6,
                   [mis, mis, one, fail, fail, clean]]
        report = engine._simulate(green, 0, 24, scripted_channel(seconds))
        assert report.beps_series == tuple(sum(len(f) for f in s) for s in seconds)
        assert report.loss_series == (3, 2, 0, 4)
        assert report.decode_failures == 4
        assert report.post_fec_bit_errors == 5 * 3


class TestInjectErrors:
    @pytest.mark.parametrize("n_bits", [0, -1])
    def test_no_line_bits_rejected(self, green, n_bits):
        with pytest.raises(ValueError, match="n_bits must be > 0"):
            inject_errors_run(green, 1e-3, n_bits, seed=0)

    def test_zero_target_is_error_free(self, green):
        report = inject_errors_run(green, 0.0, 10 * 16320, seed=0)
        assert report.pre_fec_bit_errors == 0
        assert report.post_fec_bit_errors == 0
        assert report.packet_loss_count == 0

    def test_low_rate_is_fully_corrected(self, green):
        report = inject_errors_run(green, 1e-5, 5_000_000, seed=1)
        assert report.pre_fec_bit_errors > 0
        assert report.post_fec_bit_errors == 0
        assert report.decode_failures == 0

    def test_saturating_rate_reports_failures(self, green):
        report = inject_errors_run(green, 1e-2, 50 * 16320, seed=2)
        assert report.post_fec_bit_errors > 0
        assert report.decode_failures > 0
        assert report.packet_loss_count > 0
        # 50 frames at 6 per second: the last of the 9 seconds holds 2 frames
        fps = green.sim_frames_per_second
        assert report.frames_sent % fps != 0
        assert len(report.beps_series) == math.ceil(report.frames_sent / fps)
        assert report.duration_s == len(report.loss_series) == len(report.beps_series)
        assert sum(report.beps_series) == report.pre_fec_bit_errors
        assert sum(report.loss_series) == report.packet_loss_count

    def test_target_rate_reproduced(self, green):
        report = inject_errors_run(green, 1e-3, 100 * 16320, seed=3)
        assert report.pre_fec_ber == pytest.approx(1e-3, rel=0.1)

    def test_invalid_target(self, green):
        with pytest.raises(ValueError):
            inject_errors_run(green, 0.6, 16320)

    def test_flips_land_uniformly(self, green):
        # after deinterleaving, each inner word's flip count is Bin(n, p),
        # and along the line frame the flips spread evenly
        codec, p = green.codec, 1e-3
        flip = next(engine._flip_channel(p, np.random.default_rng(19), engine._AnalogLog()))
        frame = np.zeros(codec.frame_bits, dtype=np.uint8)
        draws = [flip(frame) for _ in range(200)]
        flips = np.zeros((len(draws), codec.frame_bits), dtype=np.uint8)
        for row, positions in zip(flips, draws):
            # ascending, hence distinct, and inside the frame
            assert positions.dtype.kind == "i" and np.all(np.diff(positions) > 0)
            assert positions.size == 0 or 0 <= positions[0] <= positions[-1] < codec.frame_bits
            row[positions] = 1
        counts = np.concatenate([
            deinterleave(f, codec.interleaver_depth)
            .reshape(codec.inner_words_per_frame, codec.inner.n).sum(axis=1)
            for f in flips])
        # cells 0..5 and 6 or more, each expecting at least 5 of 1,600 words
        observed = np.bincount(np.minimum(counts, 6), minlength=7)
        expected = binom.pmf(np.arange(7), codec.inner.n, p)
        expected[6] = binom.sf(5, codec.inner.n, p)
        assert chisquare(observed, expected * len(counts)).pvalue > 1e-9
        positions = np.concatenate(draws)
        bins = np.bincount(positions * 16 // codec.frame_bits, minlength=16)
        assert chisquare(bins).pvalue > 1e-9

    def test_zero_rate_draws_nothing(self, green):
        rng = np.random.default_rng(23)
        state = rng.bit_generator.state
        flip = next(engine._flip_channel(0.0, rng, engine._AnalogLog()))
        frame = green.codec.encode(np.ones(green.codec.frame_payload_bits, dtype=np.uint8))
        positions = flip(frame)
        assert positions.size == 0 and positions.dtype.kind == "i"
        assert rng.bit_generator.state == state


class TestFlipChannelLaw:
    """``inject_errors_run`` flips line bits i.i.d. at its target rate, and
    the flips fall evenly on the inner words.

    Each frame draws Bin(16,320, p) flips, independently, so a run of N line
    bits counts Bin(N, p). The bound is two-sided at a false-alarm
    probability of 1e-9, z(alpha / 2) = 6.11. A rate off by ``RATE_BIAS``
    either way must put its mean count past the bound by z(POWER) = 3.09 of
    its own standard deviations, so such a bias passes with probability
    under 1 - POWER. At p = 0.2 the bias moves the mean by 0.02 Np up and
    0.0196 Np down, against about 6.11 sqrt(Np(1 - p)) + 3.09 sqrt(Np'(1 - p')):
    the run needs N >= 8.77e5 line bits, 54 frames or 9 s, about 1.76e5 flips,
    where the bound is +-1.3 % of the mean. ``TestInjectErrors`` allows +-10 %.

    Channel bit j belongs to inner word j mod 8, and each word holds 2,040 of
    a frame's 16,320 bits, so uniform positions give the 8 words equal
    expected counts: a chi-square test at 7 degrees of freedom, same alpha.
    """

    ALPHA = 1e-9
    POWER = 0.999
    RATE_BIAS = 1.02
    BER = 0.2

    def bounds(self, bits):
        return (binom.ppf(self.ALPHA / 2, bits, self.BER),
                binom.isf(self.ALPHA / 2, bits, self.BER))

    def seconds_to_see_bias(self, spec):
        """The fewest seconds whose bound a biased rate's mean count passes
        by z(POWER) of its standard deviations, either way."""
        z_power = norm.isf(1.0 - self.POWER)
        bits_per_second = spec.sim_frames_per_second * spec.codec.frame_bits
        for seconds in itertools.count(1):
            bits = seconds * bits_per_second
            low, high = self.bounds(bits)
            up, down = self.BER * self.RATE_BIAS, self.BER / self.RATE_BIAS
            if (bits * up - z_power * math.sqrt(bits * up * (1.0 - up)) > high
                    and bits * down + z_power * math.sqrt(bits * down * (1.0 - down)) < low):
                return seconds

    def run(self, spec, monkeypatch):
        """A sized run at ``BER``, with the positions each frame flipped."""
        seconds = self.seconds_to_see_bias(spec)
        assert seconds == 9  # the size the docstring gives
        positions, flip_channel = [], engine._flip_channel

        def recording(ber, rng, log):
            for flip in flip_channel(ber, rng, log):
                yield lambda frame, flip=flip: positions.append(flip(frame)) or positions[-1]

        monkeypatch.setattr(engine, "_flip_channel", recording)
        bits = seconds * spec.sim_frames_per_second * spec.codec.frame_bits
        report = inject_errors_run(spec, self.BER, bits, seed=29)
        assert report.bits_simulated == bits and len(positions) == report.frames_sent
        return report, np.concatenate(positions)

    def test_error_count_is_binomial(self, green, monkeypatch):
        report, positions = self.run(green, monkeypatch)
        assert report.pre_fec_bit_errors == positions.size
        low, high = self.bounds(report.bits_simulated)
        assert low <= report.pre_fec_bit_errors <= high

    def test_flips_spread_evenly_over_inner_words(self, green, monkeypatch):
        _, positions = self.run(green, monkeypatch)
        depth = green.codec.interleaver_depth
        assert depth == green.codec.inner_words_per_frame == 8
        per_word = np.bincount(positions % depth, minlength=depth)
        assert chisquare(per_word).pvalue > self.ALPHA


class TestLongTermMonitor:
    def test_single_epoch_reduces_to_run_scenario(self, green):
        reports = long_term_monitor(green, 1, 5, seed=21)
        direct = run_scenario(green, 5, epoch_seed(21, 0))
        assert render_report(reports[0]) == render_report(direct)

    def test_epochs_independent_of_ordering(self, green):
        reports = long_term_monitor(green, 4, 3, seed=33)
        for i in (2, 0, 3, 1):
            again = run_scenario(green, 3, epoch_seed(33, i))
            assert render_report(again) == render_report(reports[i])

    def test_green_epochs_stay_below_1e5(self, green):
        reports = long_term_monitor(green, 10, 10, seed=42)
        assert all(r.pre_fec_ber < 1e-5 for r in reports)

    def test_epoch_seeds_unique(self):
        seeds = {epoch_seed(7, i) for i in range(100)}
        assert len(seeds) == 100

    def test_invalid_epochs(self, green):
        with pytest.raises(ValueError):
            long_term_monitor(green, 0, 5, seed=1)


class TestReportShape:
    def test_json_roundtrip(self, green):
        report = run_scenario(green, 3, seed=9)
        parsed = json.loads(render_report(report))
        assert parsed["name"] == "green-125M"
        assert parsed["seed"] == 9
        assert parsed["config_hash"] == green.fingerprint()
        assert parsed["beps_series"] == list(report.beps_series)

    def test_goodput_in_report(self, green):
        report = run_scenario(green, 3, seed=9)
        assert report.goodput_bps == goodput_for(green)


class TestGoldenDigests:
    """Seeded reports pinned by ``sha256(json.dumps(to_dict, sort_keys))[:16]``
    with ``config_hash`` left out, and each preset's ``config_hash`` pinned
    apart.

    The digests pin this numpy RNG stream (numpy 2.4.6) as well as the
    program: a speed-up that changes no output keeps them. Scenario runs take
    their slot noise from a stream spawned from the seed, and their fading
    and payloads from the seed's own stream. A change that alters the stream
    on purpose, such as drawing only the slot noise and flips a decision can
    see, updates them and says so in CHANGES.md. The hash is a digest of
    the rendered scenario text, so adding or removing a config key moves
    only the hash pins. The injection runs have 43 decode failures in 123 frames (an
    inner word of 2,040 bits holds more than t = 10 flips at 3e-3 with
    probability 0.048, so about 40 +- 5 frames of 123 fail), so they cover
    failed inner words and the outer words tainted by them.
    """

    PRESETS = ["green-125M", "blue-6M25", "blue-6M25-nlos"]
    # the message of each assert on a seeded stream
    NUMPY = f"pins made with numpy 2.4.6, running numpy {np.__version__}"
    CONFIG_HASHES = {
        "green-125M": "a26619d1719534bc",
        "blue-6M25": "1b4fc2aa1bb6f393",
        "blue-6M25-nlos": "bc29a80fa27650a3",
    }
    SCENARIO_DIGESTS = {
        "green-125M": "ee0c8e8124f291d9",
        "blue-6M25": "b7a555da7919a49a",
        "blue-6M25-nlos": "4a532625e71c9b07",
    }
    INJECTION_DIGESTS = {
        "green-125M": "1daaca94b8d8f41d",
        "blue-6M25": "bf4051d5f50340e1",
        "blue-6M25-nlos": "ff01ca164887918b",
    }

    def digest(self, preset, report):
        fields = report.to_dict()
        assert fields.pop("config_hash") == self.CONFIG_HASHES[preset]
        text = json.dumps(fields, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    @pytest.mark.parametrize("preset", PRESETS)
    def test_config_hash(self, preset):
        assert load_preset(preset).fingerprint() == self.CONFIG_HASHES[preset]

    @pytest.mark.parametrize("preset", PRESETS)
    def test_scenario_digest(self, preset):
        report = run_scenario(load_preset(preset), 20, 3)
        assert self.digest(preset, report) == self.SCENARIO_DIGESTS[preset], self.NUMPY

    @pytest.mark.parametrize("preset", PRESETS)
    def test_injection_digest(self, preset):
        report = inject_errors_run(load_preset(preset), 3e-3, 2_000_000, 5)
        assert report.decode_failures == 43 and report.frames_sent == 123, self.NUMPY
        assert self.digest(preset, report) == self.INJECTION_DIGESTS[preset], self.NUMPY

    # each command's output with its config_hash value cut out; the fec
    # blocks are one seeded frame with 30 scattered flips, which the inner
    # code corrects, and one with 2 % flips, which fails
    COMMAND_DIGESTS = {
        "plan-json": "9a244bdeefacd72a",
        "plan-csv": "cbb2769086ff50a4",
        "monitor": "fb389b0a0d3d83f5",
        "fec-encode": "63be49d71ec4d217",
        "fec-decode": "0da6cb126d535763",
    }
    COMMANDS = {
        "plan-json": ["plan", "--preset", "green-125M"],
        "plan-csv": ["plan", "--preset", "green-125M", "--format", "csv"],
        "monitor": ["monitor", "--preset", "blue-6M25-nlos", "--epochs", "3",
                    "--duration-s", "5", "--seed", "42"],
        "fec-encode": ["fec", "encode", "--code", "concat"],
        "fec-decode": ["fec", "decode", "--code", "concat"],
    }

    def fec_blocks(self, codec, action):
        rng = np.random.default_rng(11)
        payloads = rng.integers(0, 2, (2, codec.frame_payload_bits), dtype=np.uint8)
        if action == "encode":
            return payloads
        frames = np.array([codec.encode(p) for p in payloads])
        frames[0, rng.choice(codec.frame_bits, 30, replace=False)] ^= 1
        frames[1] ^= (rng.random(codec.frame_bits) < 0.02).astype(np.uint8)
        return frames

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_command_digest(self, command, monkeypatch, capsys, codec):
        argv = self.COMMANDS[command]
        if argv[0] == "fec":
            blocks = self.fec_blocks(codec, argv[1])
            stdin = "".join(_bits_to_hex(b) + "\n" for b in blocks)
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        status = main(argv)
        captured = capsys.readouterr()
        text = f"{status}\n{captured.out}\n{captured.err}"
        text = re.sub(r"(config_hash\W+)[0-9a-f]{16}", r"\1", text)
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        assert digest == self.COMMAND_DIGESTS[command], self.NUMPY
