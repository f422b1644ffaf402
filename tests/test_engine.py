import hashlib
import json
import math

import numpy as np
import pytest

from uwoclink.cli import render_report
from uwoclink.config import load_preset
from uwoclink.engine import (
    ETHERNET_OVERHEAD_BYTES,
    epoch_seed,
    goodput_bps,
    goodput_for,
    inject_errors_run,
    long_term_monitor,
    run_scenario,
)

RATE = (1930 / 2040) * (3824 / 3860)


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

    def test_zero_line_rate(self):
        assert goodput_bps(0.0, RATE, 0.0, 100e6) == 0.0

    def test_overhead_constant(self):
        assert ETHERNET_OVERHEAD_BYTES == 14 + 4 + 8 + 12

    def test_payload_bounds(self):
        with pytest.raises(ValueError):
            goodput_bps(1e6, RATE, 0.0, 100e6, frame_payload_bytes=45)
        with pytest.raises(ValueError):
            goodput_bps(1e6, RATE, 0.0, 100e6, frame_payload_bytes=1501)

    def test_never_exceeds_cap_times_efficiency(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            line = 10 ** rng.uniform(5, 9)
            cap = 10 ** rng.uniform(5, 9)
            sync = rng.uniform(0.0, 0.3)
            payload = int(rng.integers(46, 1501))
            value = goodput_bps(line, RATE, sync, cap, payload)
            ceiling = min(cap, line) * payload / (payload + 38)
            assert value <= ceiling + 1e-6

    def test_small_frames_cost_throughput(self):
        big = goodput_bps(125e6, RATE, 0.0, 100e6, 1500)
        small = goodput_bps(125e6, RATE, 0.0, 100e6, 64)
        assert small < big


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
        # packet for 8 of seeds 0-29, so this pools four independent 120-s
        # epochs. With P(no loss in 120 s) = 8/30 all four lose none with
        # probability (8/30)^4 = 5e-3 (0.034 at the one-sided 95 % upper
        # bound 0.43 of 8/30). No second reaches 10 errors for 1 of the 30
        # seeds, (1/30)^4 = 1e-6; every seed had at least 113 quiet seconds.
        reports = long_term_monitor(blue_nlos, 4, 120, seed=3)
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


class TestInjectErrors:
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
    """Seeded reports pinned by ``sha256(json.dumps(to_dict, sort_keys))[:16]``.

    The digests pin this numpy RNG stream (numpy 2.4.6) as well as the
    program: a speed-up that changes no output keeps them. A change that
    alters the stream on purpose, such as drawing per-frame error patterns
    instead of slots, updates them and says so in CHANGES.md. The injection
    runs have 32 decode failures in 123 frames, so they cover failed inner
    words and the outer words tainted by them.
    """

    @staticmethod
    def digest(report):
        text = json.dumps(report.to_dict(), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    @pytest.mark.parametrize("preset, expected", [
        ("green-125M", "8310caff4bd60ffa"),
        ("blue-6M25", "be7d215165bfdc96"),
        ("blue-6M25-nlos", "f73a5a788f9e7b4c"),
    ])
    def test_scenario_digest(self, preset, expected):
        assert self.digest(run_scenario(load_preset(preset), 20, 3)) == expected

    @pytest.mark.parametrize("preset, expected", [
        ("green-125M", "3f66aab55c7e2c45"),
        ("blue-6M25", "3beb6c81baa840d2"),
        ("blue-6M25-nlos", "981beab6a358931d"),
    ])
    def test_injection_digest(self, preset, expected):
        report = inject_errors_run(load_preset(preset), 3e-3, 2_000_000, 5)
        assert report.decode_failures == 32 and report.frames_sent == 123
        assert self.digest(report) == expected
