"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion (add ``-s`` to see the summary prints).
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from uwoclink import agc
from uwoclink.channel import LinkGeometry, spot_diameter_m
from uwoclink.cli import main, render_report
from uwoclink.engine import (
    goodput_for,
    inject_errors_run,
    long_term_monitor,
    run_scenario,
)
from uwoclink.fec import STATUS_OK
from uwoclink.modem import OOK, theoretical_ber
from uwoclink.planner import max_distance_m

SEED = 42


def report(line: str):
    print(f"ACCEPTANCE {line}")


def test_c01_range_without_geometry(green, blue, capsys):
    t0 = time.perf_counter()
    sol_g = max_distance_m(green.budget_db, green.c_db_per_m)
    sol_b = max_distance_m(blue.budget_db, blue.c_db_per_m)
    elapsed = time.perf_counter() - t0
    assert abs(sol_g.max_distance_m - 231.6) / 231.6 < 0.005
    assert abs(sol_b.max_distance_m - 337.5) / 337.5 < 0.005
    # the full CLI path must also answer in under a second
    t0 = time.perf_counter()
    rc = main(["plan", "--preset", "green-125M"])
    cli_elapsed = time.perf_counter() - t0
    capsys.readouterr()
    assert rc == 0
    assert elapsed < 1.0 and cli_elapsed < 1.0
    report(f"C1 range-no-geometry: green {sol_g.max_distance_m:.1f} m, "
           f"blue {sol_b.max_distance_m:.1f} m ({cli_elapsed*1e3:.0f} ms) PASS")


def test_c02_range_with_calibrated_k(green, blue):
    geo_g = LinkGeometry(30.0, 0.53, 0.0, 0.046, k_override_m2=1.198)
    geo_b = LinkGeometry(30.0, 3.83, 0.0, 0.008, k_override_m2=9.67e-3)
    sol_g = max_distance_m(green.budget_db, green.c_db_per_m, geo_g)
    sol_b = max_distance_m(blue.budget_db, blue.c_db_per_m, geo_b)
    assert abs(sol_g.max_distance_m - 117.7) / 117.7 < 0.001
    assert abs(sol_b.max_distance_m - 128.3) / 128.3 < 0.001
    report(f"C2 range-calibrated-k: green {sol_g.max_distance_m:.2f} m, "
           f"blue {sol_b.max_distance_m:.2f} m PASS")


def test_c03_green_spot_size(green):
    spot = spot_diameter_m(green.geometry)
    assert abs(spot - 0.55) / 0.55 < 0.02
    assert spot == pytest.approx(0.555, abs=1e-3)
    report(f"C3 spot-size: {spot:.4f} m at 30 m PASS")


def test_c04_fec_corrects_up_to_t(codec, bch15_7):
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    for code in (codec.inner, codec.outer):
        for _ in range(10_000):
            msg = rng.integers(0, 2, code.k).astype(np.uint8)
            word = code.encode(msg)
            n_err = int(rng.integers(0, code.t + 1))
            if n_err:
                pos = rng.choice(code.n, n_err, replace=False)
                word[pos] ^= 1
            out = code.decode(word)
            assert out.status == STATUS_OK
            assert out.corrected_count == n_err
            assert np.array_equal(out.message_bits, msg)

    # exhaustive error patterns up to weight t on the reference code
    msg = rng.integers(0, 2, 7).astype(np.uint8)
    clean = bch15_7.encode(msg)
    patterns = itertools.chain(
        [()],
        itertools.combinations(range(15), 1),
        itertools.combinations(range(15), 2),
    )
    n_patterns = 0
    for pattern in patterns:
        word = clean.copy()
        if pattern:
            word[list(pattern)] ^= 1
        out = bch15_7.decode(word)
        assert out.status == STATUS_OK
        assert np.array_equal(out.message_bits, msg)
        n_patterns += 1
    assert n_patterns == 1 + 15 + 105
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(f"C4 fec-correctness: 2x10^4 random words + {n_patterns} "
           f"exhaustive patterns in {elapsed:.1f} s PASS")


def test_c05_fec_rate(codec):
    rate = codec.code_rate()
    assert abs(rate - 0.9373) <= 1e-4
    redundancy = 1.0 / rate - 1.0
    assert redundancy == pytest.approx(0.0669, abs=1e-3)
    report(f"C5 fec-rate: {rate:.5f} (redundancy {redundancy*100:.2f}%) PASS")


def test_c06_fec_threshold_at_1e5(green):
    t0 = time.perf_counter()
    n_frames = 10_000
    n_bits = n_frames * green.codec.frame_bits
    assert n_bits >= 10**8
    result = inject_errors_run(green, 1e-5, n_bits, seed=SEED)
    elapsed = time.perf_counter() - t0
    assert result.pre_fec_bit_errors > 0
    assert result.post_fec_bit_errors == 0
    assert result.packet_loss_count == 0
    report(f"C6 fec-threshold: {result.pre_fec_bit_errors} injected errors "
           f"over {n_bits} bits, 0 residual ({elapsed:.0f} s) PASS")


def test_c07_goodput(green, blue):
    g = goodput_for(green)
    b = goodput_for(blue)
    assert abs(g - 97.5e6) <= 0.5e6
    assert abs(b - 5.50e6) <= 0.10e6
    report(f"C7 goodput: green {g/1e6:.2f} Mbps, blue {b/1e6:.3f} Mbps PASS")


def test_c08_video_capacity(green):
    g = goodput_for(green)
    assert g >= 50.5e6
    assert g >= 34.4e6
    report(f"C8 capacity: {g/1e6:.1f} Mbps >= 50.5 and 34.4 Mbps loads PASS")


def test_c09_long_term_ber_decades(green, blue):
    green_reports = long_term_monitor(green, 30, 10, seed=SEED)
    blue_reports = long_term_monitor(blue, 30, 10, seed=SEED)
    assert all(r.pre_fec_ber < 1e-5 for r in green_reports)
    assert all(r.pre_fec_ber < 1e-7 for r in blue_reports)
    report(f"C9 long-term: green max {max(r.pre_fec_ber for r in green_reports):.2e}"
           f" < 1e-5, blue max {max(r.pre_fec_ber for r in blue_reports):.2e}"
           f" < 1e-7 over 30 epochs PASS")


def test_c10_agc_convergence_sweep():
    # the deployed receiver every link uses, as a dB plant
    g_min_db, g_max_db = (10 * math.log10(g) for g in agc.PMT_GAIN_RANGE)
    lo_db, hi_db = (10 * math.log10(v) for v in agc.AGC_WINDOW_V)
    responsivity_db = 10 * math.log10(agc.RESPONSIVITY_V_PER_W)

    def level_db(state, p_dbw):
        return responsivity_db + p_dbw - state.attenuation_db + state.gain_db

    worst = 0
    for p_opt in np.logspace(-6, -3, 41):  # 30 dB sweep, 41 points
        p_dbw = 10 * math.log10(p_opt)
        state = agc.AgcState()
        steps = 0
        while steps <= 10:
            if lo_db <= level_db(state, p_dbw) <= hi_db:
                break
            state = agc.agc_step(state, p_dbw)
            steps += 1
            assert g_min_db <= state.gain_db <= g_max_db
            assert 0.0 <= state.attenuation_db <= agc.LC_ATTENUATION_RANGE_DB
        assert lo_db <= level_db(state, p_dbw) <= hi_db, f"no convergence at {p_opt} W"
        assert steps <= 10
        worst = max(worst, steps)
        # stays put once inside
        after = agc.agc_step(state, p_dbw)
        assert (after.attenuation_db, after.gain_db) == \
            (state.attenuation_db, state.gain_db)
    report(f"C10 agc: 41-point 30 dB sweep converges in <= {worst} steps PASS")


def test_c11_determinism(green, blue_nlos):
    for spec in (green, blue_nlos):
        a = render_report(run_scenario(spec, 10, seed=SEED))
        b = render_report(run_scenario(spec, 10, seed=SEED))
        assert a == b
        assert json.loads(a)["seed"] == SEED
    report("C11 determinism: byte-identical JSON for equal seeds PASS")


def test_c12_modem_statistics(chain_ber):
    checks = []
    for sigma in (1 / 3, 0.25, 0.2):
        snr = 1.0 / sigma
        n = 10**7
        measured = chain_ber(OOK, snr, n, seed=SEED)
        expected = theoretical_ber(OOK, snr)
        tol = 3.0 * math.sqrt(expected * (1 - expected) / n)
        assert abs(measured - expected) < tol
        checks.append(f"snr {snr:.1f}: {measured:.3e} vs Q {expected:.3e}")
    report("C12 modem-statistics: " + "; ".join(checks) + " PASS")
