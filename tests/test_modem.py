import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from uwoclink.modem import (
    OOK,
    PPM4,
    ModulationScheme,
    SlotStream,
    add_noise,
    demodulate,
    mc_bit_error_rate,
    modulate,
    ook_demodulate,
    ook_modulate,
    ppm4_demodulate,
    ppm4_modulate,
    ppm4_symbol_error_rate,
    qfunc,
    slot_rate_for,
    theoretical_ber,
)


class TestSlotRates:
    def test_ook_green_rate(self):
        assert slot_rate_for(OOK, 125e6) == 125e6

    def test_ppm4_blue_rate(self):
        assert slot_rate_for(PPM4, 6.25e6) == 12.5e6

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            slot_rate_for(OOK, 0.0)

    def test_scheme_dataclass(self):
        ModulationScheme(PPM4, 6.25e6)
        with pytest.raises(ValueError):
            ModulationScheme("qam", 1e6)


class TestOok:
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_noiseless_roundtrip(self, bits):
        arr = np.array(bits, dtype=np.uint8)
        stream = ook_modulate(arr)
        out = ook_demodulate(stream)
        assert np.array_equal(out, arr)

    def test_all_zero_is_dark(self):
        stream = ook_modulate(np.zeros(64, dtype=np.uint8))
        assert not stream.amplitudes.any()

    def test_balanced_mean_power(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, 10**5).astype(np.uint8)
        assert np.mean(ook_modulate(bits).amplitudes) == pytest.approx(0.5, abs=0.01)

    def test_threshold_bounds(self):
        # the decision threshold is the midpoint 0.5 of the off and on levels
        below, above = 0.5, np.nextafter(0.5, 1.0)
        stream = SlotStream(np.array([0.0, below, above, 1.0]))
        assert np.array_equal(ook_demodulate(stream), [0, 0, 1, 1])


class TestPpm4:
    def test_mapping_definition(self):
        assert np.array_equal(
            ppm4_modulate(np.array([0, 0], dtype=np.uint8)).amplitudes,
            [1.0, 0.0, 0.0, 0.0])
        assert np.array_equal(
            ppm4_modulate(np.array([1, 1], dtype=np.uint8)).amplitudes,
            [0.0, 0.0, 0.0, 1.0])

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_noiseless_roundtrip(self, bits):
        arr = np.array(bits, dtype=np.uint8)
        out = ppm4_demodulate(ppm4_modulate(arr))
        assert np.array_equal(out, arr)

    def test_odd_length_pad_recorded(self):
        stream = ppm4_modulate(np.array([1], dtype=np.uint8))
        assert stream.pad_bits == 1
        assert len(stream.amplitudes) == 4

    def test_one_pulse_per_symbol(self):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, 2000).astype(np.uint8)
        amps = ppm4_modulate(bits).amplitudes.reshape(-1, 4)
        assert (amps.sum(axis=1) == 1.0).all()

    def test_mean_power_is_quarter(self):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, 10**5).astype(np.uint8)
        assert np.mean(ppm4_modulate(bits).amplitudes) == pytest.approx(0.25)

    def test_tie_break_to_lowest_slot(self):
        flat = SlotStream(np.zeros(4))
        assert np.array_equal(ppm4_demodulate(flat), [0, 0])


class TestTheory:
    def test_zero_snr_is_coin_flip(self):
        assert theoretical_ber(OOK, 0.0) == pytest.approx(0.5)
        assert theoretical_ber(PPM4, 0.0) == pytest.approx(0.5, abs=1e-6)

    def test_ook_snr6_matches_q3(self):
        assert theoretical_ber(OOK, 6.0) == pytest.approx(1.3499e-3, rel=1e-3)

    def test_strictly_decreasing(self):
        for kind in (OOK, PPM4):
            values = [theoretical_ber(kind, s) for s in np.linspace(0.0, 10.0, 21)]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_ppm4_symbol_rate_at_zero(self):
        assert ppm4_symbol_error_rate(0.0) == pytest.approx(0.75, abs=1e-9)

    @pytest.mark.parametrize("snr", np.linspace(10.0, 30.0, 11))
    def test_ppm4_tail_matches_union_bound(self, snr):
        # pairwise errors dominate in the tail: SER -> 3 Q(snr / sqrt 2)
        union = 3.0 * qfunc(snr / math.sqrt(2.0))
        assert abs(ppm4_symbol_error_rate(snr) / union - 1.0) < 0.01

    def test_ppm4_positive_and_decreasing_to_snr_30(self):
        values = [ppm4_symbol_error_rate(s) for s in np.linspace(0.0, 30.0, 121)]
        assert all(v > 0 for v in values)
        assert all(b < a for a, b in zip(values, values[1:]))


class TestMonteCarlo:
    @pytest.mark.parametrize("sigma", [1 / 3, 0.25, 0.2])
    def test_ook_matches_gaussian_tail(self, sigma):
        snr = 1.0 / sigma
        n = 10**6
        measured = mc_bit_error_rate(OOK, snr, n, seed=101)
        expected = theoretical_ber(OOK, snr)
        tol = 3.0 * math.sqrt(expected * (1 - expected) / n)
        assert abs(measured - expected) < tol

    @pytest.mark.parametrize("sigma", [0.35, 0.30, 0.25])
    def test_ppm4_matches_order_statistics_oracle(self, sigma):
        snr = 1.0 / sigma
        n_sym = 3 * 10**5
        rng = np.random.default_rng(202)
        bits = rng.integers(0, 2, 2 * n_sym).astype(np.uint8)
        stream = ppm4_modulate(bits)
        noisy = add_noise(stream, sigma, rng)
        decoded_slots = noisy.amplitudes.reshape(-1, 4).argmax(axis=1)
        sent_slots = stream.amplitudes.reshape(-1, 4).argmax(axis=1)
        ser = np.mean(decoded_slots != sent_slots)
        expected = ppm4_symbol_error_rate(snr)
        tol = 3.0 * math.sqrt(expected * (1 - expected) / n_sym)
        assert abs(ser - expected) < tol

    def test_determinism(self):
        a = mc_bit_error_rate(OOK, 4.0, 10**5, seed=9)
        b = mc_bit_error_rate(OOK, 4.0, 10**5, seed=9)
        assert a == b


class TestDispatch:
    def test_modulate_demodulate_roundtrip(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, 512).astype(np.uint8)
        for kind in (OOK, PPM4):
            stream = modulate(kind, bits)
            out = demodulate(kind, stream)
            assert np.array_equal(out, bits)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            modulate("psk", np.zeros(2, dtype=np.uint8))
