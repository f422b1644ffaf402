import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import uwoclink
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import ndtr
from scipy.stats import binom, chisquare, norm
from uwoclink import modem
from uwoclink.modem import (
    OOK,
    PPM4,
    ModulationScheme,
    SlotStream,
    add_noise,
    demodulate,
    flipped_bits,
    modulate,
    ppm4_symbol_error_rate,
    qfunc,
    theoretical_ber,
)


def even_bits(min_size: int):
    """Bit lists of an even length in [min_size, 300]: 4-PPM's dibits."""
    return st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                    min_size=min_size // 2, max_size=150).map(
        lambda pairs: [b for pair in pairs for b in pair])


class TestModulationScheme:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown modulation kind 'qam'"):
            ModulationScheme("qam", 1e6)

    @pytest.mark.parametrize("rate", [0.0, math.nan, math.inf])
    def test_unusable_rate_rejected(self, rate):
        with pytest.raises(ValueError, match=r"bit_rate_bps must be in \[1e3, 1e11\] b/s"):
            ModulationScheme(OOK, rate)

    @pytest.mark.parametrize("rate", [1e3, 1e11])
    @pytest.mark.parametrize("kind", [OOK, PPM4])
    def test_interval_ends_accepted(self, kind, rate):
        assert ModulationScheme(kind, rate).bit_rate_bps == rate


class TestOok:
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_noiseless_roundtrip(self, bits):
        arr = np.array(bits, dtype=np.uint8)
        stream = modulate(OOK, arr)
        out = demodulate(OOK, stream)
        assert np.array_equal(out, arr)

    def test_all_zero_is_dark(self):
        stream = modulate(OOK, np.zeros(64, dtype=np.uint8))
        assert not stream.amplitudes.any()

    def test_balanced_mean_power(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, 10**5).astype(np.uint8)
        assert np.mean(modulate(OOK, bits).amplitudes) == pytest.approx(0.5, abs=0.01)

    def test_threshold_bounds(self):
        # the decision threshold is the midpoint 0.5 of the off and on levels
        below, above = 0.5, np.nextafter(0.5, 1.0)
        stream = SlotStream(np.array([0.0, below, above, 1.0]))
        assert np.array_equal(demodulate(OOK, stream), [0, 0, 1, 1])


class TestPpm4:
    def test_mapping_definition(self):
        assert np.array_equal(
            modulate(PPM4, np.array([0, 0], dtype=np.uint8)).amplitudes,
            [1.0, 0.0, 0.0, 0.0])
        assert np.array_equal(
            modulate(PPM4, np.array([1, 1], dtype=np.uint8)).amplitudes,
            [0.0, 0.0, 0.0, 1.0])

    @given(even_bits(2))
    @settings(max_examples=100, deadline=None)
    def test_noiseless_roundtrip(self, bits):
        arr = np.array(bits, dtype=np.uint8)
        out = demodulate(PPM4, modulate(PPM4, arr))
        assert np.array_equal(out, arr)

    @given(even_bits(0))
    @example([])
    @settings(max_examples=200, deadline=None)
    def test_modulate_matches_scatter_reference(self, bits):
        # one pulse per dibit at slot 4 i + 2 b0 + b1
        arr = np.array(bits, dtype=np.uint8)
        n_slots = 2 * len(arr)
        expected = np.zeros(n_slots)
        expected[np.arange(0, n_slots, 4) + 2 * arr[0::2] + arr[1::2]] = 1.0
        stream = modulate(PPM4, arr)
        assert stream.amplitudes.dtype == np.uint8
        assert np.array_equal(stream.amplitudes, expected)

    @pytest.mark.parametrize("n_bits", [1, 7, 4001, 16321])
    def test_odd_ppm4_frame_rejected(self, n_bits):
        frame = np.zeros(n_bits, dtype=np.uint8)
        with pytest.raises(ValueError, match=f"even number of bits, got {n_bits}"):
            modulate(PPM4, frame)
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"even number of bits, got {n_bits}"):
            flipped_bits(PPM4, 0.2, rng, frame)
        assert rng.bit_generator.state == state  # nothing drawn

    def test_one_pulse_per_symbol(self):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, 2000).astype(np.uint8)
        amps = modulate(PPM4, bits).amplitudes.reshape(-1, 4)
        assert (amps.sum(axis=1) == 1.0).all()

    def test_mean_power_is_quarter(self):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, 10**5).astype(np.uint8)
        assert np.mean(modulate(PPM4, bits).amplitudes) == pytest.approx(0.25)

    def test_tie_break_to_lowest_slot(self):
        flat = SlotStream(np.zeros(4))
        assert np.array_equal(demodulate(PPM4, flat), [0, 0])

    @staticmethod
    def argmax_reference(amps: np.ndarray) -> np.ndarray:
        slots = np.argmax(amps.reshape(-1, 4), axis=1)
        return np.stack([slots >> 1, slots & 1], axis=1).astype(np.uint8).ravel()

    @given(st.lists(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 4),
                    min_size=1, max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_demodulate_matches_argmax_on_finite_amplitudes(self, symbols):
        amps = np.array(symbols).ravel()
        assert np.array_equal(demodulate(PPM4, SlotStream(amps)),
                              self.argmax_reference(amps))

    @given(st.lists(st.tuples(*[st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0])] * 4),
                    min_size=1, max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_demodulate_matches_argmax_on_exact_ties(self, symbols):
        amps = np.array(symbols).ravel()
        assert np.array_equal(demodulate(PPM4, SlotStream(amps)),
                              self.argmax_reference(amps))


def quad_ppm4_ser(snr: float) -> float:
    """Reference SER: adaptive quadrature of the same integrand."""
    def integrand(u: float) -> float:
        cdf = ndtr(u + snr)
        pdf = math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
        return pdf * ndtr(-u - snr) * (1.0 + cdf + cdf * cdf)

    centre = -snr / 2.0
    p_error, _ = integrate.quad(integrand, centre - 12.0, centre + 12.0,
                                points=[centre], epsabs=0.0, epsrel=1e-10)
    return min(1.0, p_error)


class TestTheory:
    def test_qfunc_matches_normal_survival(self):
        for x in np.linspace(-10.0, 37.0, 941):
            assert qfunc(x) == pytest.approx(norm.sf(x), rel=1e-12, abs=0.0)

    def test_ppm4_ser_matches_adaptive_quadrature(self):
        for snr in np.linspace(0.0, 40.0, 401):
            expected = quad_ppm4_ser(snr)
            assert ppm4_symbol_error_rate(snr) == pytest.approx(expected, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("snr", [math.nan, math.inf, -math.inf, -1.0])
    def test_non_finite_or_negative_snr_rejected(self, snr):
        with pytest.raises(ValueError):
            ppm4_symbol_error_rate(snr)
        for kind in (OOK, PPM4):
            with pytest.raises(ValueError):
                theoretical_ber(kind, snr)

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
    """BERs measured through the slot chain every simulated frame takes,
    ``flipped_bits``, by the ``chain_ber`` fixture."""

    @pytest.mark.parametrize("sigma", [1 / 3, 0.25, 0.2])
    def test_ook_matches_gaussian_tail(self, sigma, chain_ber):
        snr = 1.0 / sigma
        n = 10**6
        measured = chain_ber(OOK, snr, n, seed=101)
        expected = theoretical_ber(OOK, snr)
        tol = 3.0 * math.sqrt(expected * (1 - expected) / n)
        assert abs(measured - expected) < tol

    @pytest.mark.parametrize("sigma", [0.35, 0.30, 0.25])
    def test_ppm4_matches_order_statistics_oracle(self, sigma):
        snr = 1.0 / sigma
        n_sym = 3 * 10**5
        rng = np.random.default_rng(202)
        bits = rng.integers(0, 2, 2 * n_sym).astype(np.uint8)
        stream = modulate(PPM4, bits)
        noisy = add_noise(stream, sigma, rng)
        decoded_slots = noisy.amplitudes.reshape(-1, 4).argmax(axis=1)
        sent_slots = stream.amplitudes.reshape(-1, 4).argmax(axis=1)
        ser = np.mean(decoded_slots != sent_slots)
        expected = ppm4_symbol_error_rate(snr)
        tol = 3.0 * math.sqrt(expected * (1 - expected) / n_sym)
        assert abs(ser - expected) < tol

    @pytest.mark.parametrize("sigma", [0.35, 0.30, 0.25])
    def test_ppm4_bits_match_theory(self, sigma, chain_ber):
        snr = 1.0 / sigma
        n = 10**6
        measured = chain_ber(PPM4, snr, n, seed=303)
        expected = theoretical_ber(PPM4, snr)
        tol = 4.0 * math.sqrt(expected * (1 - expected) / n)
        assert abs(measured - expected) < tol

    def test_determinism(self, chain_ber):
        a = chain_ber(OOK, 4.0, 10**5, seed=9)
        b = chain_ber(OOK, 4.0, 10**5, seed=9)
        assert a == b


class TestSparseNoise:
    """``add_noise`` draws only the hit groups, yet its decisions follow the
    dense law: OOK errs with probability Q(tau), a 4-PPM symbol with SER and
    a uniform wrong slot. q = 2 Q(tau) is the share of slots past the margin
    tau = 0.5 / sigma; the last two shares lie on each side of the switch to
    the dense draw. Each bound is two-sided at a false-alarm probability of
    1e-9.
    """

    ALPHA = 1e-9
    # streams are drawn from an odd number of bits, so an OOK stream ends in
    # a partial 4-slot group; 4-PPM takes one bit less, an even number
    SHARES = [1e-4, 1e-2, 0.9 * modem._SPARSE_MAX_SHARE, 1.1 * modem._SPARSE_MAX_SHARE]
    IDS = ["1e-4", "1e-2", "below-switch", "above-switch"]

    @staticmethod
    def sigma_for(share):
        return 0.5 / norm.isf(share / 2.0)

    def assert_binomial(self, count, n, p):
        assert binom.ppf(self.ALPHA / 2, n, p) <= count <= binom.isf(self.ALPHA / 2, n, p)

    @pytest.mark.parametrize("share", SHARES, ids=IDS)
    def test_ook_errors_are_binomial(self, share):
        sigma = self.sigma_for(share)
        rng = np.random.default_rng(41)
        bits = rng.integers(0, 2, 10**6, dtype=np.uint8)
        out = demodulate(OOK, add_noise(modulate(OOK, bits), sigma, rng))
        self.assert_binomial(np.count_nonzero(out != bits), len(bits), qfunc(0.5 / sigma))

    @pytest.mark.parametrize("share", SHARES, ids=IDS)
    def test_ppm4_symbol_errors_are_binomial(self, share):
        sigma = self.sigma_for(share)
        rng = np.random.default_rng(43)
        bits = rng.integers(0, 2, 2 * 10**6, dtype=np.uint8)
        out = demodulate(PPM4, add_noise(modulate(PPM4, bits), sigma, rng))
        wrong = np.any((out != bits).reshape(-1, 2), axis=1)
        self.assert_binomial(np.count_nonzero(wrong), len(wrong),
                             ppm4_symbol_error_rate(1.0 / sigma))

    def test_ppm4_wrong_slot_is_uniform(self):
        # the XOR of sent and decided dibits is 01, 10 or 11 with equal odds
        patterns = np.zeros(4, dtype=np.int64)
        for seed, share in enumerate(self.SHARES[1:]):
            rng = np.random.default_rng(seed)
            bits = rng.integers(0, 2, 2 * 10**6, dtype=np.uint8)
            out = demodulate(PPM4, add_noise(modulate(PPM4, bits), self.sigma_for(share), rng))
            xor = (out ^ bits).reshape(-1, 2)
            patterns += np.bincount(xor[:, 0] * 2 + xor[:, 1], minlength=4)
        assert patterns[1:].sum() > 1000
        assert chisquare(patterns[1:]).pvalue > self.ALPHA

    @pytest.mark.parametrize("share", SHARES[:3], ids=IDS[:3])
    def test_tail_and_bulk_follow_the_truncated_normal(self, share):
        # on a dark stream the noise is the output; hit slots lie past the
        # margin with a random sign, and the rest of their groups inside it
        sigma = self.sigma_for(share)
        tau = 0.5 / sigma
        rng = np.random.default_rng(47)
        z = add_noise(SlotStream(np.zeros(4 * 10**6)), sigma, rng).amplitudes / sigma
        hit = np.abs(z) > tau
        tail, bulk = np.abs(z[hit]), z[(z != 0) & ~hit]
        assert len(tail) > 300
        self.assert_binomial(np.count_nonzero(z[hit] > 0), len(tail), 0.5)
        # P(z > x | z > tau) = Q(x) / Q(tau) at the tail's quartiles and deciles
        for level in (0.1, 0.25, 0.5, 0.75, 0.9):
            x = norm.isf(level * norm.sf(tau))
            self.assert_binomial(np.count_nonzero(tail > x), len(tail), level)
        # P(z < x | |z| < tau) at the bulk's quartiles and deciles
        mass = 1.0 - 2.0 * norm.sf(tau)
        for level in (0.1, 0.25, 0.5, 0.75, 0.9):
            x = norm.ppf(norm.cdf(-tau) + level * mass)
            self.assert_binomial(np.count_nonzero(bulk < x), len(bulk), level)

    @pytest.mark.parametrize("kind", [OOK, PPM4])
    def test_slots_outside_hit_groups_keep_their_amplitude(self, kind):
        # touched lists, ascending, exactly the groups holding a slot past
        # the margin, and every slot outside them keeps its amplitude
        sigma = self.sigma_for(1e-3)
        rng = np.random.default_rng(53)
        stream = modulate(kind, rng.integers(0, 2, 4001 - (kind == PPM4), dtype=np.uint8))
        noisy = add_noise(stream, sigma, rng)
        changed = noisy.amplitudes != stream.amplitudes
        hit = np.abs(noisy.amplitudes - stream.amplitudes) > 0.5
        groups = np.flatnonzero(hit) // 4
        in_group = np.isin(np.arange(len(changed)) // 4, groups)
        assert hit.any()
        assert np.array_equal(changed, in_group)
        assert np.array_equal(noisy.touched, np.unique(groups))
        outside = ~np.isin(np.arange(len(changed)) // 4, noisy.touched)
        assert np.array_equal(noisy.amplitudes[outside], stream.amplitudes[outside])

    @pytest.mark.parametrize("kind", [OOK, PPM4])
    def test_touched_is_none_when_dense(self, kind):
        n_bits = 4001 - (kind == PPM4)
        stream = modulate(kind, np.random.default_rng(71).integers(0, 2, n_bits, dtype=np.uint8))
        assert stream.touched is None
        noisy = add_noise(stream, self.sigma_for(self.SHARES[-1]), np.random.default_rng(73))
        assert noisy.touched is None
        assert np.count_nonzero(noisy.amplitudes != stream.amplitudes) == len(stream.amplitudes)

    @pytest.mark.parametrize("share", SHARES, ids=IDS)
    @pytest.mark.parametrize("kind", [OOK, PPM4])
    def test_uint8_stream_gives_the_float64_result(self, kind, share):
        # the noiseless uint8 stream is never written: the noise goes into a
        # float64 copy, so it adds exactly as onto float64 amplitudes
        sigma = self.sigma_for(share)
        n_bits = 10**5 + 1 - (kind == PPM4)
        bits = np.random.default_rng(79).integers(0, 2, n_bits, dtype=np.uint8)
        stream = modulate(kind, bits)
        sent = stream.amplitudes.copy()
        as_float = SlotStream(sent.astype(np.float64))
        noisy = add_noise(stream, sigma, np.random.default_rng(83))
        reference = add_noise(as_float, sigma, np.random.default_rng(83))
        assert stream.amplitudes.dtype == np.uint8 and noisy.amplitudes.dtype == np.float64
        assert np.array_equal(noisy.amplitudes, reference.amplitudes)
        assert (noisy.touched is None) == (reference.touched is None) == \
            (share > modem._SPARSE_MAX_SHARE)
        assert np.array_equal(noisy.touched, reference.touched)
        assert np.array_equal(stream.amplitudes, sent)

    @pytest.mark.parametrize("kind", [OOK, PPM4])
    def test_zero_sigma_returns_the_stream_unchanged(self, kind):
        n_bits = 999 - (kind == PPM4)
        stream = modulate(kind, np.random.default_rng(59).integers(0, 2, n_bits, dtype=np.uint8))
        noisy = add_noise(stream, 0.0, np.random.default_rng(61))
        assert np.array_equal(noisy.amplitudes, stream.amplitudes)


class TestDispatch:
    def test_modulate_demodulate_roundtrip(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, 512).astype(np.uint8)
        for kind in (OOK, PPM4):
            stream = modulate(kind, bits)
            out = demodulate(kind, stream)
            assert np.array_equal(out, bits)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown modulation kind 'psk'"):
            modulate("psk", np.zeros(2, dtype=np.uint8))
        with pytest.raises(ValueError, match="unknown modulation kind 'psk'"):
            demodulate("psk", SlotStream(np.zeros(4)))
        with pytest.raises(ValueError, match="unknown modulation kind 'psk'"):
            theoretical_ber("psk", 4.0)

    @pytest.mark.parametrize("sigma", [-1e-300, -1.0, -math.inf])
    def test_negative_sigma_rejected(self, sigma):
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="sigma must be >= 0"):
            add_noise(SlotStream(np.zeros(8, dtype=np.uint8)), sigma, rng)
        assert rng.bit_generator.state == state  # nothing drawn


def test_import_loads_no_scipy():
    # nor hashlib, unless numpy already loaded it: it costs milliseconds of
    # set-up, and only a config fingerprint or a samples hash needs it
    src = str(Path(uwoclink.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, numpy; before = set(sys.modules); "
            "import uwoclink, uwoclink.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
            " or (m == 'hashlib' and m not in before)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
