import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import binom, chi2

from uwoclink.channel import (
    MAX_DISTANCE_M,
    FadingSpec,
    LinkGeometry,
    NlosPath,
    attenuation_db,
    collected_fraction,
    geometric_loss_db,
    sample_fading_db,
    spot_diameter_m,
    total_loss_db,
)
from uwoclink.engine import run_scenario

GREEN_C_DB_PER_M = 0.358
BLUE_C_DB_PER_M = 0.298
GREEN_GEO = LinkGeometry(distance_m=30.0, half_angle_deg=0.53, rx_aperture_m=0.046)
BLUE_GEO = LinkGeometry(distance_m=30.0, half_angle_deg=3.83, rx_aperture_m=0.008)


class TestWaterOptics:
    def test_negative_rejected(self, green):
        with pytest.raises(ValueError, match=r"c_db_per_m must be in \[0, 10\] dB/m"):
            replace(green, c_db_per_m=-0.1)


class TestAttenuation:
    def test_zero_distance(self):
        assert attenuation_db(GREEN_C_DB_PER_M, 0.0) == 0.0

    def test_green_30m(self):
        assert attenuation_db(GREEN_C_DB_PER_M, 30.0) == pytest.approx(10.74)

    def test_blue_full_range_matches_budget(self):
        # attenuation at the no-geometry range limit must equal the blue
        # budget to within 0.05%
        loss = attenuation_db(BLUE_C_DB_PER_M, 337.5)
        assert loss == pytest.approx(100.54, rel=5e-4)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            attenuation_db(GREEN_C_DB_PER_M, -1.0)

    def test_additivity(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            z1, z2 = rng.uniform(0, 500, 2)
            whole = attenuation_db(GREEN_C_DB_PER_M, z1 + z2)
            parts = attenuation_db(GREEN_C_DB_PER_M, z1) + attenuation_db(GREEN_C_DB_PER_M, z2)
            assert whole == pytest.approx(parts, rel=1e-12)


class TestSpotDiameter:
    def test_green_spot_at_30m(self):
        assert spot_diameter_m(GREEN_GEO) == pytest.approx(0.555, abs=1e-3)

    def test_blue_spot_at_30m(self):
        # 2 * 30 * tan(3.83 deg)
        assert spot_diameter_m(BLUE_GEO) == pytest.approx(4.0168, abs=1e-3)


class TestGeometricLoss:
    def test_spot_inside_aperture_is_lossless(self):
        g = LinkGeometry(2.0, 0.5, rx_aperture_m=0.046)
        assert spot_diameter_m(g) < g.rx_aperture_m
        assert geometric_loss_db(g) == 0.0

    def test_green_at_30m(self):
        assert geometric_loss_db(GREEN_GEO) == pytest.approx(21.63, abs=0.01)

    def test_blue_at_30m(self):
        assert geometric_loss_db(BLUE_GEO) == pytest.approx(54.02, abs=0.01)

    def test_monotone_in_distance(self):
        losses = [
            geometric_loss_db(LinkGeometry(z, 0.53, 0.046))
            for z in np.linspace(0.0, 300.0, 50)
        ]
        assert all(b >= a for a, b in zip(losses, losses[1:]))

    def test_far_field_matches_inverse_square(self):
        # once the spot is wider than the aperture, the collected fraction
        # is k/Z^2 with k = (aperture / (2 tan phi))^2
        phi = math.radians(0.53)
        k = (0.046 / (2.0 * math.tan(phi))) ** 2
        for z in np.linspace(50.0, 500.0, 10):
            g = LinkGeometry(z, 0.53, 0.046)
            expected = 10.0 * math.log10(z * z / k)
            assert geometric_loss_db(g) == pytest.approx(expected, rel=1e-12)

    def test_k_override(self):
        g = LinkGeometry(100.0, 0.53, 0.046, k_override_m2=1.198)
        assert geometric_loss_db(g) == pytest.approx(
            10.0 * math.log10(100.0**2 / 1.198))

    def test_k_override_clamps_nonnegative(self):
        g = LinkGeometry(0.5, 0.53, 0.046, k_override_m2=1.198)
        assert geometric_loss_db(g) == 0.0

    @pytest.mark.parametrize("k_override", [None, 1e-12])
    def test_worst_corner_of_the_box_is_finite(self, k_override):
        # the widest spot on the least aperture over the longest path: under
        # the 171 dB that LinkSpec's docstring derives, or the 200 dB of the
        # least k override there
        g = LinkGeometry(MAX_DISTANCE_M, 60.0, 1e-4, k_override_m2=k_override)
        if k_override is None:
            assert 0.0 < geometric_loss_db(g) < 171.0
        else:
            assert geometric_loss_db(g) == pytest.approx(200.0)

    @pytest.mark.parametrize("half_angle", [0.0, math.nextafter(0.01, 0.0),
                                            math.nextafter(60.0, 90.0), 89.99999999999999])
    def test_half_angle_past_its_interval_rejected(self, half_angle):
        with pytest.raises(ValueError, match=r"half_angle_deg must be in \[0.01, 60\] degrees"):
            LinkGeometry(30.0, half_angle, 0.046)

    def test_past_the_longest_path_rejected(self):
        with pytest.raises(ValueError, match=r"distance_m must be in \[0, 10000\] m"):
            LinkGeometry(math.nextafter(MAX_DISTANCE_M, math.inf), 0.53, 0.046)

    def test_k_override_at_zero_is_lossless(self):
        # z^2 = 0 <= k: the aperture collects the whole spot
        g = LinkGeometry(0.0, 0.53, 0.046, k_override_m2=1.198)
        assert collected_fraction(g) == 1.0
        assert geometric_loss_db(g) == 0.0

    @pytest.mark.parametrize("z", [5e-324, 1e-200])
    def test_k_override_at_a_distance_whose_square_underflows(self, z):
        # Z^2 rounds to 0; k / Z^2 was a ZeroDivisionError
        g = LinkGeometry(z, 0.53, 0.046, k_override_m2=1e-12)
        assert collected_fraction(g) == 1.0
        assert geometric_loss_db(g) == 0.0


class TestNlosExcess:
    """total_loss_db's NLOS excess is the reflection penalty alone; the
    bounce's extra spread is part of the unfolded path's geometric loss."""

    def test_perfect_mirror_equal_path_has_no_excess(self):
        bd = total_loss_db(BLUE_GEO, BLUE_C_DB_PER_M, NlosPath(1.0, 30.0))
        assert bd.nlos_excess_db == 0.0
        assert bd.total_db == total_loss_db(BLUE_GEO, BLUE_C_DB_PER_M).total_db

    def test_reflectance_penalty_is_log10(self):
        # the unfolded path has the direct path's optics but not its k
        direct = replace(BLUE_GEO, k_override_m2=1.198)
        unfolded = LinkGeometry(34.0, 3.83, 0.008)
        bd = total_loss_db(direct, BLUE_C_DB_PER_M, NlosPath(0.1, 34.0))
        assert bd.nlos_excess_db == pytest.approx(10.0)
        assert bd.geometric_db == geometric_loss_db(unfolded)

    def test_deep_sea_preset_value(self):
        # reflectance 0.05 over a 34 m bounce vs the 30 m direct path: a
        # 13.0103 dB excess, and 55.103 - 54.018 dB of extra spread,
        # evaluated by hand, inside the geometric term
        bd = total_loss_db(BLUE_GEO, BLUE_C_DB_PER_M, NlosPath(0.05, 34.0))
        assert bd.nlos_excess_db == pytest.approx(13.0103, abs=1e-3)
        assert bd.geometric_db - geometric_loss_db(BLUE_GEO) == \
            pytest.approx(1.085, abs=0.01)

    @pytest.mark.parametrize("reflectance", [
        0.0, -0.0, -1e-300, math.nextafter(1.0, math.inf), 2.0, math.nan])
    def test_reflectance_outside_open_unit_interval_rejected(self, reflectance):
        # a bounce that reflects nothing is no link; 0 used to pass as a
        # "dark" path whose margin still looked healthy
        with pytest.raises(ValueError, match=r"^reflectance must be in \(0, 1\]$"):
            NlosPath(reflectance, 30.0)

    def test_least_reflectance_costs_a_finite_excess(self):
        # the smallest positive float costs about 3,233 dB, a finite loss
        bd = total_loss_db(BLUE_GEO, BLUE_C_DB_PER_M, NlosPath(5e-324, 30.0))
        assert bd.nlos_excess_db == pytest.approx(3233.06, abs=0.01)
        assert math.isfinite(bd.total_db)


class TestTotalLoss:
    def test_green_aligned_at_30m(self):
        bd = total_loss_db(GREEN_GEO, GREEN_C_DB_PER_M)
        assert bd.attenuation_db == pytest.approx(10.74)
        assert bd.geometric_db == pytest.approx(21.63, abs=0.01)
        assert bd.total_db == pytest.approx(32.37, abs=0.01)
        assert 82.77 - bd.total_db == pytest.approx(50.40, abs=0.01)

    def test_zero_distance_covering_spot(self):
        g = LinkGeometry(0.0, 0.53, 0.046)
        bd = total_loss_db(g, GREEN_C_DB_PER_M)
        assert bd.total_db == 0.0

    def test_blue_nlos_preset_components(self):
        nlos = NlosPath(0.05, 34.0)
        bd = total_loss_db(BLUE_GEO, BLUE_C_DB_PER_M, nlos=nlos)
        assert bd.attenuation_db == pytest.approx(0.298 * 34.0)
        assert bd.geometric_db == pytest.approx(55.10, abs=0.01)
        assert bd.nlos_excess_db == pytest.approx(13.0103, abs=1e-3)
        assert bd.total_db == pytest.approx(78.245, abs=0.02)

    def test_total_is_component_sum(self):
        nlos = NlosPath(0.3, 40.0)
        bd = total_loss_db(BLUE_GEO, BLUE_C_DB_PER_M, nlos=nlos)
        parts = bd.attenuation_db + bd.geometric_db + bd.nlos_excess_db
        assert bd.total_db == pytest.approx(parts, rel=1e-12)

    def test_strictly_increasing_with_distance(self):
        prev = -1.0
        for z in np.linspace(1.0, 200.0, 40):
            g = LinkGeometry(z, 0.53, 0.046)
            total = total_loss_db(g, GREEN_C_DB_PER_M).total_db
            assert total > prev
            prev = total

    def test_zero_fading_leaves_total_unchanged(self, green):
        # the engine adds each second's fading draw to the static total
        still = replace(green, fading=FadingSpec())
        static = total_loss_db(still.geometry, still.c_db_per_m, still.nlos).total_db
        report = run_scenario(still, 3, seed=0)
        assert report.margin_trace_db == (still.budget_db - static,) * 3


class TestFading:
    def test_degenerate_spec_is_zero(self):
        rng = np.random.default_rng(0)
        spec = FadingSpec(0.0, 0.0, 0.0)
        assert all(sample_fading_db(spec, rng) == 0.0 for _ in range(100))

    def test_sample_mean_is_zero(self):
        rng = np.random.default_rng(7)
        spec = FadingSpec(sigma_db=2.0)
        draws = np.array([sample_fading_db(spec, rng) for _ in range(10**6)])
        assert abs(draws.mean()) < 0.01

    def test_same_seed_same_sequence(self):
        spec = FadingSpec(1.0, 0.2, 5.0)
        rng1, rng2 = np.random.default_rng(11), np.random.default_rng(11)
        s1 = [sample_fading_db(spec, rng1) for _ in range(50)]
        s2 = [sample_fading_db(spec, rng2) for _ in range(50)]
        assert s1 == s2

    # the spread and the burst share of the law, each from N draws against
    # a two-sided bound at false-alarm probability ALPHA, z(ALPHA/2) = 6.1
    ALPHA = 1e-9
    N = 10**5

    @pytest.mark.parametrize("sigma_db", [1.0, 0.4])  # the blue and green presets
    def test_sample_variance_is_chi_square(self, sigma_db):
        # (N - 1) s^2 / sigma^2 is chi-square with N - 1 degrees of freedom,
        # whose relative spread is sqrt(2 / N) = 0.45 %: the bound lies about
        # 6.1 * 0.45 % = 2.7 % from sigma^2, and a 5 % sigma bias (10.25 % in
        # the variance) about 23 spreads from it
        rng = np.random.default_rng(19)
        spec = FadingSpec(sigma_db=sigma_db)
        draws = np.array([sample_fading_db(spec, rng) for _ in range(self.N)])
        stat = (self.N - 1) * draws.var(ddof=1) / sigma_db**2
        dof = self.N - 1
        assert chi2.ppf(self.ALPHA / 2, dof) <= stat <= chi2.isf(self.ALPHA / 2, dof)

    def test_burst_count_is_binomial(self):
        # with no wobble a draw is the burst depth or 0, and the bursts are
        # Bin(N, p): mean 3,000 and sd sqrt(N p (1 - p)) = 53.9, so the bound
        # lies about 6.1 sd = 330 bursts from the mean, and a 0.8x burst
        # probability (mean 2,400) about 11 sd from it
        p = 0.03
        rng = np.random.default_rng(23)
        spec = FadingSpec(burst_probability=p, burst_depth_db=6.0)
        draws = np.array([sample_fading_db(spec, rng) for _ in range(self.N)])
        assert set(draws) <= {0.0, 6.0}
        bursts = int(np.count_nonzero(draws))
        lo, hi = binom.ppf(self.ALPHA / 2, self.N, p), binom.isf(self.ALPHA / 2, self.N, p)
        assert lo <= bursts <= hi

    def test_burst_adds_depth(self):
        rng = np.random.default_rng(5)
        spec = FadingSpec(sigma_db=0.0, burst_probability=1.0, burst_depth_db=7.5)
        assert sample_fading_db(spec, rng) == 7.5

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            FadingSpec(sigma_db=-1.0)
        with pytest.raises(ValueError):
            FadingSpec(burst_probability=1.5)
