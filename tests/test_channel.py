import math
from dataclasses import replace

import numpy as np
import pytest

from uwoclink.channel import (
    FadingSpec,
    LinkGeometry,
    NlosPath,
    WaterOptics,
    attenuation_db,
    collected_fraction,
    disc_overlap_fraction,
    geometric_loss_db,
    pointing_loss_db,
    sample_fading_db,
    spot_diameter_m,
    total_loss_db,
)
from uwoclink.engine import run_scenario

GREEN_WATER = WaterOptics(0.082, 0.358)
BLUE_WATER = WaterOptics(0.069, 0.298)
GREEN_GEO = LinkGeometry(distance_m=30.0, half_angle_deg=0.53,
                         tx_exit_diameter_m=0.0, rx_aperture_m=0.046)
BLUE_GEO = LinkGeometry(distance_m=30.0, half_angle_deg=3.83,
                        tx_exit_diameter_m=0.0, rx_aperture_m=0.008)


class TestWaterOptics:
    def test_paper_pairs_are_consistent(self):
        # rounded published pairs must pass the 1% cross-check
        WaterOptics(0.082, 0.358)
        WaterOptics(0.069, 0.298)

    def test_db_conversion_factor(self):
        w = WaterOptics.from_per_m(1.0)
        assert w.c_db_per_m == pytest.approx(10.0 / math.log(10.0))

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(ValueError):
            WaterOptics(0.082, 0.50)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            WaterOptics.from_per_m(-0.1)


class TestAttenuation:
    def test_zero_distance(self):
        assert attenuation_db(GREEN_WATER, 0.0) == 0.0

    def test_green_30m(self):
        assert attenuation_db(GREEN_WATER, 30.0) == pytest.approx(10.74)

    def test_blue_full_range_matches_budget(self):
        # attenuation at the no-geometry range limit must equal the blue
        # budget to within 0.05%
        loss = attenuation_db(BLUE_WATER, 337.5)
        assert loss == pytest.approx(100.54, rel=5e-4)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            attenuation_db(GREEN_WATER, -1.0)

    def test_additivity(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            z1, z2 = rng.uniform(0, 500, 2)
            whole = attenuation_db(GREEN_WATER, z1 + z2)
            parts = attenuation_db(GREEN_WATER, z1) + attenuation_db(GREEN_WATER, z2)
            assert whole == pytest.approx(parts, rel=1e-12)


class TestSpotDiameter:
    def test_zero_propagation_returns_exit_diameter(self):
        g = LinkGeometry(0.0, 5.0, tx_exit_diameter_m=0.004, rx_aperture_m=0.01)
        assert spot_diameter_m(g) == 0.004

    def test_green_spot_at_30m(self):
        assert spot_diameter_m(GREEN_GEO) == pytest.approx(0.555, abs=1e-3)

    def test_blue_spot_at_30m(self):
        # 2 * 30 * tan(3.83 deg)
        assert spot_diameter_m(BLUE_GEO) == pytest.approx(4.0168, abs=1e-3)


class TestGeometricLoss:
    def test_spot_inside_aperture_is_lossless(self):
        g = LinkGeometry(2.0, 0.5, tx_exit_diameter_m=0.005, rx_aperture_m=0.046)
        assert spot_diameter_m(g) < g.rx_aperture_m
        assert geometric_loss_db(g) == 0.0

    def test_green_at_30m(self):
        assert geometric_loss_db(GREEN_GEO) == pytest.approx(21.63, abs=0.01)

    def test_blue_at_30m(self):
        assert geometric_loss_db(BLUE_GEO) == pytest.approx(54.02, abs=0.01)

    def test_monotone_in_distance(self):
        losses = [
            geometric_loss_db(LinkGeometry(z, 0.53, 0.0, 0.046))
            for z in np.linspace(0.0, 300.0, 50)
        ]
        assert all(b >= a for a, b in zip(losses, losses[1:]))

    def test_far_field_matches_inverse_square(self):
        # collected fraction ~ k/Z^2 with k = (aperture / (2 tan phi))^2
        phi = math.radians(0.53)
        k = (0.046 / (2.0 * math.tan(phi))) ** 2
        for z in np.linspace(50.0, 500.0, 10):
            g = LinkGeometry(z, 0.53, 1e-3, 0.046)
            expected = 10.0 * math.log10(z * z / k)
            assert geometric_loss_db(g) == pytest.approx(expected, abs=0.1)

    def test_k_override(self):
        g = LinkGeometry(100.0, 0.53, 0.0, 0.046, k_override_m2=1.198)
        assert geometric_loss_db(g) == pytest.approx(
            10.0 * math.log10(100.0**2 / 1.198))

    def test_k_override_clamps_nonnegative(self):
        g = LinkGeometry(0.5, 0.53, 0.0, 0.046, k_override_m2=1.198)
        assert geometric_loss_db(g) == 0.0

    def test_k_override_singular_at_zero(self):
        g = LinkGeometry(0.0, 0.53, 0.0, 0.046, k_override_m2=1.198)
        with pytest.raises(ValueError):
            collected_fraction(g)


class TestPointing:
    def test_aligned_covering_spot_is_lossless(self):
        loss, dark = pointing_loss_db(GREEN_GEO)
        assert loss == 0.0 and not dark

    def test_disjoint_discs_flag_dark(self):
        spot = spot_diameter_m(GREEN_GEO)
        g = LinkGeometry(30.0, 0.53, 0.0, 0.046,
                         pointing_offset_m=(spot + 0.046) / 2 + 0.01)
        loss, dark = pointing_loss_db(g)
        assert dark

    def test_edge_offset_tiny_aperture_is_half_power(self):
        spot = spot_diameter_m(GREEN_GEO)
        g = LinkGeometry(30.0, 0.53, 0.0, 0.0005, pointing_offset_m=spot / 2)
        loss, dark = pointing_loss_db(g)
        assert not dark
        assert loss == pytest.approx(3.01, abs=0.02)

    def test_overlap_fraction_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            spot_d = rng.uniform(0.01, 2.0)
            ap_d = rng.uniform(0.001, 1.0)
            off = rng.uniform(0.0, 2.0)
            frac = disc_overlap_fraction(spot_d, ap_d, off)
            assert 0.0 <= frac <= 1.0 + 1e-12

    @pytest.mark.parametrize("spot_d,ap_d,off", [
        (0.555, 0.046, 0.2775),
        (0.555, 0.046, 0.15),
        (1.0, 0.8, 0.6),
    ])
    def test_overlap_against_monte_carlo(self, spot_d, ap_d, off):
        # 1e6-point MC integration of the aperture-disc area inside the spot
        rng = np.random.default_rng(12345)
        n = 10**6
        ang = rng.uniform(0.0, 2.0 * math.pi, n)
        rad = (ap_d / 2.0) * np.sqrt(rng.uniform(0.0, 1.0, n))
        x = off + rad * np.cos(ang)
        y = rad * np.sin(ang)
        mc = np.mean(x * x + y * y <= (spot_d / 2.0) ** 2)
        closed = disc_overlap_fraction(spot_d, ap_d, off)
        sigma = math.sqrt(max(closed * (1 - closed), 1e-12) / n)
        assert abs(closed - mc) < max(3.0 * sigma, 2e-4)


class TestNlosExcess:
    """total_loss_db's NLOS excess is the reflection penalty alone; the
    bounce's extra spread is part of the unfolded path's geometric loss."""

    def test_perfect_mirror_equal_path_has_no_excess(self):
        bd = total_loss_db(BLUE_GEO, BLUE_WATER, NlosPath(1.0, BLUE_GEO))
        assert bd.nlos_excess_db == 0.0 and not bd.link_dark
        assert bd.total_db == total_loss_db(BLUE_GEO, BLUE_WATER).total_db

    def test_reflectance_penalty_is_log10(self):
        unfolded = LinkGeometry(34.0, 3.83, 0.0, 0.008)
        bd = total_loss_db(BLUE_GEO, BLUE_WATER, NlosPath(0.1, unfolded))
        assert bd.nlos_excess_db == pytest.approx(10.0)
        assert bd.geometric_db == geometric_loss_db(unfolded)
        assert not bd.link_dark

    def test_deep_sea_preset_value(self):
        # reflectance 0.05 over a 34 m bounce vs the 30 m direct path: a
        # 13.0103 dB excess, and 55.103 - 54.018 dB of extra spread,
        # evaluated by hand, inside the geometric term
        unfolded = LinkGeometry(34.0, 3.83, 0.0, 0.008)
        bd = total_loss_db(BLUE_GEO, BLUE_WATER, NlosPath(0.05, unfolded))
        assert bd.nlos_excess_db == pytest.approx(13.0103, abs=1e-3)
        assert bd.geometric_db - geometric_loss_db(BLUE_GEO) == \
            pytest.approx(1.085, abs=0.01)

    def test_zero_reflectance_flags_dark(self):
        bd = total_loss_db(BLUE_GEO, BLUE_WATER, NlosPath(0.0, BLUE_GEO))
        assert bd.link_dark


class TestTotalLoss:
    def test_green_aligned_at_30m(self):
        bd = total_loss_db(GREEN_GEO, GREEN_WATER)
        assert bd.attenuation_db == pytest.approx(10.74)
        assert bd.geometric_db == pytest.approx(21.63, abs=0.01)
        assert bd.pointing_db == 0.0
        assert bd.total_db == pytest.approx(32.37, abs=0.01)
        assert 82.77 - bd.total_db == pytest.approx(50.40, abs=0.01)

    def test_zero_distance_covering_spot(self):
        g = LinkGeometry(0.0, 0.53, 0.005, 0.046)
        bd = total_loss_db(g, GREEN_WATER)
        assert bd.total_db == 0.0
        assert not bd.link_dark

    def test_blue_nlos_preset_components(self):
        nlos = NlosPath(0.05, LinkGeometry(34.0, 3.83, 0.0, 0.008))
        bd = total_loss_db(BLUE_GEO, BLUE_WATER, nlos=nlos)
        assert bd.attenuation_db == pytest.approx(0.298 * 34.0)
        assert bd.geometric_db == pytest.approx(55.10, abs=0.01)
        assert bd.nlos_excess_db == pytest.approx(13.0103, abs=1e-3)
        assert bd.total_db == pytest.approx(78.245, abs=0.02)

    def test_total_is_component_sum(self):
        nlos = NlosPath(0.3, LinkGeometry(40.0, 3.83, 0.0, 0.008))
        bd = total_loss_db(BLUE_GEO, BLUE_WATER, nlos=nlos)
        parts = (bd.attenuation_db + bd.geometric_db + bd.pointing_db
                 + bd.nlos_excess_db)
        assert bd.total_db == pytest.approx(parts, rel=1e-12)

    def test_strictly_increasing_with_distance(self):
        prev = -1.0
        for z in np.linspace(1.0, 200.0, 40):
            g = LinkGeometry(z, 0.53, 0.0, 0.046)
            total = total_loss_db(g, GREEN_WATER).total_db
            assert total > prev
            prev = total

    def test_zero_fading_leaves_total_unchanged(self, green):
        # the engine adds each second's fading draw to the static total
        still = replace(green, fading=FadingSpec())
        static = total_loss_db(still.geometry, still.water, still.nlos).total_db
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

    def test_burst_adds_depth(self):
        rng = np.random.default_rng(5)
        spec = FadingSpec(sigma_db=0.0, burst_probability=1.0, burst_depth_db=7.5)
        assert sample_fading_db(spec, rng) == 7.5

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            FadingSpec(sigma_db=-1.0)
        with pytest.raises(ValueError):
            FadingSpec(burst_probability=1.5)
