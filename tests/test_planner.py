import math

import numpy as np
import pytest

from uwoclink.channel import LinkGeometry, WaterOptics
from uwoclink.planner import (
    WITH_GEOMETRY,
    WITHOUT_GEOMETRY,
    SolverError,
    _bisect_increasing,
    back_solve_k,
    distance_curve,
    max_distance_m,
    path_loss_db,
)

GREEN_WATER = WaterOptics(0.082, 0.358)
BLUE_WATER = WaterOptics(0.069, 0.298)
GREEN_GEO = LinkGeometry(30.0, 0.53, 0.0, 0.046)
BLUE_GEO = LinkGeometry(30.0, 3.83, 0.0, 0.008)

# calibrated inverse-square constants recovered from the published ranges
K_GREEN = 1.198
K_BLUE = 9.67e-3


def margin_db(spec, z):
    """Budget headroom of the aligned link at distance z."""
    return spec.budget_db - path_loss_db(spec.water, spec.geometry, z)


class TestMargin:
    def test_green_margin_at_30m(self, green):
        assert margin_db(green, 30.0) == pytest.approx(50.40, abs=0.01)

    def test_zero_distance_margin_is_budget(self, green):
        # the spot sits inside the aperture at z=0, so nothing is lost
        assert margin_db(green, 0.0) == pytest.approx(green.budget_db)

    def test_margin_strictly_decreasing(self, green):
        margins = [margin_db(green, z) for z in np.linspace(1.0, 200.0, 50)]
        assert all(b < a for a, b in zip(margins, margins[1:]))


class TestMaxDistanceWithoutGeometry:
    def test_green_range(self):
        sol = max_distance_m(82.77, GREEN_WATER, mode=WITHOUT_GEOMETRY)
        assert sol.max_distance_m == pytest.approx(231.20, abs=0.01)
        # published estimate: 231.6 m, tolerance 0.5%
        assert abs(sol.max_distance_m - 231.6) / 231.6 < 0.005

    def test_blue_range(self):
        sol = max_distance_m(100.54, BLUE_WATER, mode=WITHOUT_GEOMETRY)
        assert sol.max_distance_m == pytest.approx(337.38, abs=0.01)
        assert abs(sol.max_distance_m - 337.5) / 337.5 < 0.005

    def test_closed_form_agrees_with_bisection(self):
        closed = max_distance_m(82.77, GREEN_WATER, mode=WITHOUT_GEOMETRY)
        z = _bisect_increasing(
            lambda z: 0.358 * z - 82.77, 1e-3, 82.77 / 0.358 + 1.0)
        assert abs(closed.max_distance_m - z) < 1e-6


class TestMaxDistanceWithGeometry:
    def test_green_calibrated_k(self):
        geo = LinkGeometry(30.0, 0.53, 0.0, 0.046, k_override_m2=K_GREEN)
        sol = max_distance_m(82.77, GREEN_WATER, geo, WITH_GEOMETRY)
        assert abs(sol.max_distance_m - 117.7) / 117.7 < 0.001
        assert abs(sol.residual_db) < 1e-6
        assert sol.k_used_m2 == K_GREEN

    def test_blue_calibrated_k(self):
        geo = LinkGeometry(30.0, 3.83, 0.0, 0.008, k_override_m2=K_BLUE)
        sol = max_distance_m(100.54, BLUE_WATER, geo, WITH_GEOMETRY)
        assert abs(sol.max_distance_m - 128.3) / 128.3 < 0.001
        assert abs(sol.residual_db) < 1e-6

    def test_physical_model_converges(self):
        sol = max_distance_m(82.77, GREEN_WATER, GREEN_GEO, WITH_GEOMETRY)
        assert abs(sol.residual_db) < 1e-6
        assert 0 < sol.max_distance_m < 231.2

    def test_monotone_in_budget_and_attenuation(self):
        geo = LinkGeometry(30.0, 0.53, 0.0, 0.046, k_override_m2=K_GREEN)
        prev = 0.0
        for budget in (60.0, 70.0, 80.0, 90.0):
            d = max_distance_m(budget, GREEN_WATER, geo, WITH_GEOMETRY)
            assert d.max_distance_m > prev
            prev = d.max_distance_m
        prev = math.inf
        for c_db in (0.2, 0.3, 0.4, 0.5):
            water = WaterOptics.from_db_per_m(c_db)
            d = max_distance_m(82.77, water, geo, WITH_GEOMETRY)
            assert d.max_distance_m < prev
            prev = d.max_distance_m

    def test_requires_geometry(self):
        with pytest.raises(ValueError):
            max_distance_m(82.77, GREEN_WATER, None, WITH_GEOMETRY)

    def test_solver_error_diagnostic(self):
        with pytest.raises(SolverError, match="no sign change"):
            _bisect_increasing(lambda z: z + 1.0, 0.0, 1.0)


class TestBackSolveK:
    def test_green_value(self):
        k = back_solve_k(82.77, 0.358, 117.7)
        assert k == pytest.approx(1.1973, abs=2e-3)
        assert k == pytest.approx(K_GREEN, rel=1e-3)

    def test_blue_value(self):
        k = back_solve_k(100.54, 0.298, 128.3)
        assert k == pytest.approx(9.678e-3, abs=2e-5)
        assert k == pytest.approx(K_BLUE, rel=1e-3)

    def test_roundtrip_with_solver(self):
        for budget, water, target in ((82.77, GREEN_WATER, 117.7),
                                      (100.54, BLUE_WATER, 128.3)):
            k = back_solve_k(budget, water.c_db_per_m, target)
            geo = LinkGeometry(30.0, 1.0, 0.0, 0.05, k_override_m2=k)
            sol = max_distance_m(budget, water, geo, WITH_GEOMETRY)
            assert sol.max_distance_m == pytest.approx(target, abs=1e-3)

    def test_attenuation_exceeding_budget_rejected(self):
        with pytest.raises(ValueError, match="exceeds the budget"):
            back_solve_k(10.0, 0.358, 100.0)


class TestDistanceCurve:
    def test_endpoints_only(self, green):
        rows = distance_curve(green, 10.0, 100.0, 2)
        assert len(rows) == 2
        assert rows[0]["z_m"] == 10.0
        assert rows[-1]["z_m"] == 100.0

    def test_crossing_brackets_solver_result(self, green):
        sol = max_distance_m(green.budget_db, green.water, mode=WITHOUT_GEOMETRY)
        rows = distance_curve(green, 1.0, 300.0, 300)
        crossing = None
        for a, b in zip(rows, rows[1:]):
            if (a["loss_db_without"] <= green.budget_db
                    < b["loss_db_without"]):
                crossing = (a["z_m"], b["z_m"])
        assert crossing is not None
        assert crossing[0] <= sol.max_distance_m <= crossing[1]

    def test_with_geometry_curve_dominates(self, green):
        rows = distance_curve(green, 5.0, 250.0, 50)
        for row in rows:
            spot_exceeds = row["z_m"] > 1.0  # spot > 46 mm beyond ~2.5 m
            if spot_exceeds:
                assert row["loss_db_with_geometry"] >= row["loss_db_without"]

    def test_validation(self, green):
        with pytest.raises(ValueError):
            distance_curve(green, 10.0, 5.0, 10)
        with pytest.raises(ValueError):
            distance_curve(green, 1.0, 10.0, 1)

    @pytest.mark.parametrize("bound", ["z_min", "z_max"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_bound_rejected(self, green, bound, value):
        bounds = {"z_min": 1.0, "z_max": 100.0, bound: value}
        with pytest.raises(ValueError, match=f"{bound} must be finite"):
            distance_curve(green, bounds["z_min"], bounds["z_max"], 10)


class TestPathLoss:
    def test_without_geometry_is_pure_attenuation(self):
        assert path_loss_db(GREEN_WATER, GREEN_GEO, 100.0,
                            include_geometry=False) == pytest.approx(35.8)

    def test_planner_ignores_pointing_offset(self):
        offset_geo = LinkGeometry(30.0, 0.53, 0.0, 0.046, pointing_offset_m=5.0)
        assert path_loss_db(GREEN_WATER, offset_geo, 30.0) == pytest.approx(
            path_loss_db(GREEN_WATER, GREEN_GEO, 30.0))
