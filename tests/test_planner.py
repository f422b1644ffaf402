import math

import numpy as np
import pytest

from uwoclink.channel import MAX_DISTANCE_M, LinkGeometry, attenuation_db
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

GREEN_C_DB_PER_M = 0.358
BLUE_C_DB_PER_M = 0.298
GREEN_GEO = LinkGeometry(30.0, 0.53, 0.0, 0.046)
BLUE_GEO = LinkGeometry(30.0, 3.83, 0.0, 0.008)

# calibrated inverse-square constants recovered from the published ranges
K_GREEN = 1.198
K_BLUE = 9.67e-3


def margin_db(spec, z):
    """Budget headroom of the aligned link at distance z."""
    return spec.budget_db - path_loss_db(spec.c_db_per_m, spec.geometry, z)


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
        sol = max_distance_m(82.77, GREEN_C_DB_PER_M)
        assert sol.mode == WITHOUT_GEOMETRY and sol.k_used_m2 is None
        assert sol.max_distance_m == pytest.approx(231.20, abs=0.01)
        # published estimate: 231.6 m, tolerance 0.5%
        assert abs(sol.max_distance_m - 231.6) / 231.6 < 0.005

    def test_blue_range(self):
        sol = max_distance_m(100.54, BLUE_C_DB_PER_M)
        assert sol.max_distance_m == pytest.approx(337.38, abs=0.01)
        assert abs(sol.max_distance_m - 337.5) / 337.5 < 0.005

    def test_closed_form_agrees_with_bisection(self):
        closed = max_distance_m(82.77, GREEN_C_DB_PER_M)
        z = _bisect_increasing(
            lambda z: 0.358 * z - 82.77, 1e-3, 82.77 / 0.358 + 1.0)
        assert abs(closed.max_distance_m - z) < 1e-6


class TestMaxDistanceWithGeometry:
    def test_green_calibrated_k(self):
        geo = LinkGeometry(30.0, 0.53, 0.0, 0.046, k_override_m2=K_GREEN)
        sol = max_distance_m(82.77, GREEN_C_DB_PER_M, geo)
        assert sol.mode == WITH_GEOMETRY
        assert abs(sol.max_distance_m - 117.7) / 117.7 < 0.001
        assert abs(sol.residual_db) < 1e-6
        assert sol.k_used_m2 == K_GREEN

    def test_blue_calibrated_k(self):
        geo = LinkGeometry(30.0, 3.83, 0.0, 0.008, k_override_m2=K_BLUE)
        sol = max_distance_m(100.54, BLUE_C_DB_PER_M, geo)
        assert abs(sol.max_distance_m - 128.3) / 128.3 < 0.001
        assert abs(sol.residual_db) < 1e-6

    def test_physical_model_converges(self):
        sol = max_distance_m(82.77, GREEN_C_DB_PER_M, GREEN_GEO)
        assert abs(sol.residual_db) < 1e-6
        assert 0 < sol.max_distance_m < 231.2

    def test_monotone_in_budget_and_attenuation(self):
        geo = LinkGeometry(30.0, 0.53, 0.0, 0.046, k_override_m2=K_GREEN)
        prev = 0.0
        for budget in (60.0, 70.0, 80.0, 90.0):
            d = max_distance_m(budget, GREEN_C_DB_PER_M, geo)
            assert d.max_distance_m > prev
            prev = d.max_distance_m
        prev = math.inf
        for c_db in (0.2, 0.3, 0.4, 0.5):
            d = max_distance_m(82.77, c_db, geo)
            assert d.max_distance_m < prev
            prev = d.max_distance_m

    def test_range_past_the_box_names_the_bound(self):
        # at 0.001 dB/m the beam spreads by 72 dB over 10 km, and attenuation
        # adds 10: the 82.77 dB budget still holds there
        with pytest.raises(SolverError, match="with_geometry range passes "
                                              "MAX_DISTANCE_M = 10000 m"):
            max_distance_m(82.77, 0.001, GREEN_GEO)
        # without spread the quotient, 82,770 m, passes it too
        with pytest.raises(SolverError, match="without_geometry range passes "
                                              "MAX_DISTANCE_M = 10000 m"):
            max_distance_m(82.77, 0.001)

    def test_range_past_float_range_rejected(self):
        # 82.77 / 5e-324 is inf
        with pytest.raises(SolverError, match="range passes MAX_DISTANCE_M = 10000 m"):
            max_distance_m(82.77, 5e-324)

    def test_clear_water(self):
        # no attenuation: without spread nothing closes the budget, with it
        # green's narrow beam loses 72 dB over 10 km and blue's closes it
        for mode, geometry in ((WITHOUT_GEOMETRY, None), (WITH_GEOMETRY, GREEN_GEO)):
            with pytest.raises(SolverError, match=f"the {mode} range passes "
                                                  "MAX_DISTANCE_M = 10000 m"):
                max_distance_m(82.77, 0.0, geometry)
        sol = max_distance_m(100.54, 0.0, BLUE_GEO)
        assert 0 < sol.max_distance_m < MAX_DISTANCE_M
        assert abs(sol.residual_db) < 1e-6

    @pytest.mark.parametrize("budget_db", [0.0, -1.0])
    @pytest.mark.parametrize("geometry", [None, GREEN_GEO], ids=["without", "with"])
    def test_budget_not_above_zero_rejected(self, budget_db, geometry):
        with pytest.raises(ValueError, match="budget_db must be > 0"):
            max_distance_m(budget_db, GREEN_C_DB_PER_M, geometry)

    @pytest.mark.parametrize("budget_db", [1e-300, 1e-4, 0.3])
    def test_short_range_solved_from_zero(self, budget_db):
        # the bracket starts at 0, where nothing is lost; a budget of 1e-4 dB
        # used to find no sign change in [0.001, 1]. With the spot inside the
        # aperture the range is the attenuation-only one, to the last digits
        for c_db, geometry in ((GREEN_C_DB_PER_M, GREEN_GEO), (BLUE_C_DB_PER_M, BLUE_GEO)):
            with_geo = max_distance_m(budget_db, c_db, geometry)
            without = max_distance_m(budget_db, c_db)
            assert 0 < with_geo.max_distance_m <= without.max_distance_m * (1 + 1e-12)
            assert abs(with_geo.residual_db) < 1e-6
        sol = max_distance_m(budget_db, GREEN_C_DB_PER_M, GREEN_GEO)
        assert sol.max_distance_m == pytest.approx(budget_db / GREEN_C_DB_PER_M, rel=1e-12)

    def test_negative_attenuation_rejected(self):
        with pytest.raises(ValueError, match="c_db_per_m must be >= 0"):
            max_distance_m(82.77, -0.1)

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
        for budget, c_db, target in ((82.77, GREEN_C_DB_PER_M, 117.7),
                                     (100.54, BLUE_C_DB_PER_M, 128.3)):
            k = back_solve_k(budget, c_db, target)
            geo = LinkGeometry(30.0, 1.0, 0.0, 0.05, k_override_m2=k)
            sol = max_distance_m(budget, c_db, geo)
            assert sol.max_distance_m == pytest.approx(target, abs=1e-3)

    @pytest.mark.parametrize("target", [0.0, -1.0])
    def test_target_not_above_zero_rejected(self, target):
        with pytest.raises(ValueError, match="target_distance_m must be > 0"):
            back_solve_k(82.77, 0.358, target)

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
        sol = max_distance_m(green.budget_db, green.c_db_per_m)
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
        with pytest.raises(ValueError, match=rf"{bound} must be in \[0, 10000\] m"):
            distance_curve(green, bounds["z_min"], bounds["z_max"], 10)

    @pytest.mark.parametrize("bound", ["z_min", "z_max"])
    @pytest.mark.parametrize("value", [-1e-300, math.nextafter(MAX_DISTANCE_M, math.inf)])
    def test_bound_past_the_box_rejected(self, green, bound, value):
        bounds = {"z_min": 1.0, "z_max": 100.0, bound: value}
        with pytest.raises(ValueError, match=rf"{bound} must be in \[0, 10000\] m"):
            distance_curve(green, bounds["z_min"], bounds["z_max"], 10)

    def test_longest_curve_is_finite(self, green):
        rows = distance_curve(green, 0.0, MAX_DISTANCE_M, 3)
        assert rows[-1]["z_m"] == MAX_DISTANCE_M
        assert all(math.isfinite(value) for row in rows for value in row.values())


class TestPathLoss:
    def test_without_geometry_is_pure_attenuation(self, green):
        [row] = [r for r in distance_curve(green, 50.0, 100.0, 2) if r["z_m"] == 100.0]
        assert row["loss_db_without"] == attenuation_db(green.c_db_per_m, 100.0)
        assert attenuation_db(GREEN_C_DB_PER_M, 100.0) == pytest.approx(35.8)

    def test_planner_ignores_pointing_offset(self):
        offset_geo = LinkGeometry(30.0, 0.53, 0.0, 0.046, pointing_offset_m=5.0)
        assert path_loss_db(GREEN_C_DB_PER_M, offset_geo, 30.0) == pytest.approx(
            path_loss_db(GREEN_C_DB_PER_M, GREEN_GEO, 30.0))
