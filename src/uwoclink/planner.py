"""Link-budget planning: margin vs distance and maximum-range solving.

Ranges are those of the direct path (the seabed bounce is a simulation
concern, not a planning one). A range with a geometry uses either the
physical aperture/divergence spot model or a calibrated inverse-square
constant k when the geometry carries an override. Either way the loss at 0 m
is 0 dB: a point source's spot is 0 wide, and k / z^2 caps at all of it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

from .channel import MAX_DISTANCE_M, LinkGeometry, attenuation_db, geometric_loss_db
from .engine import LinkSpec

WITH_GEOMETRY = "with_geometry"
WITHOUT_GEOMETRY = "without_geometry"

_RESIDUAL_LIMIT_DB = 1e-6


class SolverError(RuntimeError):
    """Raised when the range solver cannot bracket or close on a root."""


@dataclass(frozen=True)
class RangeSolution:
    max_distance_m: float
    residual_db: float
    mode: str
    k_used_m2: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def path_loss_db(c_db_per_m: float, geometry: LinkGeometry, z: float) -> float:
    """Direct-path loss at distance z."""
    return (attenuation_db(c_db_per_m, z)
            + geometric_loss_db(replace(geometry, distance_m=z)))


def _bisect_increasing(f, lo: float, hi: float) -> float:
    """The root of an increasing ``f`` in [lo, hi], halving until the two
    ends are neighbouring floats, so a root near 0 keeps its precision."""
    f_lo, f_hi = f(lo), f(hi)
    if f_lo > 0 or f_hi < 0:
        raise SolverError(
            f"no sign change in bracket [{lo:.3g}, {hi:.3g}] "
            f"(f(lo)={f_lo:.3g}, f(hi)={f_hi:.3g})"
        )
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return mid


def max_distance_m(budget_db: float, c_db_per_m: float,
                   geometry: LinkGeometry | None = None) -> RangeSolution:
    """Largest distance whose total loss still fits inside the budget: the
    attenuation-only range without a geometry, the aligned path's with one."""
    if budget_db <= 0:
        raise ValueError("budget_db must be > 0")
    if c_db_per_m < 0:
        raise ValueError("c_db_per_m must be >= 0")
    mode = WITHOUT_GEOMETRY if geometry is None else WITH_GEOMETRY
    past_bound = SolverError(
        f"the {mode} range passes MAX_DISTANCE_M = {MAX_DISTANCE_M:g} m")
    # the range without spread; clear water (c = 0) has none
    z_attenuation = budget_db / c_db_per_m if c_db_per_m else math.inf

    if geometry is None:
        if z_attenuation > MAX_DISTANCE_M:
            raise past_bound
        residual = budget_db - attenuation_db(c_db_per_m, z_attenuation)
        return RangeSolution(z_attenuation, residual, mode, None)

    def f(z: float) -> float:
        return path_loss_db(c_db_per_m, geometry, z) - budget_db

    hi = min(z_attenuation + 1.0, MAX_DISTANCE_M)
    if f(hi) < 0:  # only a clamped bracket: c hi > budget_db otherwise
        raise past_bound
    z = _bisect_increasing(f, 0.0, hi)
    residual = -f(z)
    if abs(residual) > _RESIDUAL_LIMIT_DB:
        raise SolverError(f"bisection stalled with residual {residual:.3g} dB")
    return RangeSolution(z, residual, mode, geometry.k_override_m2)


def back_solve_k(budget_db: float, c_db_per_m: float,
                 target_distance_m: float) -> float:
    """Geometry constant making the budget close exactly at the target range.

    Inverts budget = c*Z + 10*log10(Z^2 / k) for k.
    """
    if target_distance_m <= 0:
        raise ValueError("target_distance_m must be > 0")
    remaining = budget_db - c_db_per_m * target_distance_m
    if remaining <= 0:
        raise ValueError(
            f"attenuation alone ({c_db_per_m * target_distance_m:.2f} dB) "
            f"exceeds the budget ({budget_db:.2f} dB) at {target_distance_m} m"
        )
    return target_distance_m**2 * 10.0 ** (-remaining / 10.0)


def check_curve_span(z_min: float, z_max: float, n_points: int):
    """Raise ValueError unless ``distance_curve`` can tabulate this span."""
    for bound, z in (("z_min", z_min), ("z_max", z_max)):
        if not 0.0 <= z <= MAX_DISTANCE_M:
            raise ValueError(f"{bound} must be in [0, {MAX_DISTANCE_M:g}] m, got {z}")
    if not z_min < z_max:
        raise ValueError("z_min must be < z_max")
    if n_points < 2:
        raise ValueError("n_points must be >= 2")


def distance_curve(spec: LinkSpec, z_min: float, z_max: float, n_points: int):
    """Loss-vs-distance table, with and without geometry, for plotting
    against the budget line."""
    check_curve_span(z_min, z_max, n_points)
    step = (z_max - z_min) / (n_points - 1)
    rows = []
    for i in range(n_points):
        z = z_min + i * step
        rows.append({
            "z_m": z,
            "budget_db": spec.budget_db,
            "loss_db_with_geometry": path_loss_db(spec.c_db_per_m, spec.geometry, z),
            "loss_db_without": attenuation_db(spec.c_db_per_m, z),
        })
    return rows
