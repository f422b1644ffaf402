"""Link-budget planning: margin vs distance and maximum-range solving.

Ranges assume an aligned direct path (the seabed bounce and pointing offset
are simulation concerns, not planning ones). The with-geometry mode uses
either the physical aperture/divergence spot model or a calibrated
inverse-square constant k when the geometry carries an override.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

from .channel import LinkGeometry, WaterOptics, attenuation_db, geometric_loss_db
from .engine import LinkSpec

WITH_GEOMETRY = "with_geometry"
WITHOUT_GEOMETRY = "without_geometry"

_BISECTION_STEPS = 120
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


def _aligned_at(geometry: LinkGeometry, z: float) -> LinkGeometry:
    return replace(geometry, distance_m=z, pointing_offset_m=0.0)


def path_loss_db(water: WaterOptics, geometry: LinkGeometry, z: float,
                 include_geometry: bool = True) -> float:
    """Aligned direct-path loss at distance z."""
    loss = attenuation_db(water, z)
    if include_geometry:
        loss += geometric_loss_db(_aligned_at(geometry, z))
    return loss


def _bisect_increasing(f, lo: float, hi: float) -> float:
    f_lo, f_hi = f(lo), f(hi)
    if f_lo > 0 or f_hi < 0:
        raise SolverError(
            f"no sign change in bracket [{lo:.3g}, {hi:.3g}] "
            f"(f(lo)={f_lo:.3g}, f(hi)={f_hi:.3g})"
        )
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def max_distance_m(budget_db: float, water: WaterOptics,
                   geometry: LinkGeometry | None = None,
                   mode: str = WITH_GEOMETRY) -> RangeSolution:
    """Largest distance whose total loss still fits inside the budget."""
    if budget_db <= 0:
        raise ValueError("budget_db must be > 0")
    if water.c_db_per_m <= 0:
        raise ValueError("attenuation coefficient must be > 0 to bound range")

    if mode == WITHOUT_GEOMETRY:
        z = budget_db / water.c_db_per_m
        residual = budget_db - attenuation_db(water, z)
        return RangeSolution(z, residual, mode, None)
    if mode != WITH_GEOMETRY:
        raise ValueError(f"unknown mode {mode!r}")
    if geometry is None:
        raise ValueError("with_geometry mode requires a LinkGeometry")

    def f(z: float) -> float:
        return path_loss_db(water, geometry, z) - budget_db

    hi = budget_db / water.c_db_per_m + 1.0
    z = _bisect_increasing(f, 1e-3, hi)
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


def distance_curve(spec: LinkSpec, z_min: float, z_max: float, n_points: int):
    """Loss-vs-distance table, with and without geometry, for plotting
    against the budget line."""
    for bound, z in (("z_min", z_min), ("z_max", z_max)):
        if not math.isfinite(z):
            raise ValueError(f"{bound} must be finite, got {z}")
    if not z_min < z_max:
        raise ValueError("z_min must be < z_max")
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    step = (z_max - z_min) / (n_points - 1)
    rows = []
    for i in range(n_points):
        z = z_min + i * step
        rows.append({
            "z_m": z,
            "budget_db": spec.budget_db,
            "loss_db_with_geometry": path_loss_db(
                spec.water, spec.geometry, z, include_geometry=True),
            "loss_db_without": path_loss_db(
                spec.water, spec.geometry, z, include_geometry=False),
        })
    return rows
