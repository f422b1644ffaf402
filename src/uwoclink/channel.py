"""Optical channel model for underwater laser links.

Deterministic losses (water attenuation, beam spread onto an aligned
aperture, seabed-bounce excess) plus a log-normal/burst fading abstraction.
All losses are positive dB; received power follows from transmitted power
minus the total. Everything here is a pure function of its inputs; the
fading sampler takes an explicit numpy generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

MAX_DISTANCE_M = 1e4  # longest path, bounce or planned range the model takes


@dataclass(frozen=True)
class LinkGeometry:
    """One directed, aligned beam path: length, divergence, receive aperture.

    The beam leaves from a point, so its spot is 2 z tan(half_angle) wide.
    ``k_override_m2`` replaces the physical aperture/divergence model with a
    calibrated inverse-square constant (collected fraction = k / Z^2).
    """

    distance_m: float
    half_angle_deg: float
    rx_aperture_m: float
    k_override_m2: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.distance_m <= MAX_DISTANCE_M:
            raise ValueError(f"distance_m must be in [0, {MAX_DISTANCE_M:g}] m")
        if not 0.01 <= self.half_angle_deg <= 60.0:
            raise ValueError("half_angle_deg must be in [0.01, 60] degrees")
        if not 1e-4 <= self.rx_aperture_m <= 10.0:
            raise ValueError("rx_aperture_m must be in [1e-4, 10] m")
        if self.k_override_m2 is not None and not 1e-12 <= self.k_override_m2 <= 1e6:
            raise ValueError("k_override_m2 must be in [1e-12, 1e6] m^2")


@dataclass(frozen=True)
class NlosPath:
    """Seabed-bounce description: scalar reflectance on an unfolded path."""

    reflectance: float
    unfolded_distance_m: float

    def __post_init__(self):
        if not 0.0 < self.reflectance <= 1.0:
            raise ValueError("reflectance must be in (0, 1]")
        if not 0.0 <= self.unfolded_distance_m <= MAX_DISTANCE_M:
            raise ValueError(f"unfolded_distance_m must be in [0, {MAX_DISTANCE_M:g}] m")


@dataclass(frozen=True)
class FadingSpec:
    """Per-second fading draw: log-normal wobble plus rare deep bursts."""

    sigma_db: float = 0.0
    burst_probability: float = 0.0
    burst_depth_db: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.sigma_db <= 30.0:
            raise ValueError("sigma_db must be in [0, 30] dB")
        if not 0.0 <= self.burst_probability <= 1.0:
            raise ValueError("burst_probability must be in [0, 1]")
        if not 0.0 <= self.burst_depth_db <= 100.0:
            raise ValueError("burst_depth_db must be in [0, 100] dB")


@dataclass(frozen=True)
class LossBreakdown:
    """Per-mechanism dB losses."""

    attenuation_db: float
    geometric_db: float
    nlos_excess_db: float = 0.0

    @property
    def total_db(self) -> float:
        return self.attenuation_db + self.geometric_db + self.nlos_excess_db


def attenuation_db(c_db_per_m: float, distance_m: float) -> float:
    """Water-column loss over ``distance_m`` at ``c_db_per_m`` dB/m
    (exponential decay in dB form)."""
    if distance_m < 0:
        raise ValueError("distance_m must be >= 0")
    return c_db_per_m * distance_m


def spot_diameter_m(geometry: LinkGeometry) -> float:
    """Top-hat spot diameter at the receiver plane: 2 z tan(half_angle)."""
    phi = math.radians(geometry.half_angle_deg)
    return 2.0 * geometry.distance_m * math.tan(phi)


def collected_fraction(geometry: LinkGeometry) -> float:
    """Fraction of spot power captured by the aligned receive aperture."""
    k = geometry.k_override_m2
    if k is not None:
        z2 = geometry.distance_m**2  # 0 for a distance under 1e-162
        return 1.0 if z2 <= k else k / z2
    spot = spot_diameter_m(geometry)
    if spot <= geometry.rx_aperture_m:
        return 1.0
    return (geometry.rx_aperture_m / spot) ** 2


def geometric_loss_db(geometry: LinkGeometry) -> float:
    """Beam-spread loss in dB, clamped at 0 when the aperture captures all."""
    return -10.0 * math.log10(collected_fraction(geometry))


def total_loss_db(geometry: LinkGeometry, c_db_per_m: float,
                  nlos: NlosPath | None = None) -> LossBreakdown:
    """Component-wise link loss; the NLOS bounce replaces the direct path.

    For an NLOS link the light physically travels the unfolded path: the
    direct path's optics over ``nlos.unfolded_distance_m``, without its k
    override. Attenuation and spread are evaluated on it and the reflection
    penalty is reported as the excess term.
    """
    path = geometry if nlos is None else replace(
        geometry, distance_m=nlos.unfolded_distance_m, k_override_m2=None)
    return LossBreakdown(
        attenuation_db=attenuation_db(c_db_per_m, path.distance_m),
        geometric_db=geometric_loss_db(path),
        nlos_excess_db=0.0 if nlos is None else -10.0 * math.log10(nlos.reflectance),
    )


def sample_fading_db(fading: FadingSpec, rng: np.random.Generator) -> float:
    """One per-second fading draw (signed dB, positive = extra loss)."""
    value = float(rng.normal(0.0, fading.sigma_db)) if fading.sigma_db > 0 else 0.0
    if fading.burst_probability > 0 and rng.random() < fading.burst_probability:
        value += fading.burst_depth_db
    return value
