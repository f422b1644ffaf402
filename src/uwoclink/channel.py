"""Optical channel model for underwater laser links.

Deterministic losses (water attenuation, beam-spread geometry, pointing
offset, seabed-bounce excess) plus a log-normal/burst fading abstraction.
All losses are positive dB; received power follows from transmitted power
minus the total. Everything here is a pure function of its inputs; the
fading sampler takes an explicit numpy generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# dB per (1/m) of attenuation coefficient: L_db = c * z * 10/ln(10)
DB_PER_NEPER = 10.0 / math.log(10.0)


@dataclass(frozen=True)
class WaterOptics:
    """Diffuse attenuation of the water column, per-meter and dB/m forms."""

    c_per_m: float
    c_db_per_m: float

    def __post_init__(self):
        if self.c_per_m < 0 or self.c_db_per_m < 0:
            raise ValueError("attenuation coefficient must be >= 0")
        expected = self.c_per_m * DB_PER_NEPER
        if expected > 0 or self.c_db_per_m > 0:
            ref = max(expected, self.c_db_per_m)
            if abs(expected - self.c_db_per_m) > 0.01 * ref:
                raise ValueError(
                    f"c_db_per_m={self.c_db_per_m} inconsistent with "
                    f"c_per_m={self.c_per_m} (expected ~{expected:.4f} dB/m)"
                )

    @classmethod
    def from_per_m(cls, c_per_m: float) -> "WaterOptics":
        return cls(c_per_m=c_per_m, c_db_per_m=c_per_m * DB_PER_NEPER)

    @classmethod
    def from_db_per_m(cls, c_db_per_m: float) -> "WaterOptics":
        return cls(c_per_m=c_db_per_m / DB_PER_NEPER, c_db_per_m=c_db_per_m)


@dataclass(frozen=True)
class LinkGeometry:
    """One directed beam path: length, divergence, apertures, lateral offset.

    ``k_override_m2`` replaces the physical aperture/divergence model with a
    calibrated inverse-square constant (collected fraction = k / Z^2).
    """

    distance_m: float
    half_angle_deg: float
    tx_exit_diameter_m: float = 0.0
    rx_aperture_m: float = 0.01
    pointing_offset_m: float = 0.0
    k_override_m2: float | None = None

    def __post_init__(self):
        if self.distance_m < 0:
            raise ValueError("distance_m must be >= 0")
        if not 0.0 < self.half_angle_deg < 90.0:
            raise ValueError("half_angle_deg must be in (0, 90)")
        if self.rx_aperture_m <= 0:
            raise ValueError("rx_aperture_m must be > 0")
        if self.tx_exit_diameter_m < 0:
            raise ValueError("tx_exit_diameter_m must be >= 0")
        if self.pointing_offset_m < 0:
            raise ValueError("pointing_offset_m must be >= 0")
        if self.k_override_m2 is not None and self.k_override_m2 <= 0:
            raise ValueError("k_override_m2 must be > 0")


@dataclass(frozen=True)
class NlosPath:
    """Seabed-bounce description: scalar reflectance on an unfolded path."""

    reflectance: float
    unfolded: LinkGeometry

    def __post_init__(self):
        if not 0.0 <= self.reflectance <= 1.0:
            raise ValueError("reflectance must be in [0, 1]")


@dataclass(frozen=True)
class FadingSpec:
    """Per-second fading draw: log-normal wobble plus rare deep bursts."""

    sigma_db: float = 0.0
    burst_probability: float = 0.0
    burst_depth_db: float = 0.0

    def __post_init__(self):
        if self.sigma_db < 0:
            raise ValueError("sigma_db must be >= 0")
        if not 0.0 <= self.burst_probability <= 1.0:
            raise ValueError("burst_probability must be in [0, 1]")
        if self.burst_depth_db < 0:
            raise ValueError("burst_depth_db must be >= 0")


@dataclass(frozen=True)
class LossBreakdown:
    """Per-mechanism dB losses; ``link_dark`` marks a geometrically dead link.

    When ``link_dark`` is set (disjoint spot/aperture discs or zero
    reflectance) the dB fields exclude the dark mechanism and must not be
    used as a finite link loss.
    """

    attenuation_db: float
    geometric_db: float
    pointing_db: float = 0.0
    nlos_excess_db: float = 0.0
    link_dark: bool = False

    @property
    def total_db(self) -> float:
        return (
            self.attenuation_db
            + self.geometric_db
            + self.pointing_db
            + self.nlos_excess_db
        )


def attenuation_db(water: WaterOptics, distance_m: float) -> float:
    """Water-column loss over ``distance_m`` (exponential decay in dB form)."""
    if distance_m < 0:
        raise ValueError("distance_m must be >= 0")
    return water.c_db_per_m * distance_m


def spot_diameter_m(geometry: LinkGeometry) -> float:
    """Beam spot diameter at the receiver plane (top-hat spot)."""
    phi = math.radians(geometry.half_angle_deg)
    return geometry.tx_exit_diameter_m + 2.0 * geometry.distance_m * math.tan(phi)


def collected_fraction(geometry: LinkGeometry) -> float:
    """Fraction of spot power captured by the aligned receive aperture."""
    if geometry.k_override_m2 is not None:
        if geometry.distance_m == 0:
            raise ValueError("k_override model is singular at distance 0")
        return min(1.0, geometry.k_override_m2 / geometry.distance_m**2)
    spot = spot_diameter_m(geometry)
    if spot <= geometry.rx_aperture_m:
        return 1.0
    return (geometry.rx_aperture_m / spot) ** 2


def geometric_loss_db(geometry: LinkGeometry) -> float:
    """Beam-spread loss in dB, clamped at 0 when the aperture captures all."""
    return -10.0 * math.log10(collected_fraction(geometry))


def disc_overlap_fraction(spot_diameter: float, aperture_diameter: float,
                          offset: float) -> float:
    """Fraction of the aperture disc covered by the spot disc.

    Standard circle-circle intersection area divided by the aperture area.
    """
    big_r = spot_diameter / 2.0
    small_r = aperture_diameter / 2.0
    if small_r <= 0 or big_r <= 0:
        raise ValueError("disc diameters must be > 0")
    if offset >= big_r + small_r:
        return 0.0
    if offset <= abs(big_r - small_r):
        return 1.0 if small_r <= big_r else (big_r / small_r) ** 2
    d2 = offset * offset
    a1 = small_r**2 * math.acos((d2 + small_r**2 - big_r**2)
                                / (2.0 * offset * small_r))
    a2 = big_r**2 * math.acos((d2 + big_r**2 - small_r**2)
                              / (2.0 * offset * big_r))
    a3 = 0.5 * math.sqrt(max(0.0, (-offset + small_r + big_r)
                             * (offset + small_r - big_r)
                             * (offset - small_r + big_r)
                             * (offset + small_r + big_r)))
    return (a1 + a2 - a3) / (math.pi * small_r**2)


def pointing_overlap_fraction(geometry: LinkGeometry) -> float:
    if geometry.pointing_offset_m == 0:
        return 1.0
    spot = spot_diameter_m(geometry)
    return disc_overlap_fraction(spot, geometry.rx_aperture_m,
                                 geometry.pointing_offset_m)


def pointing_loss_db(geometry: LinkGeometry) -> tuple[float, bool]:
    """Offset loss as ``(loss_db, link_dark)``; dark when discs are disjoint."""
    frac = pointing_overlap_fraction(geometry)
    if frac == 0.0:
        return 0.0, True
    return -10.0 * math.log10(frac), False


def total_loss_db(geometry: LinkGeometry, water: WaterOptics,
                  nlos: NlosPath | None = None) -> LossBreakdown:
    """Component-wise link loss; the NLOS bounce replaces the direct path.

    For an NLOS link the light physically travels the unfolded path, so
    attenuation, spread, and pointing are evaluated on ``nlos.unfolded`` and
    the reflection penalty is reported as the excess term.
    """
    path = nlos.unfolded if nlos is not None else geometry
    atten = attenuation_db(water, path.distance_m)
    geo = geometric_loss_db(path)
    point, dark = pointing_loss_db(path)
    excess = 0.0
    if nlos is not None:
        if nlos.reflectance == 0.0:
            dark = True
        else:
            excess = -10.0 * math.log10(nlos.reflectance)
    return LossBreakdown(
        attenuation_db=atten,
        geometric_db=geo,
        pointing_db=point,
        nlos_excess_db=excess,
        link_dark=dark,
    )


def sample_fading_db(fading: FadingSpec, rng: np.random.Generator) -> float:
    """One per-second fading draw (signed dB, positive = extra loss)."""
    value = float(rng.normal(0.0, fading.sigma_db)) if fading.sigma_db > 0 else 0.0
    if fading.burst_probability > 0 and rng.random() < fading.burst_probability:
        value += fading.burst_depth_db
    return value
