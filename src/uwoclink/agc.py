"""PMT + liquid-crystal receive chain: calibration fit and gain control loop.

The deployed receiver is fixed in code: the module constants below are its
actuator ranges, its LC attenuation curve and its AGC window. The plant is
multiplicative, measured volts = responsivity * P_opt * T(v) * G, so in dB
it is a sum: 10 log10(responsivity) + received dBW - LC attenuation + PMT
gain. Calibration fits that model in the dB domain; the control loop keeps
its actuators in dB and steps them by the dB error until the level sits
inside the window, so a received power far below float range still counts.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

PMT_GAIN_RANGE = (1e2, 1e6)
LC_VOLTAGE_RANGE = (0.0, 5.0)
RESPONSIVITY_V_PER_W = 50.0
LC_ATTENUATION_RANGE_DB = 20.0
LC_STEEPNESS = 1.5
AGC_WINDOW_V = (0.5, 5.0)


class CalibrationError(ValueError):
    """Raised for degenerate calibration sample sets."""


def _db(x: float) -> float:
    return 10.0 * math.log10(x)


_RESPONSIVITY_DB = _db(RESPONSIVITY_V_PER_W)
_GAIN_MIN_DB, _GAIN_MAX_DB = (_db(g) for g in PMT_GAIN_RANGE)
_WINDOW_LO_DB, _WINDOW_HI_DB = (_db(v) for v in AGC_WINDOW_V)
_WINDOW_CENTER_DB = _db(math.sqrt(AGC_WINDOW_V[0] * AGC_WINDOW_V[1]))


def _logistic(v: float) -> float:
    v_min, v_max = LC_VOLTAGE_RANGE
    return 1.0 / (1.0 + math.exp(-LC_STEEPNESS * (v - 0.5 * (v_min + v_max))))


def attenuation_db_at(lc_voltage: float) -> float:
    """The LC curve: a logistic ramp from 0 dB at the least LC voltage to
    ``LC_ATTENUATION_RANGE_DB`` at the greatest, clamped to that range."""
    v_min, v_max = LC_VOLTAGE_RANGE
    v = min(max(lc_voltage, v_min), v_max)
    f_min = _logistic(v_min)
    norm = (_logistic(v) - f_min) / (_logistic(v_max) - f_min)
    return LC_ATTENUATION_RANGE_DB * norm


@dataclass(frozen=True)
class CalibrationMap:
    """Fitted multiplicative model plus residual statistics (dB domain)."""

    responsivity_db: float
    att_scale_db: float
    residual_rms_db: float
    residual_max_db: float
    n_samples: int


def fit_calibration(samples) -> CalibrationMap:
    """Least-squares fit of (responsivity, LC attenuation scale) in dB.

    ``samples`` rows are (p_watts, lc_volts, gain, measured_volts). The set
    must exercise both actuators; a single LC voltage (or gain) is rank
    deficient and rejected.
    """
    rows = [tuple(map(float, s)) for s in samples]
    fields = ("p_watts", "lc_volts", "gain", "measured_volts")
    for index, row in enumerate(rows, start=1):
        for field, value in zip(fields, row):
            if not math.isfinite(value):
                raise CalibrationError(f"sample {index}: {field} is {value}, not finite")
    if len(rows) < 8:
        raise CalibrationError(f"need at least 8 samples, got {len(rows)}")
    if any(p <= 0 or g <= 0 or v_meas <= 0 for p, _, g, v_meas in rows):
        raise CalibrationError("powers, gains, and measured volts must be > 0")
    volts = sorted({v for _, v, _, _ in rows})
    gains = sorted({g for _, _, g, _ in rows})
    if len(volts) < 2:
        raise CalibrationError("samples span a single LC voltage (rank deficient)")
    if len(gains) < 2:
        raise CalibrationError("samples span a single PMT gain (rank deficient)")

    shape = np.array([attenuation_db_at(v) / LC_ATTENUATION_RANGE_DB
                      for _, v, _, _ in rows])
    if np.ptp(shape) < 1e-12:
        raise CalibrationError("LC voltages map to a single attenuation value")
    y = np.array([_db(vm) - _db(p) - _db(g) for p, _, g, vm in rows])
    design = np.column_stack([np.ones(len(rows)), -shape])
    theta, *_ = np.linalg.lstsq(design, y, rcond=None)
    if theta[0] >= 10.0 * math.log10(sys.float_info.max):
        raise CalibrationError(
            f"fitted responsivity {theta[0]:.1f} dB overflows a float in V/W"
        )
    resid = y - design @ theta
    return CalibrationMap(
        responsivity_db=float(theta[0]),
        att_scale_db=float(theta[1]),
        residual_rms_db=float(np.sqrt(np.mean(resid**2))),
        residual_max_db=float(np.max(np.abs(resid))),
        n_samples=len(rows),
    )


@dataclass(frozen=True)
class AgcState:
    """The actuators in dB; the loop starts with no LC attenuation and the
    PMT gain at the geometric middle of its range."""

    attenuation_db: float = 0.0
    gain_db: float = 40.0
    saturated: bool = False


def agc_step(state: AgcState, p_rx_dbw: float) -> AgcState:
    """One control update toward the window center, for a received optical
    power of ``p_rx_dbw`` dB re 1 W.

    Too hot: add LC attenuation first, shed PMT gain once the LC saturates.
    Too cold: raise PMT gain first, remove attenuation once gain saturates.
    Inside the window nothing moves, so a static in-window plant is a fixed
    point; correcting to the center (not the edge) provides the hysteresis
    that prevents edge chatter. ``saturated`` marks a step whose dB error
    the actuators could not absorb.
    """
    att, gain_db = state.attenuation_db, state.gain_db
    level_db = _RESPONSIVITY_DB + p_rx_dbw - att + gain_db
    if _WINDOW_LO_DB <= level_db <= _WINDOW_HI_DB:
        return replace(state, saturated=False)

    err_db = level_db - _WINDOW_CENTER_DB
    if err_db > 0:
        att_target = att + err_db
        att_new = min(att_target, LC_ATTENUATION_RANGE_DB)
        leftover = att_target - att_new
        gain_new_db = max(gain_db - leftover, _GAIN_MIN_DB)
        leftover -= gain_db - gain_new_db
    else:
        need_db = -err_db
        gain_new_db = min(gain_db + need_db, _GAIN_MAX_DB)
        leftover = need_db - (gain_new_db - gain_db)
        if abs(leftover) < 1e-12:
            leftover = 0.0
        att_new = max(att - leftover, 0.0)
        leftover -= att - att_new
    return AgcState(attenuation_db=att_new, gain_db=gain_new_db,
                    saturated=leftover > 1e-9)
