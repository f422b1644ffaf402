"""PMT + liquid-crystal receive chain: calibration fit and gain control loop.

The plant is multiplicative: measured volts = responsivity * P_opt * T(v) * G.
Calibration fits that model in the 10*log10 domain; the control loop steps
the LC voltage and PMT gain proportionally to the dB error until the
measured amplitude sits inside the target window.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np


class CalibrationError(ValueError):
    """Raised for degenerate calibration sample sets."""


def _db(x: float) -> float:
    return 10.0 * math.log10(x)


@dataclass(frozen=True)
class ReceiverChain:
    """Actuator ranges and the voltage-to-transmittance curve.

    The default LC curve is a logistic attenuation ramp from 0 dB at v_min
    to ``lc_attenuation_range_db`` at v_max (transmittance monotone
    non-increasing, exactly 1 at v_min). ``lc_table`` overrides it with a
    piecewise-linear (voltage, transmittance) map.
    """

    pmt_gain_range: tuple[float, float] = (1e2, 1e6)
    lc_voltage_range: tuple[float, float] = (0.0, 5.0)
    responsivity_v_per_w: float = 50.0
    lc_attenuation_range_db: float = 20.0
    lc_steepness: float = 1.5
    lc_table: tuple[tuple[float, ...], tuple[float, ...]] | None = None

    def __post_init__(self):
        g_min, g_max = self.pmt_gain_range
        v_min, v_max = self.lc_voltage_range
        if not 0 < g_min < g_max:
            raise ValueError("pmt_gain_range must satisfy 0 < min < max")
        if not v_min < v_max:
            raise ValueError("lc_voltage_range must satisfy min < max")
        if self.responsivity_v_per_w <= 0:
            raise ValueError("responsivity must be > 0")
        if self.lc_attenuation_range_db < 0:
            raise ValueError("lc_attenuation_range_db must be >= 0")
        if self.lc_table is not None:
            volts, trans = self.lc_table
            if len(volts) < 2 or len(volts) != len(trans):
                raise ValueError("lc_table needs matched voltage/transmittance arrays")
            if list(volts) != sorted(volts):
                raise ValueError("lc_table voltages must be ascending")
            if any(t2 > t1 for t1, t2 in zip(trans, trans[1:])):
                raise ValueError("lc_table transmittance must be non-increasing")
            if abs(trans[0] - 1.0) > 1e-9:
                raise ValueError("lc_table transmittance must start at 1")
            if min(trans) <= 0:
                raise ValueError("lc_table transmittance must stay > 0")

    # --- LC curve -------------------------------------------------------

    def _logistic_norm(self, v: float) -> float:
        v_min, v_max = self.lc_voltage_range
        mid = 0.5 * (v_min + v_max)
        f = lambda x: 1.0 / (1.0 + math.exp(-self.lc_steepness * (x - mid)))
        return (f(v) - f(v_min)) / (f(v_max) - f(v_min))

    def attenuation_db_at(self, lc_voltage: float) -> float:
        v_min, v_max = self.lc_voltage_range
        v = min(max(lc_voltage, v_min), v_max)
        if self.lc_table is not None:
            volts, trans = self.lc_table
            t = float(np.interp(v, volts, trans))
            return -_db(t)
        return self.lc_attenuation_range_db * self._logistic_norm(v)

    def lc_transmittance(self, lc_voltage: float) -> float:
        return 10.0 ** (-self.attenuation_db_at(lc_voltage) / 10.0)

    def max_attenuation_db(self) -> float:
        return self.attenuation_db_at(self.lc_voltage_range[1])

    def voltage_for_attenuation_db(self, att_db: float) -> float:
        """Inverse of the monotone attenuation curve (clamped bisection)."""
        v_min, v_max = self.lc_voltage_range
        if att_db <= 0:
            return v_min
        if att_db >= self.max_attenuation_db():
            return v_max
        lo, hi = v_min, v_max
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if self.attenuation_db_at(mid) < att_db:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def amplitude_v(self, p_opt_w: float, lc_voltage: float, gain: float) -> float:
        """Plant response: measured signal amplitude in volts."""
        return (self.responsivity_v_per_w * p_opt_w
                * self.lc_transmittance(lc_voltage) * gain)


@dataclass(frozen=True)
class CalibrationMap:
    """Fitted multiplicative model plus residual statistics (dB domain)."""

    responsivity_db: float
    att_scale_db: float
    residual_rms_db: float
    residual_max_db: float
    n_samples: int


def fit_calibration(samples, chain: ReceiverChain) -> CalibrationMap:
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

    full = chain.max_attenuation_db()
    if full <= 0:
        raise CalibrationError("chain has no LC attenuation range to fit")
    shape = np.array([chain.attenuation_db_at(v) / full for _, v, _, _ in rows])
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
    lc_voltage: float
    pmt_gain: float
    window_low_v: float
    window_high_v: float
    saturated: bool = False

    def __post_init__(self):
        if not 0 < self.window_low_v < self.window_high_v:
            raise ValueError("window must satisfy 0 < low < high")

    @property
    def window_center_v(self) -> float:
        return math.sqrt(self.window_low_v * self.window_high_v)

    def in_window(self, measured_v: float) -> bool:
        return self.window_low_v <= measured_v <= self.window_high_v


def agc_step(chain: ReceiverChain, state: AgcState, measured_v: float) -> AgcState:
    """One control update toward the window center.

    Too hot: add LC attenuation first, shed PMT gain once the LC saturates.
    Too cold: raise PMT gain first, remove attenuation once gain saturates.
    Inside the window nothing moves, so a static in-window plant is a fixed
    point; correcting to the center (not the edge) provides the hysteresis
    that prevents edge chatter.
    """
    if measured_v <= 0:
        raise ValueError("measured_v must be > 0")
    if state.in_window(measured_v):
        return replace(state, saturated=False)

    g_min, g_max = chain.pmt_gain_range
    err_db = _db(measured_v) - _db(state.window_center_v)
    att = chain.attenuation_db_at(state.lc_voltage)
    gain_db = _db(state.pmt_gain)

    if err_db > 0:
        att_target = att + err_db
        att_new = min(att_target, chain.max_attenuation_db())
        leftover = att_target - att_new
        gain_new_db = max(gain_db - leftover, _db(g_min))
        leftover -= gain_db - gain_new_db
    else:
        need_db = -err_db
        gain_new_db = min(gain_db + need_db, _db(g_max))
        leftover = need_db - (gain_new_db - gain_db)
        if abs(leftover) < 1e-12:
            leftover = 0.0
        att_new = max(att - leftover, 0.0)
        leftover -= att - att_new

    if att_new == att:
        lc_new = state.lc_voltage
    else:
        lc_new = chain.voltage_for_attenuation_db(att_new)
    if gain_new_db == gain_db:
        gain_new = state.pmt_gain
    else:
        gain_new = min(max(10.0 ** (gain_new_db / 10.0), g_min), g_max)
    return AgcState(
        lc_voltage=lc_new,
        pmt_gain=gain_new,
        window_low_v=state.window_low_v,
        window_high_v=state.window_high_v,
        saturated=leftover > 1e-9,
    )
