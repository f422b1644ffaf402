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
from typing import ClassVar

import numpy as np


class CalibrationError(ValueError):
    """Raised for degenerate calibration sample sets."""


def _db(x: float) -> float:
    return 10.0 * math.log10(x)


@dataclass(frozen=True)
class ReceiverChain:
    """The deployed receiver: actuator ranges, the voltage-to-transmittance
    curve and the AGC window, all class constants.

    The LC curve is a logistic attenuation ramp from 0 dB at v_min to
    ``lc_attenuation_range_db`` at v_max (transmittance monotone
    non-increasing, exactly 1 at v_min). The gain control loop holds the
    measured amplitude inside ``agc_window_v``.
    """

    pmt_gain_range: ClassVar[tuple[float, float]] = (1e2, 1e6)
    lc_voltage_range: ClassVar[tuple[float, float]] = (0.0, 5.0)
    responsivity_v_per_w: ClassVar[float] = 50.0
    lc_attenuation_range_db: ClassVar[float] = 20.0
    lc_steepness: ClassVar[float] = 1.5
    agc_window_v: ClassVar[tuple[float, float]] = (0.5, 5.0)

    # --- LC curve -------------------------------------------------------

    def _logistic(self, v: float) -> float:
        v_min, v_max = self.lc_voltage_range
        mid = 0.5 * (v_min + v_max)
        return 1.0 / (1.0 + math.exp(-self.lc_steepness * (v - mid)))

    def attenuation_db_at(self, lc_voltage: float) -> float:
        v_min, v_max = self.lc_voltage_range
        v = min(max(lc_voltage, v_min), v_max)
        f_min = self._logistic(v_min)
        norm = (self._logistic(v) - f_min) / (self._logistic(v_max) - f_min)
        return self.lc_attenuation_range_db * norm

    def lc_transmittance(self, lc_voltage: float) -> float:
        return 10.0 ** (-self.attenuation_db_at(lc_voltage) / 10.0)

    def voltage_for_attenuation_db(self, att_db: float) -> float:
        """Inverse of the monotone attenuation curve, clamped to the voltage
        range: the logistic value f that ``att_db`` needs, then
        v = mid - ln(1/f - 1) / steepness."""
        v_min, v_max = self.lc_voltage_range
        if att_db <= 0:
            return v_min
        if att_db >= self.lc_attenuation_range_db:
            return v_max
        f_min, f_max = self._logistic(v_min), self._logistic(v_max)
        f = f_min + att_db / self.lc_attenuation_range_db * (f_max - f_min)
        # 1/f - 1 is exp(-steepness * (v - mid)), > 0: f <= f(v_max) < 0.98
        v = 0.5 * (v_min + v_max) - math.log(1.0 / f - 1.0) / self.lc_steepness
        return min(max(v, v_min), v_max)

    # --- AGC window -----------------------------------------------------

    @property
    def window_center_v(self) -> float:
        return math.sqrt(self.agc_window_v[0] * self.agc_window_v[1])

    def in_window(self, measured_v: float) -> bool:
        return self.agc_window_v[0] <= measured_v <= self.agc_window_v[1]

    def initial_state(self) -> AgcState:
        """Loop start: least LC voltage, PMT gain at the geometric middle."""
        g_min, g_max = self.pmt_gain_range
        return AgcState(lc_voltage=self.lc_voltage_range[0],
                        pmt_gain=math.sqrt(g_min * g_max))

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

    full = chain.lc_attenuation_range_db
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
    saturated: bool = False


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
    if chain.in_window(measured_v):
        return replace(state, saturated=False)

    g_min, g_max = chain.pmt_gain_range
    err_db = _db(measured_v) - _db(chain.window_center_v)
    att = chain.attenuation_db_at(state.lc_voltage)
    gain_db = _db(state.pmt_gain)

    if err_db > 0:
        att_target = att + err_db
        att_new = min(att_target, chain.lc_attenuation_range_db)
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
    return AgcState(lc_voltage=lc_new, pmt_gain=gain_new,
                    saturated=leftover > 1e-9)
