"""PMT + liquid-crystal receive chain: the gain control loop in dB.

The deployed receiver is fixed in code: the module constants below are its
actuator ranges, its responsivity and its AGC window. The plant is
multiplicative, measured volts = responsivity * P_opt * LC transmittance *
PMT gain, so in dB it is a sum: 10 log10(responsivity) + received dBW - LC
attenuation + PMT gain. The control loop keeps its actuators in dB and
steps them by the dB error until the level sits inside the window, so a
received power far below float range still counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

PMT_GAIN_RANGE = (1e2, 1e6)
RESPONSIVITY_V_PER_W = 50.0
LC_ATTENUATION_RANGE_DB = 20.0
AGC_WINDOW_V = (0.5, 5.0)


def _db(x: float) -> float:
    return 10.0 * math.log10(x)


_RESPONSIVITY_DB = _db(RESPONSIVITY_V_PER_W)
_GAIN_MIN_DB, _GAIN_MAX_DB = (_db(g) for g in PMT_GAIN_RANGE)
_WINDOW_LO_DB, _WINDOW_HI_DB = (_db(v) for v in AGC_WINDOW_V)
_WINDOW_CENTER_DB = _db(math.sqrt(AGC_WINDOW_V[0] * AGC_WINDOW_V[1]))


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
