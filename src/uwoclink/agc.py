"""PMT + liquid-crystal receive chain: the gain control loop in dB.

The deployed receiver is fixed in code: the module constants below are its
actuator ranges, its responsivity and its AGC window. The plant is
multiplicative, measured volts = responsivity * P_opt * LC transmittance *
PMT gain, so in dB it is a sum: 10 log10(responsivity) + received dBW - LC
attenuation + PMT gain. Only the net gain, PMT gain - LC attenuation,
reaches the level, so the loop keeps that one number in dB, with a reach
of 0 to 60 dB, and steps it by the dB error until the level sits inside
the window; a received power far below float range still counts.
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
_NET_GAIN_MIN_DB = _db(PMT_GAIN_RANGE[0]) - LC_ATTENUATION_RANGE_DB
_NET_GAIN_MAX_DB = _db(PMT_GAIN_RANGE[1])
_WINDOW_LO_DB, _WINDOW_HI_DB = (_db(v) for v in AGC_WINDOW_V)
_WINDOW_CENTER_DB = _db(math.sqrt(AGC_WINDOW_V[0] * AGC_WINDOW_V[1]))


@dataclass(frozen=True)
class AgcState:
    """The net gain in dB; the loop starts at 40 dB, no LC attenuation and
    the PMT gain at the geometric middle of its range."""

    net_gain_db: float = 40.0
    saturated: bool = False


def agc_step(state: AgcState, p_rx_dbw: float) -> AgcState:
    """One control update toward the window center, for a received optical
    power of ``p_rx_dbw`` dB re 1 W.

    Inside the window nothing moves, so a static in-window plant is a fixed
    point; correcting to the center (not the edge) provides the hysteresis
    that prevents edge chatter. ``saturated`` marks a step whose dB error
    the net gain's reach could not absorb.
    """
    level_db = _RESPONSIVITY_DB + p_rx_dbw + state.net_gain_db
    if _WINDOW_LO_DB <= level_db <= _WINDOW_HI_DB:
        return replace(state, saturated=False)
    target_db = state.net_gain_db - (level_db - _WINDOW_CENTER_DB)
    net_gain_db = min(max(target_db, _NET_GAIN_MIN_DB), _NET_GAIN_MAX_DB)
    return AgcState(net_gain_db, saturated=abs(target_db - net_gain_db) > 1e-9)
