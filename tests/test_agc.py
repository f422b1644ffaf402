import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwoclink import agc
from uwoclink.agc import AgcState, agc_step
from uwoclink.channel import sample_fading_db, total_loss_db
from uwoclink.config import load_preset

G_MIN_DB, G_MAX_DB = (10.0 * math.log10(g) for g in agc.PMT_GAIN_RANGE)
# the net gain, PMT gain - LC attenuation: the least gain with the LC full
# to the greatest with it clear
NET_MIN_DB, NET_MAX_DB = G_MIN_DB - agc.LC_ATTENUATION_RANGE_DB, G_MAX_DB
WINDOW_DB = tuple(10.0 * math.log10(v) for v in agc.AGC_WINDOW_V)
CENTER_DB = 0.5 * (WINDOW_DB[0] + WINDOW_DB[1])
# the received powers, in dBW, that the loop can bring to the window center
# (the net gain from 0 to 60 dB) and into the window at all; at 50 V/W
# and a 0.5..5 V window they come out as whole numbers
CENTER_REACH_DBW = (-75.0, -15.0)
WINDOW_REACH_DBW = (-80.0, -10.0)
# net gains at the ends of the reach, and some inside
STARTS = [AgcState(), AgcState(NET_MIN_DB), AgcState(NET_MAX_DB),
          AgcState(20.0), AgcState(25.5)]
# the LC attenuator's voltage curve, the plant of the volt-domain reference
# loop below; the loop under test works on the net gain in dB alone
LC_VOLTAGE_RANGE = (0.0, 5.0)
LC_STEEPNESS = 1.5


def db(x):
    return 10.0 * math.log10(x)


def logistic(v):
    v_min, v_max = LC_VOLTAGE_RANGE
    return 1.0 / (1.0 + math.exp(-LC_STEEPNESS * (v - 0.5 * (v_min + v_max))))


def attenuation_db_at(lc_voltage):
    """The LC curve: a logistic ramp from 0 dB at the least LC voltage to
    ``LC_ATTENUATION_RANGE_DB`` at the greatest, clamped to that range."""
    v_min, v_max = LC_VOLTAGE_RANGE
    v = min(max(lc_voltage, v_min), v_max)
    f_min = logistic(v_min)
    norm = (logistic(v) - f_min) / (logistic(v_max) - f_min)
    return agc.LC_ATTENUATION_RANGE_DB * norm


def amplitude_v(p_opt_w, lc_voltage, gain):
    """The receiver plant in volts: responsivity * power * LC transmittance
    * PMT gain."""
    return (agc.RESPONSIVITY_V_PER_W * p_opt_w
            * 10.0 ** (-attenuation_db_at(lc_voltage) / 10.0) * gain)


def level_db(state, p_rx_dbw):
    """The same plant in dB re 1 V at the loop's net gain."""
    return db(agc.RESPONSIVITY_V_PER_W) + p_rx_dbw + state.net_gain_db


def in_window(level):
    return WINDOW_DB[0] <= level <= WINDOW_DB[1]


def settle(state, p_rx_dbw, max_steps=10):
    """Closed-loop run against the plant at a static received power."""
    steps = 0
    for _ in range(max_steps):
        if in_window(level_db(state, p_rx_dbw)):
            return state, steps
        state = agc_step(state, p_rx_dbw)
        steps += 1
    return state, steps


class TestLcCurve:
    def test_no_attenuation_at_v_min(self):
        assert attenuation_db_at(0.0) == 0.0

    def test_attenuation_monotone_non_decreasing(self):
        atts = [attenuation_db_at(v) for v in np.linspace(0.0, 5.0, 100)]
        assert all(b >= a - 1e-15 for a, b in zip(atts, atts[1:]))

    def test_full_range_attenuation(self):
        assert attenuation_db_at(5.0) == agc.LC_ATTENUATION_RANGE_DB == 20.0

    def test_initial_state(self):
        # no LC attenuation, so the net gain is the PMT gain, at the
        # geometric middle of 1e2..1e6
        assert AgcState() == AgcState(net_gain_db=40.0, saturated=False)
        assert 10.0 ** (AgcState().net_gain_db / 10.0) == pytest.approx(
            math.sqrt(agc.PMT_GAIN_RANGE[0] * agc.PMT_GAIN_RANGE[1]))


class TestStep:
    def test_in_window_is_fixed_point(self):
        p_dbw = -db(agc.RESPONSIVITY_V_PER_W) - 40.0  # 1 V at the initial net gain
        stepped = agc_step(AgcState(), p_dbw)
        assert stepped.net_gain_db == 40.0
        assert not stepped.saturated
        assert agc_step(stepped, p_dbw) == stepped

    @pytest.mark.parametrize("edge, inward", [(0, 1.0), (1, -1.0)])
    def test_window_edges(self, edge, inward):
        # the window is 0.5 to 5 V, ends included: a level 1e-9 dB inside an
        # end moves nothing, one 0.01 dB outside it moves the net gain
        for offset_db, moves in ((1e-9, False), (-0.01, True)):
            p_dbw = WINDOW_DB[edge] + inward * offset_db - db(agc.RESPONSIVITY_V_PER_W) - 40.0
            assert (agc_step(AgcState(), p_dbw) != AgcState()) == moves

    def test_20db_step_recovers_within_10(self):
        p0_dbw = db(3.16e-6)  # sits mid-window at the initial actuators
        state, _ = settle(AgcState(), p0_dbw)
        boosted = p0_dbw + 20.0  # +20 dB optical step
        state, steps = settle(state, boosted)
        assert in_window(level_db(state, boosted))
        assert steps <= 10

    def test_below_sensitivity_saturates_at_bounds(self):
        state = AgcState(net_gain_db=NET_MAX_DB)
        stepped = agc_step(state, db(1e-12))  # microvolts even at full gain
        assert stepped.saturated
        assert stepped.net_gain_db == NET_MAX_DB

    @pytest.mark.parametrize("p_rx_dbw", [-5000.0, 5000.0])
    def test_power_past_float_range_saturates(self, p_rx_dbw):
        # 10^(-500) W reads 0 W and 10^500 W inf; in dB both are one more step
        stepped = agc_step(AgcState(), p_rx_dbw)
        assert stepped.saturated
        assert stepped.net_gain_db == (NET_MAX_DB if p_rx_dbw < 0 else NET_MIN_DB)

    def test_actuators_stay_in_bounds(self):
        rng = np.random.default_rng(3)
        state = AgcState()
        for _ in range(300):
            level = rng.uniform(-40.0, 30.0)  # 1e-4 V to 1e3 V
            state = agc_step(state, level - level_db(state, 0.0))
            assert NET_MIN_DB <= state.net_gain_db <= NET_MAX_DB

    def test_monotone_response(self):
        state = AgcState(net_gain_db=40.0 - attenuation_db_at(2.0))

        def step_at(volts):
            return agc_step(state, db(volts) - level_db(state, 0.0))

        hot1, hot2 = step_at(8.0), step_at(80.0)
        assert hot2.net_gain_db <= hot1.net_gain_db < state.net_gain_db
        cold1, cold2 = step_at(0.4), step_at(0.04)
        assert cold2.net_gain_db >= cold1.net_gain_db > state.net_gain_db

    def test_convergence_over_30db_grid(self):
        # 41 static power levels spanning 30 dB, <= 10 steps each
        for p in np.logspace(-6, -3, 41):
            state, steps = settle(AgcState(), db(p))
            assert in_window(level_db(state, db(p))), p
            assert steps <= 10
            # and stays there
            after = agc_step(state, db(p))
            assert after.net_gain_db == state.net_gain_db


class TestReach:
    def test_reach_follows_from_the_constants(self):
        assert (NET_MIN_DB, NET_MAX_DB) == pytest.approx((0.0, 60.0), abs=1e-12)
        span = NET_MAX_DB - NET_MIN_DB
        assert CENTER_REACH_DBW == pytest.approx(
            (CENTER_DB - db(agc.RESPONSIVITY_V_PER_W) - G_MAX_DB,
             CENTER_DB - db(agc.RESPONSIVITY_V_PER_W) - G_MAX_DB + span), abs=1e-12)
        assert WINDOW_REACH_DBW == pytest.approx(
            (WINDOW_DB[0] - db(agc.RESPONSIVITY_V_PER_W) - G_MAX_DB,
             WINDOW_DB[1] - db(agc.RESPONSIVITY_V_PER_W) - G_MAX_DB + span), abs=1e-12)

    @pytest.mark.parametrize("p_rx_dbw", [-74.5, -65.0, -55.0, -45.0, -35.0, -25.0, -15.5])
    def test_one_step_reaches_the_center_within_reach(self, p_rx_dbw):
        # the plant is a sum in dB, so one step absorbs the whole error
        for start in STARTS:
            stepped = agc_step(start, p_rx_dbw)
            assert not stepped.saturated
            if in_window(level_db(start, p_rx_dbw)):
                assert stepped == start
            else:
                assert level_db(stepped, p_rx_dbw) == pytest.approx(CENTER_DB, abs=1e-9)

    @pytest.mark.parametrize("p_rx_dbw", [-100.0, -76.0, -14.0, 0.0])
    def test_past_reach_pins_the_actuators(self, p_rx_dbw):
        # the step ends at the bounds, off center by how far the power lies
        # past the reach, and says so
        cold = p_rx_dbw < CENTER_REACH_DBW[0]
        past_db = p_rx_dbw - CENTER_REACH_DBW[0 if cold else 1]
        stepped = agc_step(AgcState(), p_rx_dbw)
        assert stepped.saturated
        assert stepped.net_gain_db == (NET_MAX_DB if cold else NET_MIN_DB)
        assert level_db(stepped, p_rx_dbw) - CENTER_DB == pytest.approx(past_db, abs=1e-9)

    @pytest.mark.parametrize("p_rx_dbw, settles", [
        (-81.0, False), (-77.5, True), (-12.5, True), (-9.0, False)])
    def test_settles_in_window_iff_within_reach(self, p_rx_dbw, settles):
        # between the two reaches the first step saturates short of the
        # center, yet inside the window, and the next one holds still
        assert (WINDOW_REACH_DBW[0] <= p_rx_dbw <= WINDOW_REACH_DBW[1]) == settles
        state = agc_step(AgcState(), p_rx_dbw)
        assert state.saturated
        for _ in range(3):
            state = agc_step(state, p_rx_dbw)
            assert in_window(level_db(state, p_rx_dbw)) == settles
            assert state.saturated != settles

    @given(net_gain_db=st.floats(NET_MIN_DB, NET_MAX_DB),
           p_rx_dbw=st.floats(-400.0, 300.0))
    @settings(max_examples=300, deadline=None)
    def test_any_step_stays_in_bounds_and_flags_a_miss(self, net_gain_db, p_rx_dbw):
        # an unflagged step leaves the level inside the window; a flagged one
        # leaves the net gain at the bound on the side of the miss
        stepped = agc_step(AgcState(net_gain_db), p_rx_dbw)
        assert NET_MIN_DB <= stepped.net_gain_db <= NET_MAX_DB
        level = level_db(stepped, p_rx_dbw)
        if not stepped.saturated:
            assert WINDOW_DB[0] - 1e-9 <= level <= WINDOW_DB[1] + 1e-9
        else:
            assert stepped.net_gain_db == (NET_MIN_DB if level > CENTER_DB else NET_MAX_DB)


def lc_voltage_for(att_db):
    """The LC curve's inverse, clamped to the voltage range."""
    (v_min, v_max), full = LC_VOLTAGE_RANGE, agc.LC_ATTENUATION_RANGE_DB
    if att_db <= 0 or att_db >= full:
        return v_min if att_db <= 0 else v_max
    mid = 0.5 * (v_min + v_max)
    f_min, f_max = (logistic(v) for v in (v_min, v_max))
    f = f_min + att_db / full * (f_max - f_min)
    return min(max(mid - math.log(1.0 / f - 1.0) / LC_STEEPNESS, v_min), v_max)


def volt_step(lc_v, gain, measured):
    """One step of the loop as it ran in watts and volts, on the LC voltage
    and the linear PMT gain, for an amplitude outside the window."""
    (g_min, g_max), (lo, hi) = agc.PMT_GAIN_RANGE, agc.AGC_WINDOW_V
    err, att, gain_db = db(measured) - db(math.sqrt(lo * hi)), attenuation_db_at(lc_v), db(gain)
    if err > 0:
        att_new = min(att + err, agc.LC_ATTENUATION_RANGE_DB)
        gain_new_db = max(gain_db - (att + err - att_new), db(g_min))
        leftover = att + err - att_new - (gain_db - gain_new_db)
    else:
        gain_new_db = min(gain_db - err, db(g_max))
        leftover = -err - (gain_new_db - gain_db)
        leftover = 0.0 if abs(leftover) < 1e-12 else leftover
        att_new = max(att - leftover, 0.0)
        leftover -= att - att_new
    lc_v = lc_v if att_new == att else lc_voltage_for(att_new)
    if gain_new_db != gain_db:
        gain = min(max(10.0 ** (gain_new_db / 10.0), g_min), g_max)
    return lc_v, gain, leftover > 1e-9


def volt_loop(p_rx_w):
    """Per second of the volt-domain loop: whether it ended saturated (None
    where the volts were 0 and the second went uncounted), and the net gain,
    PMT gain - LC attenuation in dB, after it."""
    (g_min, g_max), (lo, hi) = agc.PMT_GAIN_RANGE, agc.AGC_WINDOW_V
    lc_v, gain, trace = LC_VOLTAGE_RANGE[0], math.sqrt(g_min * g_max), []
    for p in p_rx_w:
        measured = amplitude_v(p, lc_v, gain)
        if measured > 0 and not lo <= measured <= hi:
            lc_v, gain, saturated = volt_step(lc_v, gain, measured)
        else:
            saturated = None if measured <= 0 else False
        trace.append((saturated, db(gain) - attenuation_db_at(lc_v)))
    return trace


def assert_db_loop_matches_volt_loop(p_rx_dbw):
    """Drive both loops over one power trace: the flags agree exactly, the
    net gains to the LC curve inverse's 1e-9 dB. Returns the flagged count."""
    reference = volt_loop([10.0 ** (p / 10.0) for p in p_rx_dbw])
    state, trace = AgcState(), []
    for p in p_rx_dbw:
        state = agc_step(state, p)
        trace.append((state.saturated, state.net_gain_db))
    flags = [flag for flag, _ in trace]
    assert flags == [flag for flag, _ in reference]
    np.testing.assert_allclose([net for _, net in trace], [net for _, net in reference],
                               rtol=0, atol=1e-9)
    return sum(flags)


@pytest.mark.parametrize("preset", ["green-125M", "blue-6M25", "blue-6M25-nlos"])
def test_db_loop_flags_the_seconds_the_volt_loop_flags(preset):
    # seeded fading traces at the preset's power, at 1 uW and at 100 W
    spec = load_preset(preset)
    static = total_loss_db(spec.geometry, spec.c_db_per_m, spec.nlos).total_db
    saturated = 0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        totals = [static + sample_fading_db(spec.fading, rng) for _ in range(60)]
        for tx_w in (spec.tx_power_w, 1e-6, 100.0):
            saturated += assert_db_loop_matches_volt_loop([db(tx_w) - t for t in totals])
    assert saturated > 0


def power_traces(rng, n):
    """Long received-power traces in dBW, all within float range: uniform
    over -120..+20, fading around a base below, inside and above the reach,
    and powers 1e-8 to 1e-3 dB either side of the reach edges. The offsets
    are drawn, since two seconds whose offsets cancel put the level back on
    a window edge, where volts and dB round apart."""
    yield rng.uniform(-120.0, 20.0, n)
    for base_dbw in (-78.0, -45.0, -12.0):
        yield base_dbw + rng.normal(0.0, 4.0, n)
    edges = rng.choice(WINDOW_REACH_DBW + CENTER_REACH_DBW, n)
    yield edges + rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8.0, -3.0, n)


@pytest.mark.parametrize("seed", range(3))
def test_db_loop_matches_the_volt_loop_over_long_traces(seed):
    rng = np.random.default_rng(seed)
    saturated = [assert_db_loop_matches_volt_loop(trace) for trace in power_traces(rng, 2000)]
    # only the fading well inside the reach never saturates
    assert [count > 0 for count in saturated] == [True, True, False, True, True]
