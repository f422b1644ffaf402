import numpy as np
import pytest

from uwoclink.agc import AgcState, CalibrationError, ReceiverChain, agc_step, fit_calibration

CHAIN = ReceiverChain()


def predict_amplitude(cal, chain, p_opt_w, lc_voltage, gain):
    """Volts the fitted model gives at these actuators: the fitted
    responsivity times power and gain, less the fitted LC attenuation
    scaled by the chain's curve shape."""
    shape = chain.attenuation_db_at(lc_voltage) / chain.max_attenuation_db()
    att_db = cal.att_scale_db * shape
    return p_opt_w * gain * 10.0 ** ((cal.responsivity_db - att_db) / 10.0)


def make_state(**kwargs):
    defaults = dict(lc_voltage=0.0, pmt_gain=1e4,
                    window_low_v=0.5, window_high_v=5.0)
    defaults.update(kwargs)
    return AgcState(**defaults)


def settle(chain, state, p_opt_w, max_steps=10):
    """Closed-loop run against the multiplicative plant."""
    steps = 0
    for _ in range(max_steps):
        measured = chain.amplitude_v(p_opt_w, state.lc_voltage, state.pmt_gain)
        if state.in_window(measured):
            return state, steps
        state = agc_step(chain, state, measured)
        steps += 1
    return state, steps


class TestReceiverChain:
    def test_transmittance_is_one_at_v_min(self):
        assert CHAIN.lc_transmittance(0.0) == 1.0

    def test_transmittance_monotone_non_increasing(self):
        volts = np.linspace(0.0, 5.0, 100)
        trans = [CHAIN.lc_transmittance(v) for v in volts]
        assert all(b <= a + 1e-15 for a, b in zip(trans, trans[1:]))

    def test_full_range_attenuation(self):
        assert CHAIN.max_attenuation_db() == pytest.approx(20.0)

    def test_attenuation_inverse(self):
        for att in (0.0, 3.0, 10.0, 19.9):
            v = CHAIN.voltage_for_attenuation_db(att)
            assert CHAIN.attenuation_db_at(v) == pytest.approx(att, abs=1e-6)

    def test_table_override(self):
        chain = ReceiverChain(lc_table=((0.0, 2.5, 5.0), (1.0, 0.5, 0.01)))
        assert chain.lc_transmittance(0.0) == 1.0
        assert chain.lc_transmittance(2.5) == pytest.approx(0.5)
        assert chain.lc_transmittance(5.0) == pytest.approx(0.01)

    def test_bad_table_rejected(self):
        with pytest.raises(ValueError):
            ReceiverChain(lc_table=((0.0, 5.0), (0.5, 1.0)))  # increasing
        with pytest.raises(ValueError):
            ReceiverChain(lc_table=((0.0, 5.0), (0.9, 0.1)))  # not 1 at v_min



class TestPredict:
    def _map(self):
        rng = np.random.default_rng(0)
        samples = self._grid(rng, noise=0.0)
        return fit_calibration(samples, CHAIN)

    @staticmethod
    def _grid(rng, noise):
        samples = []
        for p in np.logspace(-6, -3, 4):
            for v in np.linspace(0.0, 5.0, 4):
                for g in np.logspace(2, 6, 3):
                    measured = CHAIN.amplitude_v(p, v, g)
                    if noise:
                        measured *= 1.0 + noise * rng.standard_normal()
                    samples.append((p, v, g, measured))
        return samples

    def test_linearity_in_power(self):
        cal = self._map()
        v1 = predict_amplitude(cal, CHAIN, 1e-4, 2.0, 1e3)
        v2 = predict_amplitude(cal, CHAIN, 2e-4, 2.0, 1e3)
        assert v2 == pytest.approx(2.0 * v1, rel=1e-9)

    def test_unit_chain(self):
        cal = self._map()
        predicted = predict_amplitude(cal, CHAIN, 1e-3, 0.0, 1.0)
        assert predicted == pytest.approx(CHAIN.responsivity_v_per_w * 1e-3,
                                          rel=1e-6)

    def test_heldout_prediction_error_below_1pct(self):
        cal = self._map()
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = 10 ** rng.uniform(-6, -3)
            v = rng.uniform(0.0, 5.0)
            g = 10 ** rng.uniform(2, 6)
            truth = CHAIN.amplitude_v(p, v, g)
            assert predict_amplitude(cal, CHAIN, p, v, g) == pytest.approx(truth, rel=0.01)


class TestFit:
    def test_exact_recovery_noiseless(self):
        rng = np.random.default_rng(1)
        cal = fit_calibration(TestPredict._grid(rng, 0.0), CHAIN)
        assert 10 ** (cal.responsivity_db / 10.0) == pytest.approx(50.0, rel=1e-9)
        assert cal.att_scale_db == pytest.approx(20.0, rel=1e-9)
        assert cal.residual_rms_db < 1e-9

    def test_noisy_recovery_within_3pct(self):
        rng = np.random.default_rng(2)
        cal = fit_calibration(TestPredict._grid(rng, 0.01), CHAIN)
        assert 10 ** (cal.responsivity_db / 10.0) == pytest.approx(50.0, rel=0.03)
        assert cal.att_scale_db == pytest.approx(20.0, rel=0.03)

    def test_single_voltage_rejected(self):
        samples = [(1e-4, 2.0, g, CHAIN.amplitude_v(1e-4, 2.0, g))
                   for g in np.logspace(2, 6, 10)]
        with pytest.raises(CalibrationError):
            fit_calibration(samples, CHAIN)

    def test_single_gain_rejected(self):
        samples = [(1e-4, v, 1e3, CHAIN.amplitude_v(1e-4, v, 1e3))
                   for v in np.linspace(0, 5, 10)]
        with pytest.raises(CalibrationError):
            fit_calibration(samples, CHAIN)

    def test_too_few_samples_rejected(self):
        with pytest.raises(CalibrationError):
            fit_calibration([(1e-4, 0.0, 1e3, 1.0)] * 4, CHAIN)

    def test_responsivity_beyond_float_range_rejected(self):
        # finite samples whose fit is 8000 dB (10^800 V/W), which no float holds
        samples = [(p, v, g, 1e300) for p in (1e-300, 1e-200)
                   for v in (0.0, 2.0) for g in (1e-300, 1e-200)]
        with pytest.raises(CalibrationError, match="overflows a float in V/W"):
            fit_calibration(samples, CHAIN)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("column, field", [
        (0, "p_watts"), (1, "lc_volts"), (2, "gain"), (3, "measured_volts"),
    ])
    def test_non_finite_field_rejected(self, column, field, bad):
        # one bad row among valid ones used to fit to NaN or stop in the SVD
        samples = [list(row) for row in TestPredict._grid(None, 0.0)]
        samples[6][column] = bad
        with pytest.raises(CalibrationError, match=f"^sample 7: {field} is "):
            fit_calibration(samples, CHAIN)


class TestStep:
    def test_in_window_is_fixed_point(self):
        state = make_state()
        stepped = agc_step(CHAIN, state, 1.0)
        assert stepped.lc_voltage == state.lc_voltage
        assert stepped.pmt_gain == state.pmt_gain
        again = agc_step(CHAIN, stepped, 1.0)
        assert again.lc_voltage == stepped.lc_voltage
        assert again.pmt_gain == stepped.pmt_gain

    def test_20db_step_recovers_within_10(self):
        p0 = 3.16e-6  # sits mid-window at the initial actuators
        state, _ = settle(CHAIN, make_state(), p0)
        boosted = p0 * 100.0  # +20 dB optical step
        state, steps = settle(CHAIN, state, boosted)
        measured = CHAIN.amplitude_v(boosted, state.lc_voltage, state.pmt_gain)
        assert state.in_window(measured)
        assert steps <= 10

    def test_below_sensitivity_saturates_at_bounds(self):
        state = make_state(lc_voltage=0.0, pmt_gain=1e6)
        p = 1e-12  # microvolts even at full gain
        measured = CHAIN.amplitude_v(p, state.lc_voltage, state.pmt_gain)
        stepped = agc_step(CHAIN, state, measured)
        assert stepped.saturated
        assert stepped.pmt_gain == pytest.approx(1e6)
        assert stepped.lc_voltage == pytest.approx(0.0)

    def test_actuators_stay_in_bounds(self):
        rng = np.random.default_rng(3)
        g_min, g_max = CHAIN.pmt_gain_range
        v_min, v_max = CHAIN.lc_voltage_range
        state = make_state()
        for _ in range(300):
            measured = 10 ** rng.uniform(-4, 3)
            state = agc_step(CHAIN, state, measured)
            assert g_min <= state.pmt_gain <= g_max
            assert v_min <= state.lc_voltage <= v_max

    def test_monotone_response(self):
        state = make_state(lc_voltage=2.0, pmt_gain=1e4)
        hot1 = agc_step(CHAIN, state, 8.0)
        hot2 = agc_step(CHAIN, state, 80.0)
        assert CHAIN.attenuation_db_at(hot2.lc_voltage) >= \
            CHAIN.attenuation_db_at(hot1.lc_voltage)
        assert hot2.pmt_gain <= hot1.pmt_gain
        cold1 = agc_step(CHAIN, state, 0.4)
        cold2 = agc_step(CHAIN, state, 0.04)
        assert cold2.pmt_gain >= cold1.pmt_gain
        assert CHAIN.attenuation_db_at(cold2.lc_voltage) <= \
            CHAIN.attenuation_db_at(cold1.lc_voltage)

    def test_convergence_over_30db_grid(self):
        # 41 static power levels spanning 30 dB, <= 10 steps each
        for p in np.logspace(-6, -3, 41):
            state, steps = settle(CHAIN, make_state(), p)
            measured = CHAIN.amplitude_v(p, state.lc_voltage, state.pmt_gain)
            assert state.in_window(measured), p
            assert steps <= 10
            # and stays there
            after = agc_step(CHAIN, state, measured)
            assert (after.lc_voltage, after.pmt_gain) == \
                (state.lc_voltage, state.pmt_gain)

    def test_invalid_measured_rejected(self):
        with pytest.raises(ValueError):
            agc_step(CHAIN, make_state(), 0.0)
