import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from acamsim.devices import (DeviceParams, TsDeviceParams,
                             divider_gate_voltage, program_memristor,
                             pulldown_conductance, transistor_conductance,
                             transistor_conductance_inverse,
                             ts_conductance_off_curve)
from acamsim.errors import DomainError, ProgrammingError


def bisect_divider_crossing(g_m, level, p, lo=0.0, hi=1.0):
    """Independent root-finder on the divider equation (test-side oracle)."""
    assert divider_gate_voltage(g_m, lo, p) > level > divider_gate_voltage(g_m, hi, p)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if divider_gate_voltage(g_m, mid, p) > level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestDividerGateVoltage:
    def test_approaches_supply_for_large_conductance(self, params):
        # with the transistor nearly off, the memristor wins the divider
        v = divider_gate_voltage(params.g_max, 0.0, params)
        assert v > 0.999 * params.v_slhi
        gs = np.linspace(params.g_min, params.g_max, 50)
        vals = [divider_gate_voltage(g, 0.4, params) for g in gs]
        assert np.all(np.diff(vals) > 0)
        assert vals[-1] < params.v_slhi

    def test_equal_conductance_splits_supply(self, params):
        g_t = transistor_conductance(0.4, params)
        assert params.g_min <= g_t <= params.g_max
        v = divider_gate_voltage(g_t, 0.4, params)
        assert v == pytest.approx(params.v_slhi / 2, abs=1e-12)

    def test_calibrated_crossing_at_published_lower_bound(self, params):
        # root of V_G(40 uS, v) = v_th_ml lands on the published 0.37 V bound
        root = bisect_divider_crossing(40e-6, params.v_th_ml, params)
        assert root == pytest.approx(0.37, abs=1e-3)

    def test_strictly_decreasing_in_dl(self, params):
        v_dl = np.linspace(0.0, 1.0, 200)
        out = divider_gate_voltage(40e-6, v_dl, params)
        assert np.all(np.diff(out) < 0)

    def test_out_of_window_conductance_rejected(self, params):
        with pytest.raises(DomainError):
            divider_gate_voltage(params.g_max * 2, 0.4, params)
        with pytest.raises(DomainError):
            divider_gate_voltage(params.g_min / 2, 0.4, params)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.25, 0.45), st.floats(1e-4, 1e-3), st.floats(0.05, 0.2))
    def test_monotonicity_over_parameter_draws(self, v_th, beta, v_th_ml_frac):
        p = DeviceParams(v_th=v_th, v_th_ml=0.5 * v_th_ml_frac + 0.15,
                         v_th_inv=0.3, beta=beta)
        v_dl = np.linspace(0.0, 1.0, 60)
        for g in (2e-6, 40e-6, 120e-6):
            out = divider_gate_voltage(g, v_dl, p)
            assert np.all(np.diff(out) < 0)
        gs = np.linspace(p.g_min, p.g_max, 60)
        for v in (0.1, 0.4, 0.8):
            out = [divider_gate_voltage(g, v, p) for g in gs]
            assert np.all(np.diff(out) > 0)


class TestTransistorConductance:
    def test_triode_branch_is_affine(self, params):
        for dv in (0.05, 0.1, 0.3):
            g = transistor_conductance(params.v_th + dv, params)
            assert g == pytest.approx(params.beta * dv, rel=1e-12)

    def test_subthreshold_slope(self, params):
        g1 = transistor_conductance(params.v_th - 0.05, params)
        g2 = transistor_conductance(params.v_th - 0.15, params)
        assert g1 / g2 == pytest.approx(10.0, rel=1e-9)  # one decade per swing

    def test_continuous_and_monotone_through_blend(self, params):
        v = np.linspace(params.v_th - 0.05, params.v_th + 0.05, 2001)
        g = transistor_conductance(v, params)
        assert np.all(np.diff(g) > 0)
        # no jump bigger than the local trend anywhere
        assert np.max(np.diff(g)) < 5 * params.beta * (v[1] - v[0])

    def test_inverse_round_trips(self, params):
        for v in (0.25, params.v_th + 0.002, params.v_th + 0.02, 0.5):
            g = transistor_conductance(v, params)
            assert transistor_conductance_inverse(g, params) == pytest.approx(v, abs=2e-6)


class TestPulldownConductance:
    def test_on_at_threshold(self, params):
        assert pulldown_conductance(params.v_th_ml, params) == params.g_on
        assert pulldown_conductance(params.v_th_ml + 0.1, params) == params.g_on

    def test_one_decade_below_threshold(self, params):
        swing_v = params.swing * 1e-3
        g = pulldown_conductance(params.v_th_ml - swing_v, params)
        assert g == pytest.approx(params.g_off / 10, rel=1e-9)

    def test_clamp_floor(self):
        p = DeviceParams(v_th=0.29, v_th_ml=0.3, v_th_inv=0.32, beta=3.3e-4,
                         swing=40.0)
        # 0.3 V / 40 mV per decade = 7.5 decades, past the 1e-6 floor
        assert pulldown_conductance(0.0, p) == pytest.approx(p.g_off * 1e-6)

    def test_spans_three_decades_at_default_swing(self, params):
        span = math.log10(pulldown_conductance(params.v_th_ml, params)
                          / pulldown_conductance(0.0, params))
        assert span >= 3.0

    def test_monotone_nondecreasing(self, params):
        v = np.linspace(0.0, 0.5, 5001)
        g = pulldown_conductance(v, params)
        assert np.all(np.diff(g) >= 0)

    def test_zero_leakage_device(self, params):
        p = params.with_(g_off=0.0)
        assert pulldown_conductance(0.1, p) == 0.0
        assert pulldown_conductance(p.v_th_ml, p) == p.g_on
        v = np.linspace(0.0, 0.4, 2001)
        assert np.all(np.diff(pulldown_conductance(v, p)) >= 0)

    def test_negative_gate_rejected(self, params):
        with pytest.raises(DomainError):
            pulldown_conductance(-0.1, params)


class TestTsOffCurve:
    def test_rises_to_on_at_threshold(self, ts_params):
        tp = ts_params
        v = np.linspace(0.0, 1.0, 2001)
        g = ts_conductance_off_curve(v, tp)
        assert np.all(np.diff(g) >= 0)
        assert g[0] == tp.g_ts_off * 1e-9
        assert ts_conductance_off_curve(tp.v_threshold, tp) == tp.g_ts_on
        # one decade per swing_ts below the blend window
        below = tp.v_threshold - 2 * tp.swing_ts * 1e-3
        assert ts_conductance_off_curve(below, tp) == pytest.approx(
            tp.g_ts_off * 1e-2, rel=1e-9)

    def test_continuous_at_blend_edge(self, ts_params):
        edge = ts_params.v_threshold - ts_params.swing_ts * 1e-3
        lo, hi = ts_conductance_off_curve(np.array([edge - 1e-9, edge + 1e-9]),
                                          ts_params)
        assert hi == pytest.approx(lo, rel=1e-5)


class TestProgramMemristor:
    def test_converges_within_tolerance(self, params):
        result = program_memristor(40e-6, seed=123, tol=1e-6, max_iters=100,
                                   p=params, sigma=2e-6)
        assert abs(result.state.g - 40e-6) <= 1e-6
        assert 1 <= result.iterations <= 100

    def test_wide_tolerance_takes_one_pulse(self, params):
        tol = params.g_max - params.g_min
        result = program_memristor(40e-6, seed=5, tol=tol, max_iters=100,
                                   p=params)
        assert result.iterations == 1

    def test_target_outside_window_rejected(self, params):
        with pytest.raises(DomainError):
            program_memristor(params.g_max * 1.5, seed=0, tol=1e-6,
                              max_iters=10, p=params)

    def test_deterministic_given_seed(self, params):
        a = program_memristor(40e-6, seed=42, tol=1e-6, max_iters=100, p=params)
        b = program_memristor(40e-6, seed=42, tol=1e-6, max_iters=100, p=params)
        assert a == b

    def test_residual_spread_below_tolerance(self, params):
        tol = 1e-6
        residuals = [program_memristor(40e-6, seed=s, tol=tol, max_iters=200,
                                       p=params).state.g - 40e-6
                     for s in range(1000)]
        assert np.std(residuals) <= tol

    def test_nonconvergence_reports_best(self, params):
        with pytest.raises(ProgrammingError) as exc:
            program_memristor(40e-6, seed=7, tol=1e-12, max_iters=3, p=params,
                              sigma=20e-6)
        assert exc.value.iterations == 3
        assert params.g_min <= exc.value.best_g <= params.g_max


def clip_reference_program(target, seed, tol, max_iters, p, sigma=2e-6):
    """Program-and-verify loop clamping each pulse with ``np.clip``."""
    rng = np.random.default_rng(seed)
    best = None
    for i in range(1, max_iters + 1):
        g = float(np.clip(target + rng.normal(0.0, sigma), p.g_min, p.g_max))
        if best is None or abs(g - target) < abs(best - target):
            best = g
        if abs(g - target) <= tol:
            return g, i
    raise ProgrammingError("", best_g=best, iterations=max_iters)


class TestProgramMemristorRegression:
    def test_equals_clip_reference(self, params):
        rng = np.random.default_rng(2024)
        targets = [params.g_min, params.g_max, params.g_min + 1e-7,
                   params.g_max - 1e-7]
        targets += rng.uniform(params.g_min, params.g_max, 1200).tolist()
        clamped = 0
        for k, target in enumerate(targets):
            seed = (k, int(rng.integers(1 << 31)))
            r = program_memristor(target, seed, 1e-6, 100, params)
            assert (r.state.g, r.iterations) == clip_reference_program(
                target, seed, 1e-6, 100, params)
            assert type(r.state.g) is float
            clamped += r.state.g in (params.g_min, params.g_max)
        assert clamped > 0  # the clamp binds at the window edges

    def test_nonconvergence_equals_clip_reference(self, params):
        for target in (params.g_min + 1e-9, 40e-6, params.g_max - 1e-9):
            with pytest.raises(ProgrammingError) as got:
                program_memristor(target, 7, 1e-12, 3, params, sigma=20e-6)
            with pytest.raises(ProgrammingError) as ref:
                clip_reference_program(target, 7, 1e-12, 3, params, sigma=20e-6)
            assert got.value.best_g == ref.value.best_g
            assert type(got.value.best_g) is float
            assert got.value.iterations == 3

    @pytest.mark.parametrize("kwargs", [
        dict(sigma=-1e-6), dict(sigma=math.nan), dict(sigma=math.inf),
        dict(tol=math.nan), dict(tol=math.inf), dict(tol=0.0),
    ])
    def test_bad_arguments_rejected_before_any_pulse(self, params, kwargs,
                                                     monkeypatch):
        args = dict(tol=1e-6, sigma=2e-6) | kwargs
        monkeypatch.setattr(np.random, "default_rng", None)  # no pulse drawn
        with pytest.raises(DomainError):
            program_memristor(40e-6, 0, max_iters=10, p=params, **args)


    @pytest.mark.parametrize("seed", [-1, (-1, 0, 0, 0), (3, -2), 1.5,
                                      "seven"])
    def test_seed_numpy_rejects_is_domain_error(self, params, seed):
        with pytest.raises(DomainError, match="seed"):
            program_memristor(40e-6, seed, tol=1e-6, max_iters=10, p=params)

    @pytest.mark.parametrize("seed", [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3,
                                      (2 ** 32, 1, 0, 1),
                                      (0, 2 ** 40, 7, 2 ** 63)])
    def test_large_seed_entries_keep_their_stream(self, params, seed):
        for target in (params.g_min, 40e-6, 97.3e-6):
            r = program_memristor(target, seed, 1e-6, 100, params)
            assert (r.state.g, r.iterations) == clip_reference_program(
                target, seed, 1e-6, 100, params)


class TestDeviceParams:
    def test_json_round_trip(self, params):
        doc = params.to_json_dict()
        assert doc["beta_uS_per_V"] == pytest.approx(params.beta * 1e6)
        assert doc["swing_mV_per_dec"] == params.swing
        back = DeviceParams.from_json_dict(doc)
        for name in DeviceParams._JSON_FIELDS:
            assert getattr(back, name) == pytest.approx(getattr(params, name),
                                                        rel=1e-12)

    def test_missing_fitted_fields_rejected(self):
        with pytest.raises(DomainError):
            DeviceParams.from_json_dict({"v_slhi_V": 0.5})

    @pytest.mark.parametrize("bad", [
        dict(v_th_ml=0.6),            # above supply
        dict(v_th_inv=0.0),
        dict(beta=-1e-4),
        dict(swing=0.0),
        dict(g_min=2e-4, g_max=1e-4),
        dict(g_on=1e-9, g_off=1e-6),
    ])
    def test_invariants_rejected(self, bad):
        base = dict(v_th=0.29, v_th_ml=0.3, v_th_inv=0.32, beta=3.3e-4)
        base.update(bad)
        with pytest.raises(DomainError):
            DeviceParams(**base)

    def test_ts_invariants_rejected(self):
        with pytest.raises(DomainError):
            TsDeviceParams(v_threshold=0.1, v_hold=0.2)

