import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from acamsim import devices
from acamsim.devices import (BLEND_V, DEFAULT_PROGRAM_SIGMA, LN10, MIN_SWING,
                             DeviceParams, TsDeviceParams, _bisect,
                             _reach_voltages,
                             _divider_midpoint, _hermite, program_memristor,
                             pulldown_conductance, transistor_conductance,
                             transistor_conductance_inverse,
                             ts_conductance_off_curve)
from acamsim.errors import DomainError, ProgrammingError


def divider_gate_voltage(g_m, v_dl, p):
    """Divider midpoint over memristor ``g_m`` at DL voltage ``v_dl``."""
    return _divider_midpoint(g_m, transistor_conductance(v_dl, p), p)


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


def scalar_inverse_reference(g_t, p):
    """Inverse of the divider transistor curve one Python float at a time:
    closed form on the triode and sub-threshold branches, a 60-step
    bisection on ``transistor_conductance`` inside the blend window."""
    swing_v = p.swing * 1e-3
    e0 = p.beta * BLEND_V / 4.0
    if g_t >= p.beta * BLEND_V:
        return p.v_th + g_t / p.beta
    if g_t <= e0:
        return p.v_th + swing_v * math.log10(g_t / e0)
    lo, hi = p.v_th, p.v_th + BLEND_V
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if transistor_conductance(mid, p) < g_t:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestInverseOnArrays:
    def test_equals_scalar_reference_on_dense_grid(self, params):
        p = params
        e0, e1 = p.beta * BLEND_V / 4.0, p.beta * BLEND_V
        # both joins and their four nearest neighbours on either side
        joins = []
        for g in (e0, e1):
            joins.append(g)
            for toward in (0.0, math.inf):
                x = g
                for _ in range(4):
                    x = math.nextafter(x, toward)
                    joins.append(x)
        closed = np.geomspace(1e-10, 1e-3, 55_000)
        closed = closed[(closed <= e0) | (closed >= e1)]
        # each blend target costs a scalar bisection in both checks below
        blend = np.linspace(e0, e1, 252)[1:-1]
        g = np.concatenate([closed, blend, joins])
        assert g.size >= 50_000
        assert np.count_nonzero((g > e0) & (g < e1)) >= 250
        want = [scalar_inverse_reference(x, p) for x in g.tolist()]
        got = transistor_conductance_inverse(g, p)
        assert got.tolist() == want
        for x, v in zip(g.tolist(), want):
            one = transistor_conductance_inverse(x, p)
            assert type(one) is float and one == v
        # shape is kept, 0-d included
        assert transistor_conductance_inverse(g[:6].reshape(2, 3), p).shape == (2, 3)
        assert transistor_conductance_inverse(g[:1].reshape(()), p).shape == ()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1e-6])
    def test_non_finite_or_non_positive_target_raises(self, params, bad):
        with pytest.raises(DomainError):
            transistor_conductance_inverse(bad, params)
        with pytest.raises(DomainError):
            transistor_conductance_inverse(np.array([20e-6, bad]), params)

    @pytest.mark.parametrize("tol", [1e-3, 0.0])
    def test_bisect_stops_each_element_at_its_tolerance(self, tol):
        # elementwise _bisect equals one scalar bisection per element, each
        # stopping on its own once its bracket is narrower than tol; with
        # tol 0 all 60 steps run, past the point where brackets stop moving
        def scalar(target, lo, hi):
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if mid ** 3 < target:
                    lo = mid
                else:
                    hi = mid
                if abs(hi - lo) < tol:
                    break
            return lo, hi

        targets = np.array([0.3, 0.0, 0.9, 0.5])
        lo0 = np.array([0.0, -1.0, 0.95, 0.5])
        hi0 = np.array([1.0, 0.0, 0.9, 0.5])  # the last two: (hi, lo) order
        lo, hi = _bisect(lambda v: v ** 3 < targets, lo0, hi0, 60, tol=tol)
        want = [scalar(*args) for args in
                zip(targets.tolist(), lo0.tolist(), hi0.tolist())]
        assert list(zip(lo.tolist(), hi.tolist())) == want


# a second valid parameter set next to calibrated_defaults(): a steeper
# sub-threshold swing, another transconductance, and a threshold at which
# (v_th + BLEND_V) - v_th rounds below BLEND_V, so the window's upper end
# lies on the blend, a few ulps below the triode join
OTHER_PARAMS = dict(v_th=0.1, v_th_ml=0.22, v_th_inv=0.26, beta=3.1e-4,
                    swing=70.0)


@pytest.fixture(params=["calibrated", "other"])
def any_params(request, params):
    return params if request.param == "calibrated" else DeviceParams(**OTHER_PARAMS)


def ulps_around(x, n):
    """``x`` and the ``n`` floats on either side of it."""
    out = [x]
    for toward in (-math.inf, math.inf):
        y = x
        for _ in range(n):
            y = math.nextafter(y, toward)
            out.append(y)
    return out


def bisect_inverse(g, p):
    """Blend-window targets ``g`` inverted by one elementwise 60-step
    ``_bisect`` of [v_th, v_th + BLEND_V]."""
    v_th = np.full(g.shape, p.v_th)
    lo, hi = _bisect(lambda v: transistor_conductance(v, p) < g,
                     v_th, v_th + BLEND_V, 60)
    return 0.5 * (lo + hi)


def blend_grid(p):
    """At least 10^5 targets strictly inside the blend window, and both joins
    with the four nearest floats on either side of each."""
    e0, e1 = p.beta * BLEND_V / 4.0, p.beta * BLEND_V
    joins = [x for join in (e0, e1) for x in ulps_around(join, 4)]
    return np.linspace(e0, e1, 100_002)[1:-1], np.array(sorted(joins))


def assert_never_decreases(p):
    """Dense grid over [0, 1] V and 10k ulps either side of each join."""
    v = [np.linspace(0.0, 1.0, 1_000_001)]
    for x in (p.v_th, p.v_th + BLEND_V, 0.0, 1.0):
        v.append(np.array(ulps_around(x, 10_000)))
    v = np.unique(np.concatenate(v))
    assert v.size > 1_000_000
    assert np.all(np.diff(transistor_conductance(v, p)) >= 0.0)


def no_bisect(*args, **kwargs):
    raise AssertionError("the blend-window inverse fell back to _bisect")


class TestBlendInverse:
    """Newton-and-settle lands, bit for bit, where bisecting the window does."""

    def test_conductance_never_decreases(self, any_params):
        # the settle pair is unique only on a curve that never decreases
        assert_never_decreases(any_params)

    def test_conductance_never_decreases_just_above_the_swing_bound(
            self, params):
        assert_never_decreases(replace(params, swing=1.01 * MIN_SWING))

    def test_equals_one_bisection(self, any_params, monkeypatch):
        p = any_params
        grid, joins = blend_grid(p)
        e0, e1 = p.beta * BLEND_V / 4.0, p.beta * BLEND_V
        assert np.count_nonzero((joins > e0) & (joins < e1)) == 8
        want_grid = bisect_inverse(grid, p)
        want_joins = [scalar_inverse_reference(x, p) for x in joins.tolist()]
        monkeypatch.setattr(devices, "_bisect", no_bisect)
        assert transistor_conductance_inverse(grid, p).tolist() == want_grid.tolist()
        # 0-d, 1-element and (2, 3)-shaped calls on the joins and a sample
        g = np.concatenate([joins, grid[::1000]])
        want = np.concatenate([want_joins, want_grid[::1000]])
        for x, v in zip(g.tolist(), want.tolist()):
            one = transistor_conductance_inverse(x, p)
            assert type(one) is float and one == v
            assert transistor_conductance_inverse(np.array(x), p).tolist() == v
            assert transistor_conductance_inverse([x], p).tolist() == [v]
        n = g.size - g.size % 6
        for g6, want6 in zip(g[:n].reshape(-1, 2, 3), want[:n].reshape(-1, 2, 3)):
            assert transistor_conductance_inverse(g6, p).tolist() == want6.tolist()

    def test_dense_grid_never_falls_back(self, params, monkeypatch):
        monkeypatch.setattr(devices, "_bisect", no_bisect)
        TestInverseOnArrays().test_equals_scalar_reference_on_dense_grid(params)

    @pytest.mark.parametrize("newton_steps, settle_ulps", [(8, 0), (3, 16)])
    def test_fallback_when_forced_equals_bisection(self, params, monkeypatch,
                                                    newton_steps, settle_ulps):
        # no settle moves leave every element to _bisect; three Newton steps
        # leave some elements too far for the settle walk and not others
        grid, _ = blend_grid(params)
        grid = grid[::10]
        want = bisect_inverse(grid, params)
        bisected = []

        def counted(below, lo, hi, steps):
            bisected.append(lo.size)
            return _bisect(below, lo, hi, steps)

        monkeypatch.setattr(devices, "_bisect", counted)
        monkeypatch.setattr(devices, "BLEND_NEWTON_STEPS", newton_steps)
        monkeypatch.setattr(devices, "BLEND_SETTLE_ULPS", settle_ulps)
        assert transistor_conductance_inverse(grid, params).tolist() == want.tolist()
        assert len(bisected) == 1
        if settle_ulps == 0:
            assert bisected[0] == grid.size
        else:
            assert 0 < bisected[0] < grid.size


class TestReachVoltages:
    """The first float at which the divider conductance reaches a target."""

    @staticmethod
    def _targets(p):
        g_0, g_1 = transistor_conductance(np.array([0.0, 1.0]), p)
        rng = np.random.default_rng(97)
        return np.concatenate([
            transistor_conductance(np.linspace(0.0, 1.0, 20_001), p),
            np.geomspace(g_0, g_1, 20_001),
            [g_0, np.nextafter(g_0, math.inf), g_1, np.nextafter(g_1, 0.0),
             np.nextafter(g_1, math.inf), 0.0, -1.0, -math.inf, math.inf,
             -np.finfo(float).max]]), g_0, g_1

    def test_first_float_at_or_above_each_target(self, any_params):
        p = any_params
        g, g_0, g_1 = self._targets(p)
        v = _reach_voltages(g, p)
        assert np.array_equal(v == -math.inf, g <= g_0)
        assert np.array_equal(v == math.inf, g > g_1)
        ok = np.isfinite(v)
        assert np.all((v[ok] > 0.0) & (v[ok] <= 1.0))
        assert np.all(transistor_conductance(v[ok], p) >= g[ok])
        below = np.nextafter(v[ok], -math.inf)
        assert np.all(transistor_conductance(below, p) < g[ok])

    def test_forced_bisection_gives_the_same_floats(self, params, monkeypatch):
        g = self._targets(params)[0][::7]
        want = _reach_voltages(g, params)
        monkeypatch.setattr(devices, "EDGE_CHECK_ULPS", 0)
        assert _reach_voltages(g, params).tobytes() == want.tobytes()


def all_branches_conductance(v_dl, p):
    """Every branch on every element, then a pick per element: the formula
    ``transistor_conductance`` evaluated before it masked its branches."""
    v = np.asarray(v_dl, dtype=float)
    swing_v = p.swing * 1e-3
    e0 = p.beta * BLEND_V / 4.0
    u = v - p.v_th
    sub = e0 * np.power(10.0, np.minimum(u, 0.0) / swing_v)
    tri = p.beta * u
    t = np.clip(u / BLEND_V, 0.0, 1.0)
    blend = _hermite(t, e0, e0 * LN10 / swing_v * BLEND_V, p.beta * BLEND_V,
                     p.beta * BLEND_V)
    out = np.where(u <= 0.0, sub, np.where(u >= BLEND_V, tri, blend))
    return float(out) if np.isscalar(v_dl) else out


class TestTransistorConductanceBranches:
    """Evaluating only the branch each element needs changes no bit."""

    @staticmethod
    def _grid(p):
        near = []
        for edge in (p.v_th, p.v_th + BLEND_V):
            lo = hi = edge
            for _ in range(4):
                lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
                near += [lo, hi]
            near.append(edge)
        return np.concatenate([np.linspace(0.0, 1.0, 200001), near])

    @pytest.mark.parametrize("swing", [100.0, 60.0])
    def test_bit_identical_to_all_branches(self, params, swing):
        p = replace(params, swing=swing)
        v = self._grid(p)
        assert np.array_equal(transistor_conductance(v, p),
                              all_branches_conductance(v, p))
        v2 = v[:200000].reshape(400, 500)
        got = transistor_conductance(v2, p)
        assert got.shape == (400, 500)
        assert np.array_equal(got, all_branches_conductance(v2, p))
        for x in v[200001:].tolist() + v[::4001].tolist():
            assert transistor_conductance(x, p) == all_branches_conductance(x, p)
            zero_d = transistor_conductance(np.array(x), p)
            assert type(zero_d) is np.ndarray and zero_d.shape == ()
            assert zero_d == all_branches_conductance(np.array(x), p)

    def test_return_types(self, params):
        for x in (0.1, 0.3, params.v_th + BLEND_V / 2, np.float64(0.7)):
            assert type(transistor_conductance(x, params)) is float
        for shape in ((), (1,), (3,), (2, 3)):
            out = transistor_conductance(np.full(shape, 0.4), params)
            assert type(out) is np.ndarray and out.shape == shape
            assert out.dtype == np.float64
        out = transistor_conductance([0.1, 0.4], params)
        assert type(out) is np.ndarray and out.shape == (2,)
        assert transistor_conductance(np.empty((0, 4)), params).shape == (0, 4)


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
        p = replace(params, g_off=0.0)
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
                                   p=params)
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
            program_memristor(40e-6, seed=7, tol=1e-12, max_iters=3, p=params)
        assert exc.value.iterations == 3
        assert params.g_min <= exc.value.best_g <= params.g_max


def clip_reference_program(target, seed, tol, max_iters, p):
    """Program-and-verify loop clamping each pulse with ``np.clip``."""
    rng = np.random.default_rng(seed)
    best = None
    for i in range(1, max_iters + 1):
        g = float(np.clip(target + rng.normal(0.0, DEFAULT_PROGRAM_SIGMA),
                          p.g_min, p.g_max))
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
                program_memristor(target, 7, 1e-12, 3, params)
            with pytest.raises(ProgrammingError) as ref:
                clip_reference_program(target, 7, 1e-12, 3, params)
            assert got.value.best_g == ref.value.best_g
            assert type(got.value.best_g) is float
            assert got.value.iterations == 3

    @pytest.mark.parametrize("kwargs", [
        dict(tol=math.nan), dict(tol=math.inf), dict(tol=0.0),
    ])
    def test_bad_arguments_rejected_before_any_pulse(self, params, kwargs,
                                                     monkeypatch):
        args = dict(tol=1e-6) | kwargs
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
        dict(swing=1.9),              # the blend would decrease (MIN_SWING)
        dict(g_min=2e-4, g_max=1e-4),
        dict(g_on=1e-9, g_off=1e-6),
        dict(g_off=-1e-10),
        dict(g_on=math.nan),
        dict(swing=math.inf),
        dict(v_slhi=math.inf),
    ])
    def test_invariants_rejected(self, bad):
        base = dict(v_th=0.29, v_th_ml=0.3, v_th_inv=0.32, beta=3.3e-4)
        base.update(bad)
        with pytest.raises(DomainError):
            DeviceParams(**base)

    def test_ts_invariants_rejected(self):
        with pytest.raises(DomainError):
            TsDeviceParams(g_ts_on=1e-9, g_ts_off=1e-6)

