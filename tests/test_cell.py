import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from acamsim.cell import (CellConfig, REFERENCE_ANCHORS, VoltageInterval,
                          achievable_window, bounds_from_conductance,
                          calibrate, calibrated_defaults,
                          conductance_from_bounds,
                          lower_bound_voltage, quantize_levels,
                          upper_bound_voltage)
from acamsim.devices import transistor_conductance
from acamsim.errors import (CalibrationError, DomainError,
                            InconsistentCellError, OutOfWindowError,
                            PackingError)
from acamsim.tables import LevelFamily


def affine_slopes(p):
    """Triode-regime bound slopes implied by the divider equation."""
    k_lo = (p.v_slhi / p.v_th_ml - 1.0) / p.beta
    k_hi = (p.v_slhi / p.v_th_inv - 1.0) / p.beta
    return k_lo, k_hi


class TestBoundsFromConductance:
    def test_reference_cell_interval(self, params):
        iv = VoltageInterval(*bounds_from_conductance(40e-6, 80e-6, params))
        assert iv.lo == pytest.approx(0.37, abs=0.010)
        assert iv.hi == pytest.approx(0.42, abs=0.010)

    def test_wider_reference_cell_interval(self, params):
        iv = VoltageInterval(*bounds_from_conductance(20e-6, 80e-6, params))
        assert iv.lo == pytest.approx(0.33, abs=0.010)
        assert iv.hi == pytest.approx(0.43, abs=0.010)

    def test_equal_conductances_invert(self, params):
        # the lower-bound divider crosses later than the upper-bound one,
        # so a pair with g_m1 == g_m2 maps to an inverted interval
        k_lo, k_hi = affine_slopes(params)
        g = 60e-6
        lo = lower_bound_voltage(g, params)
        hi = upper_bound_voltage(g, params)
        assert hi - lo == pytest.approx((k_hi - k_lo) * g, abs=1e-4)
        with pytest.raises(InconsistentCellError):
            bounds_from_conductance(g, g, params)

    @pytest.mark.parametrize("variant", ["mosfet", "ts"])
    def test_elementwise_equals_one_pair_at_a_time(self, params, ts_params,
                                                   variant):
        # the low end of the window maps into the divider's blend window
        ts = ts_params if variant == "ts" else None
        g1 = np.geomspace(params.g_min, 60e-6, 120)
        g2 = np.geomspace(80e-6, params.g_max, 120)
        lo, hi = bounds_from_conductance(g1, g2, params, variant, ts)
        for k, (a, b) in enumerate(zip(g1.tolist(), g2.tolist())):
            one = bounds_from_conductance(a, b, params, variant, ts)
            assert one == (lo[k], hi[k])
            assert type(one[0]) is float and type(one[1]) is float
            assert lower_bound_voltage(a, params, variant, ts) == lo[k]
            assert upper_bound_voltage(b, params, variant, ts) == hi[k]

    def test_first_inverted_pair_is_named(self, params):
        g1 = np.array([20e-6, 80e-6, 150e-6])
        g2 = np.array([80e-6, 40e-6, 150e-6])
        with pytest.raises(InconsistentCellError) as exc:
            bounds_from_conductance(g1, g2, params)
        assert str(exc.value) == ("conductances (8.000e-05, 4.000e-05) S map "
                                  "to inverted interval [0.4500, 0.3575] V")

    def test_lower_bound_ignores_upper_memristor(self, params):
        # bound independence is exact by construction: < 0.1 mV required
        lo_a = bounds_from_conductance(40e-6, 60e-6, params)[0]
        lo_b = bounds_from_conductance(40e-6, 120e-6, params)[0]
        assert abs(lo_a - lo_b) < 1e-4
        hi_a = bounds_from_conductance(20e-6, 80e-6, params)[1]
        hi_b = bounds_from_conductance(60e-6, 80e-6, params)[1]
        assert abs(hi_a - hi_b) < 1e-4

    def test_bounds_strictly_increase_with_conductance(self, params):
        gs = np.linspace(params.g_min, params.g_max, 80)
        lows = [lower_bound_voltage(g, params) for g in gs]
        highs = [upper_bound_voltage(g, params) for g in gs]
        assert np.all(np.diff(lows) > 0)
        assert np.all(np.diff(highs) > 0)

    def test_affine_law_in_triode_regime(self, params):
        # simulated roots track the linear divider law where the transistor
        # is well above threshold (v - v_th > 50 mV)
        k_lo, k_hi = affine_slopes(params)
        for g in np.linspace(30e-6, params.g_max, 40):
            lo = lower_bound_voltage(g, params)
            if lo - params.v_th > 0.05:
                assert abs(lo - (params.v_th + k_lo * g)) < 0.005
            hi = upper_bound_voltage(g, params)
            if hi - params.v_th > 0.05:
                assert abs(hi - (params.v_th + k_hi * g)) < 0.005


class TestConductanceFromBounds:
    def test_reference_interval_inverts_to_reference_cell(self, params):
        c = CellConfig(*conductance_from_bounds(0.37, 0.42, params))
        assert c.g_m1 == pytest.approx(40e-6, rel=0.02)
        # the calibrated upper-bound slope splits the difference between the
        # two published anchors, so 0.42 V asks for slightly less than 80 uS
        assert c.g_m2 == pytest.approx(80e-6, rel=0.05)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_round_trip_within_one_millivolt(self, params, data):
        w = achievable_window(params)
        lo = data.draw(st.floats(w.lo, w.hi - 0.005))
        hi = data.draw(st.floats(lo, w.hi))
        iv = VoltageInterval(lo, hi)
        back = VoltageInterval(*bounds_from_conductance(
            *conductance_from_bounds(iv.lo, iv.hi, params), params))
        assert back.lo == pytest.approx(iv.lo, abs=1e-3)
        assert back.hi == pytest.approx(iv.hi, abs=1e-3)

    @pytest.mark.parametrize("variant", ["mosfet", "ts"])
    def test_zero_width_round_trip_on_dense_grid(self, params, ts_params,
                                                 variant):
        # zero-width intervals come back inverted by an ulp from the two
        # independent bound inversions; that is rounding, not an error
        ts = ts_params if variant == "ts" else None
        w = achievable_window(params, variant, ts)
        grid = np.append(np.linspace(w.lo, w.hi, 5001), 0.3892079248876082)
        lo, hi = bounds_from_conductance(
            *conductance_from_bounds(grid, grid, params, variant, ts),
            params, variant, ts)
        assert np.all(lo <= hi)
        assert np.all(np.abs(lo - grid) <= 1e-3)
        assert np.all(np.abs(hi - grid) <= 1e-3)

    @pytest.mark.parametrize("variant", ["mosfet", "ts"])
    def test_equals_scalar_divider_equation(self, params, ts_params, variant):
        # the array evaluation behind the whole-table lowering must give
        # the same bits as the divider equation on Python floats
        ts = ts_params if variant == "ts" else None
        p = params
        if variant == "mosfet":
            v_lo, v_hi = p.v_th_ml, p.v_th_inv
        else:
            v_lo = ts.v_threshold
            v_hi = p.v_th_inv - (ts.v_threshold - p.v_th_inv) / p.inv_gain
        w = achievable_window(p, variant, ts)
        grid = np.linspace(w.lo, w.hi, 51).tolist()
        for lo, hi in itertools.combinations_with_replacement(grid, 2):
            expect = CellConfig(
                transistor_conductance(lo, p) * v_lo / (p.v_slhi - v_lo),
                transistor_conductance(hi, p) * v_hi / (p.v_slhi - v_hi))
            got = CellConfig(*conductance_from_bounds(lo, hi, p, variant, ts))
            assert got == expect
            assert type(got.g_m1) is float and type(got.g_m2) is float

    def test_unachievable_interval_names_bound(self, params):
        with pytest.raises(OutOfWindowError) as exc:
            conductance_from_bounds(0.37, 0.95, params)
        assert exc.value.bound == "hi"
        with pytest.raises(OutOfWindowError) as exc:
            conductance_from_bounds(0.95, 0.99, params)
        assert exc.value.bound == "lo"


class TestQuantizeLevels:
    def test_eight_levels_over_reference_window(self):
        levels = quantize_levels(8, VoltageInterval(0.2, 0.6), guard=0.010)
        assert len(levels) == 8
        for lv in levels:
            assert lv.width == pytest.approx(0.040)
        # disjoint and ordered
        for a, b in zip(levels, levels[1:]):
            assert a.hi < b.lo
        assert levels[0].lo == pytest.approx(0.205)
        assert levels[-1].hi == pytest.approx(0.595)

    def test_two_levels_zero_guard_halves_window(self):
        levels = quantize_levels(2, VoltageInterval(0.2, 0.6), guard=0.0)
        assert levels[0] == VoltageInterval(0.2, 0.4)
        assert levels[1] == VoltageInterval(0.4, 0.6)

    def test_twenty_levels_feasible_iff_guard_below_pitch(self):
        window = VoltageInterval(0.2, 0.6)  # pitch 20 mV at 20 levels
        levels = quantize_levels(20, window, guard=0.019)
        assert len(levels) == 20
        with pytest.raises(PackingError):
            quantize_levels(20, window, guard=0.021)

    def test_level_voltage_lies_in_its_level(self):
        window = VoltageInterval(0.2, 0.6)
        levels = quantize_levels(8, window, guard=0.010)
        voltages = LevelFamily(tuple(levels), window).voltages
        for i in range(8):
            assert levels[i].contains(voltages[i])

    def test_invalid_requests(self):
        with pytest.raises(DomainError):
            quantize_levels(1, VoltageInterval(0.2, 0.6), 0.0)
        with pytest.raises(DomainError):
            quantize_levels(4, VoltageInterval(0.2, 0.6), -0.01)


class TestCalibrate:
    def test_reference_anchors_fit_within_ten_millivolts(self):
        result = calibrate(REFERENCE_ANCHORS)
        assert result.max_residual <= 0.010
        p = result.params
        assert 0 < p.v_th_ml < p.v_slhi
        assert 0 < p.v_th_inv < p.v_slhi
        assert p.beta > 0

    def test_single_anchor_underdetermined(self):
        with pytest.raises(DomainError):
            calibrate([REFERENCE_ANCHORS[0]])

    def test_duplicate_conductances_underdetermined(self):
        a = (CellConfig(40e-6, 80e-6), VoltageInterval(0.37, 0.42))
        b = (CellConfig(40e-6, 80e-6), VoltageInterval(0.38, 0.43))
        with pytest.raises(DomainError):
            calibrate([a, b])

    def test_synthetic_affine_anchors_fit_exactly(self, params):
        k_lo, k_hi = affine_slopes(params)
        anchors = []
        for g1, g2 in [(30e-6, 70e-6), (50e-6, 90e-6), (80e-6, 120e-6)]:
            anchors.append((CellConfig(g1, g2),
                            VoltageInterval(params.v_th + k_lo * g1,
                                            params.v_th + k_hi * g2)))
        result = calibrate(anchors)
        assert result.max_residual < 1e-9

    def test_inconsistent_anchors_raise(self):
        anchors = [(CellConfig(40e-6, 80e-6), VoltageInterval(0.2, 0.6)),
                   (CellConfig(20e-6, 80e-6), VoltageInterval(0.5, 0.55))]
        with pytest.raises(CalibrationError):
            calibrate(anchors)

    def test_defaults_are_cached(self):
        assert calibrated_defaults() is calibrated_defaults()


def test_achievable_window_accepts_full_interval(params):
    w = achievable_window(params)
    c = CellConfig(*conductance_from_bounds(w.lo, w.hi, params))
    assert params.g_min <= c.g_m1 <= params.g_max
    assert params.g_min <= c.g_m2 <= params.g_max
