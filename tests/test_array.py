import tracemalloc

import numpy as np
import pytest

from acamsim.array import (ArraySpec, MAX_WORD_LENGTH_CAP, PRUNE_FACTOR,
                           Parasitics, _matched, _v_ml_at_sense,
                           analytic_range_shift, discharge_latency,
                           effective_bounds_in_array, make_array,
                           match_threshold_conductance, max_word_length,
                           row_conductances, search, search_many,
                           sweep_column)
from acamsim.cell import (CellConfig, VoltageInterval, achievable_window,
                          bounds_from_conductance, conductance_from_bounds)
from acamsim.errors import (DomainError, EmptyIntervalError, NoDischargeError)

REFERENCE_INTERVAL = VoltageInterval(0.33, 0.43)


def reference_cell(params, variant="mosfet", ts=None):
    return conductance_from_bounds(REFERENCE_INTERVAL, params, variant, ts)


class TestSearch:
    def test_single_cell_match_and_mismatch(self, params):
        a = make_array([[CellConfig(40e-6, 80e-6)]])
        assert search(a, [0.40], params).rows[0].matched
        assert not search(a, [0.30], params).rows[0].matched
        assert not search(a, [0.50], params).rows[0].matched

    def test_wildcard_row_matches_everything_in_window(self, params):
        w = achievable_window(params)
        a = make_array([[CellConfig(params.g_min, params.g_max)] * 6])
        for v in np.linspace(w.lo, w.hi, 25):
            assert search(a, [v] * 6, params).rows[0].matched

    def test_match_set_equals_containment_oracle(self, params):
        # one swept column in a wide array; all rows biased to match elsewhere
        rng = np.random.default_rng(11)
        rows = 86
        cols = 12
        swept_intervals = []
        cells = []
        w = achievable_window(params)
        for _ in range(rows):
            lo = rng.uniform(w.lo, w.hi - 0.08)
            hi = rng.uniform(lo + 0.07, min(lo + 0.2, w.hi))
            iv = VoltageInterval(lo, hi)
            swept_intervals.append(iv)
            row = [reference_cell(params)] * (cols - 1)
            row.insert(0, conductance_from_bounds(iv, params))
            cells.append(row)
        a = make_array(cells)
        for v in np.linspace(w.lo + 0.01, w.hi - 0.01, 40):
            stim = [v] + [REFERENCE_INTERVAL.mid] * (cols - 1)
            got = search(a, stim, params).matched
            for r in range(rows):
                iv = swept_intervals[r]
                if min(abs(v - iv.lo), abs(v - iv.hi)) < 0.03:
                    continue  # stay clear of boundaries, as the oracle requires
                assert got[r] == iv.contains(v)

    def test_rows_are_independent(self, params):
        cell = reference_cell(params)
        base = make_array([[cell] * 4])
        rng = np.random.default_rng(3)
        extra_rows = [[CellConfig(rng.uniform(2e-6, 60e-6),
                                  rng.uniform(70e-6, 140e-6))
                       for _ in range(4)] for _ in range(7)]
        grown = make_array([[cell] * 4] + extra_rows)
        for v in np.arange(0.0, 1.0001, 0.001):
            stim = [v, 0.38, 0.38, 0.38]
            assert (search(base, stim, params).rows[0]
                    == search(grown, stim, params).rows[0])

    def test_single_bit_mismatch_dominates_all_match(self, params):
        cell = reference_cell(params)
        a = make_array([[cell] * 16])
        all_match = np.full(16, REFERENCE_INTERVAL.mid)
        one_miss = all_match.copy()
        one_miss[7] = 0.6
        g_match = row_conductances(a, all_match[None, :], params)[0, 0]
        g_miss = row_conductances(a, one_miss[None, :], params)[0, 0]
        assert g_miss >= g_match
        assert g_miss > match_threshold_conductance(a) > g_match

    def test_more_mismatches_discharge_no_slower(self, params):
        cell = reference_cell(params)
        a = make_array([[cell] * 8])
        stim = np.full(8, REFERENCE_INTERVAL.mid)
        lat = []
        for n_miss in (1, 2, 4, 8):
            s = stim.copy()
            s[:n_miss] = 0.6
            lat.append(discharge_latency(a, s, 0, params))
        assert np.all(np.diff(lat) <= 0)

    def test_dimension_mismatch_rejected(self, params):
        a = make_array([[reference_cell(params)] * 3])
        with pytest.raises(DomainError):
            search(a, [0.4, 0.4], params)

    def test_boundary_tie_counts_as_match(self, params):
        # exactly at the sense level the row still reports a match
        a = make_array([[reference_cell(params)]])
        res = search(a, [REFERENCE_INTERVAL.mid], params)
        assert res.rows[0].matched
        assert res.rows[0].v_ml_at_sense >= a.sense_frac * a.v_precharge


class TestTsVariant:
    def test_ml_charges_on_mismatch(self, params, ts_params):
        cell = reference_cell(params, "ts", ts_params)
        a = make_array([[cell]], variant="ts", ts_params=ts_params)
        level = a.sense_frac * a.v_precharge
        hit = search(a, [0.38], params).rows[0]
        miss = search(a, [0.60], params).rows[0]
        assert hit.matched and hit.v_ml_at_sense < level
        assert not miss.matched and miss.v_ml_at_sense >= level

    def test_stored_range_round_trips(self, params, ts_params):
        cell = reference_cell(params, "ts", ts_params)
        iv = bounds_from_conductance(cell, params, "ts", ts_params)
        assert iv.lo == pytest.approx(REFERENCE_INTERVAL.lo, abs=1e-4)
        assert iv.hi == pytest.approx(REFERENCE_INTERVAL.hi, abs=1e-4)

    def test_smaller_shift_than_transistor_pulldown(self, params, ts_params):
        def shift_at_64(variant, ts):
            cell = reference_cell(params, variant, ts)
            out = {}
            for n in (2, 64):
                a = make_array([[cell] * n], variant=variant, ts_params=ts)
                out[n] = effective_bounds_in_array(a, 0, 0, params, step=0.002)
            return max(abs(out[64].lo - out[2].lo), abs(out[64].hi - out[2].hi))

        assert shift_at_64("ts", ts_params) < shift_at_64("mosfet", None)


class TestEffectiveBounds:
    def test_two_columns_match_isolated_cell(self, params):
        cell = reference_cell(params)
        iso = bounds_from_conductance(cell, params)
        a = make_array([[cell, cell]])
        iv = effective_bounds_in_array(a, 0, 0, params, step=0.002)
        assert iv.lo == pytest.approx(iso.lo, abs=0.002)
        assert iv.hi == pytest.approx(iso.hi, abs=0.002)

    def test_shift_at_64_columns_within_spec(self, params):
        cell = reference_cell(params)
        a2 = make_array([[cell] * 2])
        a64 = make_array([[cell] * 64])
        b2 = effective_bounds_in_array(a2, 0, 0, params, step=0.002)
        b64 = effective_bounds_in_array(a64, 0, 0, params, step=0.002)
        assert abs(b64.lo - b2.lo) <= 0.020
        assert abs(b64.hi - b2.hi) <= 0.020

    def test_ts_variant_shift_at_72_columns(self, params, ts_params):
        cell = reference_cell(params, "ts", ts_params)
        a2 = make_array([[cell] * 2], variant="ts", ts_params=ts_params)
        a72 = make_array([[cell] * 72], variant="ts", ts_params=ts_params)
        b2 = effective_bounds_in_array(a2, 0, 0, params, step=0.002)
        b72 = effective_bounds_in_array(a72, 0, 0, params, step=0.002)
        assert abs(b72.lo - b2.lo) <= 0.010
        assert abs(b72.hi - b2.hi) <= 0.010

    def test_empty_interval_reported(self, params):
        # a cell whose row bias mismatches elsewhere never matches anywhere
        cell = reference_cell(params)
        a = make_array([[cell, cell]])
        with pytest.raises(EmptyIntervalError):
            effective_bounds_in_array(a, 0, 0, params, step=0.002,
                                      bias=np.array([0.4, 0.9]))


class TestMaxWordLength:
    def test_published_ratio_example(self, params):
        p = params.with_(g_on=1e-3, g_off=1e-6)  # ON/OFF ratio 1000
        assert max_word_length(p, margin_ratio=2.0) == 998

    def test_margin_near_one_is_capped(self, params):
        assert max_word_length(params, margin_ratio=1.0 + 1e-15) == MAX_WORD_LENGTH_CAP

    def test_ratio_two_allows_nothing(self, params):
        p = params.with_(g_on=2e-6, g_off=1e-6)
        assert max_word_length(p, margin_ratio=2.0) == 0

    def test_margin_must_exceed_one(self, params):
        with pytest.raises(DomainError):
            max_word_length(params, margin_ratio=1.0)

    def test_exact_inequality_holds_at_returned_length(self, params):
        n = max_word_length(params, margin_ratio=2.0)
        assert params.g_on > ((2.0 - 1.0) * n + 1.0) * params.g_off
        assert not params.g_on > ((2.0 - 1.0) * (n + 1) + 1.0) * params.g_off


class TestAnalyticRangeShift:
    def test_single_column_is_zero(self, params):
        assert analytic_range_shift(1, params) == 0.0

    def test_default_sensitivity_is_decade_per_ten_millivolts(self, params):
        # alpha * swing: 0.1 * 100 mV/dec -> 10 mV of DL per decade
        assert params.alpha * params.swing * 1e-3 == pytest.approx(0.010)
        shift = analytic_range_shift(64, params)
        assert 0.0 < shift < 0.1

    def test_grows_linearly_with_columns(self, params):
        s8 = analytic_range_shift(8, params)
        s64 = analytic_range_shift(64, params)
        assert s64 / s8 == pytest.approx(63 / 7, rel=1e-9)

    def test_agrees_with_simulation_within_factor_two(self, params):
        cell = reference_cell(params)
        base = effective_bounds_in_array(make_array([[cell] * 2]), 0, 0,
                                         params, step=0.002)
        for n in (8, 16):
            b = effective_bounds_in_array(make_array([[cell] * n]), 0, 0,
                                          params, step=0.002)
            sim = max(abs(b.lo - base.lo), abs(b.hi - base.hi))
            ana = analytic_range_shift(n, params)
            assert 0.5 <= sim / ana <= 2.0


class TestLatency:
    def test_increases_with_columns_on_single_bit_mismatch(self, params):
        cell = reference_cell(params)
        lat = []
        for n in (2, 4, 8, 16, 32, 64):
            a = make_array([[cell] * n])
            stim = np.full(n, REFERENCE_INTERVAL.mid)
            stim[-1] = 0.6  # farthest column from the sense node
            lat.append(discharge_latency(a, stim, 0, params))
        assert np.all(np.diff(lat) > 0)

    def test_row_count_leaves_latency_unchanged(self, params):
        cell = reference_cell(params)
        lat = {}
        for rows in (2, 512):
            a = make_array([[cell] * 12] * rows)
            stim = np.full(12, REFERENCE_INTERVAL.mid)
            stim[0] = 0.6
            lat[rows] = discharge_latency(a, stim, 0, params)
        assert abs(lat[512] - lat[2]) / lat[2] <= 0.05

    def test_doubling_capacitance_doubles_latency(self, params):
        cell = reference_cell(params)
        par = Parasitics()
        stim = np.array([REFERENCE_INTERVAL.mid, 0.6])
        a1 = make_array([[cell] * 2], parasitics=par, c_sense=1e-15)
        par2 = Parasitics(c_ml=2 * par.c_ml)
        a2 = make_array([[cell] * 2], parasitics=par2, c_sense=2e-15)
        t1 = discharge_latency(a1, stim, 0, params)
        t2 = discharge_latency(a2, stim, 0, params)
        assert t2 == pytest.approx(2 * t1, rel=1e-9)

    def test_matching_row_has_no_crossing(self, params):
        a = make_array([[reference_cell(params)] * 2])
        with pytest.raises(NoDischargeError):
            discharge_latency(a, [0.38, 0.38], 0, params)


class TestArraySpec:
    def test_stores_read_only_copies(self, params):
        cells = [[reference_cell(params), CellConfig(10e-6, 90e-6)]]
        a = make_array(cells)
        assert (a.rows, a.cols) == (1, 2)
        assert a.g2[0, 1] == 90e-6
        g1, g2 = a.conductance_matrices()
        assert g1 is a.g1 and g2 is a.g2
        with pytest.raises(ValueError):
            a.g1[0, 0] = 0.0
        g1 = np.full((1, 2), 20e-6)
        b = ArraySpec(g1=g1, g2=a.g2)
        g1[0, 0] = 30e-6
        assert b.g1[0, 0] == 20e-6

    def test_ragged_or_empty_cells_rejected(self, params):
        cell = reference_cell(params)
        for cells in ([[cell, cell], [cell]], [], [[]]):
            with pytest.raises(DomainError):
                make_array(cells)

    def test_invalid_specs_rejected(self, params):
        cell = reference_cell(params)
        with pytest.raises(DomainError):
            ArraySpec(g1=[[cell.g_m1], [cell.g_m1]], g2=[[cell.g_m2]])
        with pytest.raises(DomainError):
            make_array([[cell]], sense_frac=1.5)
        with pytest.raises(DomainError):
            make_array([[cell]], variant="ts")  # needs ts_params via ArraySpec
            ArraySpec(g1=[[cell.g_m1]], g2=[[cell.g_m2]], variant="ts")


def test_search_many_agrees_with_scalar_search(params):
    rng = np.random.default_rng(17)
    w = achievable_window(params)
    cells = [[conductance_from_bounds(
        VoltageInterval(lo := rng.uniform(w.lo, w.hi - 0.08),
                        rng.uniform(lo + 0.07, w.hi)), params)
        for _ in range(5)] for _ in range(4)]
    a = make_array(cells)
    stims = rng.uniform(0.0, 1.0, size=(30, 5))
    batched = search_many(a, stims, params)
    for i in range(30):
        assert tuple(batched[i]) == search(a, stims[i], params).matched


def test_sweep_column_emits_band(params):
    a = make_array([[CellConfig(40e-6, 80e-6)]])
    samples = sweep_column(a, 0, params, step=0.001)
    matched_vs = [v for v, row, _, m in samples if m]
    assert min(matched_vs) == pytest.approx(0.37, abs=0.01)
    assert max(matched_vs) == pytest.approx(0.42, abs=0.01)
    # v_ml is monotone non-increasing in v_dl crossing the band edges
    assert all(r == 0 for _, r, _, _ in samples)


def test_non_finite_stimulus_rejected(params):
    a = make_array([[reference_cell(params)] * 2])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError):
            search_many(a, [[0.4, bad]], params)
        with pytest.raises(DomainError):
            search(a, [bad, 0.4], params)
        with pytest.raises(DomainError):
            row_conductances(a, [[0.4, bad]], params)


# ---------------------------------------------------------------------------
# search_many prunes rows without the full kernel: it must agree with it
# ---------------------------------------------------------------------------

def _full_kernel(a, stims, p):
    return _matched(a, _v_ml_at_sense(a, row_conductances(a, stims, p)))


def _random_cells(rng, p, variant, ts, rows, cols):
    """Random stored intervals across the window, wildcards and points included."""
    w = achievable_window(p, variant, ts)
    cells = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            kind = rng.integers(4)
            if kind == 0:
                iv = w
            elif kind == 1:
                v = rng.uniform(w.lo, w.hi)
                iv = VoltageInterval(v, v)
            else:
                lo, hi = np.sort(rng.uniform(w.lo, w.hi, size=2))
                iv = VoltageInterval(lo, hi)
            row.append(conductance_from_bounds(iv, p, variant, ts))
        cells.append(row)
    return cells


def _differential_stimuli(rng, a, p):
    """Dense uniform words, in-row words, and every stored edge +-20 mV at 1 mV.

    Edge sweeps move one column of a row's midpoint word; they include the
    exact edge, 0 V and 1 V.
    """
    bounds = [[bounds_from_conductance(CellConfig(g1, g2), p, a.variant,
                                       a.ts_params)
               for g1, g2 in zip(r1, r2)]
              for r1, r2 in zip(a.g1.tolist(), a.g2.tolist())]
    lo = np.array([[iv.lo for iv in row] for row in bounds])
    hi = np.array([[iv.hi for iv in row] for row in bounds])
    parts = [rng.uniform(0.0, 1.0, size=(500, a.cols))]
    pick = rng.integers(a.rows, size=500)
    parts.append(lo[pick] + rng.uniform(size=(500, a.cols)) * (hi - lo)[pick])
    offsets = np.arange(-20, 21) * 1e-3
    for r in range(a.rows):
        mid = 0.5 * (lo[r] + hi[r])
        for c in range(a.cols):
            vals = np.concatenate([lo[r, c] + offsets, hi[r, c] + offsets,
                                   [0.0, 1.0]])
            block = np.tile(mid, (len(vals), 1))
            block[:, c] = np.clip(vals, 0.0, 1.0)
            parts.append(block)
    return np.vstack(parts)


def _assert_same_decisions(a, p, rng):
    stims = _differential_stimuli(rng, a, p)
    got = search_many(a, stims, p)
    want = _full_kernel(a, stims, p)
    assert got.shape == want.shape
    assert np.array_equal(got, want), f"{int((got != want).sum())} decisions differ"
    return want


class TestPrunedSearch:
    @pytest.mark.parametrize("variant", ["mosfet", "ts"])
    def test_equals_full_kernel_up_to_max_word_length(self, params, ts_params,
                                                      variant):
        ts = ts_params if variant == "ts" else None
        # a margin ratio of 1e4 caps the calibrated device at 166 columns
        n_max = max_word_length(params, margin_ratio=1e4)
        assert 64 < n_max < 1000
        rng = np.random.default_rng(23)
        matched = 0
        for cols in (1, 2, 3, 4, 8, 16, 64, n_max):
            rows = 6 if cols <= 16 else 2
            cells = _random_cells(rng, params, variant, ts, rows, cols)
            a = make_array(cells, variant=variant, ts_params=ts)
            matched += int(_assert_same_decisions(a, params, rng).sum())
        assert matched > 0

    @pytest.mark.parametrize("variant", ["mosfet", "ts"])
    def test_no_pruning_when_threshold_exceeds_leg_maximum(self, params,
                                                           ts_params, variant):
        ts = ts_params if variant == "ts" else None
        rng = np.random.default_rng(29)
        cells = _random_cells(rng, params, variant, ts, 4, 8)
        # a short sense time raises G_th past what one fully-on leg conducts
        a = make_array(cells, variant=variant, ts_params=ts, t_sense=2e-12)
        leg_max = params.g_on if variant == "mosfet" else ts_params.g_ts_on
        assert PRUNE_FACTOR * match_threshold_conductance(a) > leg_max
        _assert_same_decisions(a, params, rng)

    def test_zero_leakage_device(self, params):
        p = params.with_(g_off=0.0)
        rng = np.random.default_rng(31)
        for cols in (1, 4, 32):
            a = make_array(_random_cells(rng, p, "mosfet", None, 5, cols))
            _assert_same_decisions(a, p, rng)

    def test_memory_is_bounded_when_no_row_is_pruned(self, params):
        # wildcard rows match every word in the window, so every row goes
        # through the kernel; the full-kernel peak here is about 190 MiB
        rows, cols, n = 16, 16, 8192
        a = make_array([[CellConfig(params.g_min, params.g_max)] * cols] * rows)
        w = achievable_window(params)
        stims = np.random.default_rng(37).uniform(w.lo, w.hi, size=(n, cols))
        tracemalloc.start()
        try:
            matched = search_many(a, stims, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert matched.all()
        assert peak < 48 * 2 ** 20
