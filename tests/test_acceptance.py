"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line with its runtime (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import json
import random
import time

import numpy as np
import pytest

from acamsim.array import (analytic_range_shift, discharge_latency,
                           effective_bounds_in_array, make_array,
                           max_word_length, search_many)
from acamsim.cell import (CellConfig, VoltageInterval, achievable_window,
                          bounds_from_conductance, calibrated_defaults,
                          conductance_from_bounds, lower_bound_voltage,
                          upper_bound_voltage)
from acamsim.cli import main
from acamsim.cost import (AreaParams, EnergyParams, REFERENCE_TCAM_CELLS,
                          REFERENCE_TCAM_ROWS, compare_range_implementations,
                          energy_per_search)
from acamsim.devices import DeviceParams, TsDeviceParams
from acamsim.tables import RangeRule, compile_rules, range_to_digits
from acamsim.trees import classify_many, tree_to_cam

from test_cli import TREE_DOC
from test_tables import greedy_prefix_count
from test_trees import make_random_tree

REFERENCE_RULE = RangeRule(385, 58630, 16, "accept")
REFERENCE_INTERVAL = VoltageInterval(0.33, 0.43)

ANCHORS_JSON = [
    {"g_m1_uS": 40, "g_m2_uS": 80, "lo_V": 0.37, "hi_V": 0.42},
    {"g_m1_uS": 20, "g_m2_uS": 80, "lo_V": 0.33, "hi_V": 0.43},
]


class Criterion:
    """Times a criterion body and prints one PASS/FAIL line."""

    def __init__(self, number, name, limit_s):
        self.number = number
        self.name = name
        self.limit_s = limit_s

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} criterion {self.number} ({self.name}): "
              f"{elapsed:.2f}s (limit {self.limit_s}s)")
        if exc_type is None:
            assert elapsed < self.limit_s, (
                f"criterion {self.number} exceeded its {self.limit_s}s budget")
        return False


def in_array_bounds(cell, n_cols, params, variant="mosfet", ts=None):
    a = make_array([[cell] * n_cols], variant=variant, ts_params=ts)
    return effective_bounds_in_array(a, 0, 0, params, step=0.002)


def test_criterion_1_calibration_fidelity(tmp_path):
    with Criterion(1, "calibration fidelity", 1.0):
        anchors = tmp_path / "anchors.json"
        anchors.write_text(json.dumps(ANCHORS_JSON))
        assert main(["--out", str(tmp_path), "calibrate", str(anchors)]) == 0
        doc = json.loads((tmp_path / "device_params.json").read_text())
        p = DeviceParams.from_json_dict(doc)
        iv = VoltageInterval(*bounds_from_conductance(40e-6, 80e-6, p))
        assert abs(iv.lo - 0.37) <= 0.010
        assert abs(iv.hi - 0.42) <= 0.010
        iv = VoltageInterval(*bounds_from_conductance(20e-6, 80e-6, p))
        assert abs(iv.lo - 0.33) <= 0.010
        assert abs(iv.hi - 0.43) <= 0.010


def test_criterion_2_ternary_compilation():
    with Criterion(2, "ternary compilation", 1.0):
        # a ternary table is the 1-bit digit table
        words = range_to_digits(REFERENCE_RULE, 1)
        vals = np.arange(1 << 16)
        hits = np.zeros(1 << 16, dtype=int)
        for w in words:
            mask = np.ones(1 << 16, dtype=bool)
            for i, d in enumerate(w.digits):
                if not d.is_wildcard:
                    mask &= ((vals >> (15 - i)) & 1) == d.lo
            hits += mask
        expect = (vals >= 385) & (vals <= 58630)
        assert np.array_equal(hits > 0, expect), "membership mismatch"
        assert hits.max() <= 1, "rows overlap"
        for w in words:
            symbols = "".join(d.symbol() for d in w.digits)
            assert "X" not in symbols.rstrip("X"), f"{symbols} is not a prefix"
        # the 1-bit compilation is the minimal cover, checked against the
        # independent largest-aligned-block oracle. The published table has
        # one non-minimal split more (README "Published TCAM baseline"); it
        # stays the cost baseline of criterion 4.
        assert len(words) == greedy_prefix_count(
            REFERENCE_RULE.lo, REFERENCE_RULE.hi, REFERENCE_RULE.width_bits), (
            f"expansion yields {len(words)} rows, not the minimal cover")
        assert len(words) <= REFERENCE_TCAM_ROWS, (
            f"minimal cover of {len(words)} rows exceeds the published "
            f"{REFERENCE_TCAM_ROWS}-row table")
        assert REFERENCE_TCAM_CELLS == REFERENCE_TCAM_ROWS * 16


def test_criterion_3_digit_compilation():
    with Criterion(3, "digit compilation", 5.0):
        expected_cells = {4: 24, 8: 6, 3: 54}
        vals = np.arange(1 << 16)
        expect = (vals >= 385) & (vals <= 58630)
        for bits, cells in expected_cells.items():
            t = compile_rules([REFERENCE_RULE], bits)
            assert t.n_cells == cells, (bits, t.n_cells)
            base = 1 << bits
            digs = np.stack([(vals >> (bits * (t.n_cols - 1 - i))) & (base - 1)
                             for i in range(t.n_cols)], axis=1)
            hits = np.zeros(len(vals), dtype=int)
            for word, _ in t.rows:
                ok = np.ones(len(vals), dtype=bool)
                for i, spec in enumerate(word.digits):
                    ok &= (digs[:, i] >= spec.lo) & (digs[:, i] <= spec.hi)
                hits += ok
            assert np.array_equal(hits > 0, expect), f"{bits}-bit coverage"
            assert hits.max() <= 1, f"{bits}-bit overlap"


def test_criterion_4_cost_report():
    with Criterion(4, "cost report", 1.0):
        r = energy_per_search(86, 12, EnergyParams())
        assert abs(r.total - 539.9) <= 0.1
        assert abs(r.per_cell - 0.523) <= 0.01
        rep = compare_range_implementations(
            REFERENCE_RULE, [3, 4, 8], AreaParams(), EnergyParams(),
            tcam_cells=REFERENCE_TCAM_CELLS)
        o4 = rep.option(4)
        assert o4.cell_reduction == pytest.approx(14.0, abs=0.01)
        assert o4.transistor_reduction >= 37.0
        assert abs(o4.area_reduction - 18.8) <= 0.1
        assert abs(o4.per_tcam_bit_fj - 0.037) <= 0.001


def test_criterion_5_array_leakage_shift():
    with Criterion(5, "array leakage shift", 30.0):
        p = calibrated_defaults()
        cell = CellConfig(*conductance_from_bounds(
            REFERENCE_INTERVAL.lo, REFERENCE_INTERVAL.hi, p))
        bounds = {n: in_array_bounds(cell, n, p) for n in (2, 8, 16, 32, 64)}
        base = bounds[2]
        shifts = {n: max(abs(bounds[n].lo - base.lo),
                         abs(bounds[n].hi - base.hi))
                  for n in (2, 8, 16, 32, 64)}
        assert shifts[64] <= 0.020
        ordered = [shifts[n] for n in (2, 8, 16, 32, 64)]
        assert all(a <= b + 1e-9 for a, b in zip(ordered, ordered[1:])), ordered
        for n in (8, 16, 32, 64):
            ana = analytic_range_shift(n, p)
            assert 0.5 <= shifts[n] / ana <= 2.0, (n, shifts[n], ana)
        # sensitivity of the shift to the sense threshold: reported, not asserted
        for frac in (0.4, 0.5, 0.6):
            a2 = make_array([[cell] * 2], sense_frac=frac)
            a64 = make_array([[cell] * 64], sense_frac=frac)
            b2 = effective_bounds_in_array(a2, 0, 0, p, step=0.002)
            b64 = effective_bounds_in_array(a64, 0, 0, p, step=0.002)
            s = max(abs(b64.lo - b2.lo), abs(b64.hi - b2.hi))
            print(f"  sense_frac={frac}: shift@64 = {s * 1e3:.3f} mV")


def test_criterion_6_row_scaling():
    with Criterion(6, "row scaling", 30.0):
        p = calibrated_defaults()
        cell = CellConfig(*conductance_from_bounds(
            REFERENCE_INTERVAL.lo, REFERENCE_INTERVAL.hi, p))
        lat = {}
        for rows in (2, 512):
            a = make_array([[cell] * 12] * rows)
            stim = np.full(12, REFERENCE_INTERVAL.mid)
            stim[0] = 0.6
            lat[rows] = discharge_latency(a, stim, 0, p)
        assert abs(lat[512] - lat[2]) / lat[2] <= 0.05


def _affine_slope_check(p):
    k_lo = (p.v_slhi / p.v_th_ml - 1.0) / p.beta
    k_hi = (p.v_slhi / p.v_th_inv - 1.0) / p.beta
    for g in np.linspace(p.g_min, p.g_max, 120):
        lo = lower_bound_voltage(g, p)
        if lo - p.v_th > 0.05:
            assert abs(lo - (p.v_th + k_lo * g)) <= 0.005
        hi = upper_bound_voltage(g, p)
        if hi - p.v_th > 0.05:
            assert abs(hi - (p.v_th + k_hi * g)) <= 0.005


def _independence_check(p):
    # perturbing one memristor leaves the other bound unmoved (< 0.1 mV)
    rng = np.random.default_rng(0)
    for _ in range(50):
        g1 = rng.uniform(p.g_min, 70e-6)
        g2a, g2b = rng.uniform(80e-6, p.g_max, 2)
        lo_a = bounds_from_conductance(g1, g2a, p)[0]
        lo_b = bounds_from_conductance(g1, g2b, p)[0]
        assert abs(lo_a - lo_b) < 1e-4
        hi_a = bounds_from_conductance(g1, g2a, p)[1]
        hi_b = bounds_from_conductance(p.g_min, g2a, p)[1]
        assert abs(hi_a - hi_b) < 1e-4


def _round_trip_check(p):
    rng = np.random.default_rng(1)
    w = achievable_window(p)
    for _ in range(300):
        lo = rng.uniform(w.lo, w.hi - 1e-3)
        hi = rng.uniform(lo, w.hi)
        iv = VoltageInterval(lo, hi)
        back = VoltageInterval(*bounds_from_conductance(
            *conductance_from_bounds(iv.lo, iv.hi, p), p))
        assert abs(back.lo - iv.lo) <= 1e-3
        assert abs(back.hi - iv.hi) <= 1e-3


def _search_oracle_check(p, cases=10000, margin=0.030):
    rng = np.random.default_rng(2)
    w = achievable_window(p)
    cols_cap = min(48, max_word_length(p, 2.0) // 4)
    checked = 0
    while checked < cases:
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, cols_cap + 1))
        intervals = []
        cells = []
        for _ in range(rows):
            row_iv = []
            row_cells = []
            for _ in range(cols):
                lo = rng.uniform(w.lo, w.hi - 2.5 * margin)
                hi = rng.uniform(lo + 2.4 * margin, w.hi)
                iv = VoltageInterval(lo, hi)
                row_iv.append(iv)
                row_cells.append(CellConfig(*conductance_from_bounds(
                    iv.lo, iv.hi, p)))
            intervals.append(row_iv)
            cells.append(row_cells)
        a = make_array(cells)
        n_stim = min(50, cases - checked)
        stims = np.empty((n_stim, cols))
        for s in range(n_stim):
            for c in range(cols):
                iv = intervals[0][c]
                if rng.random() < 0.8:
                    stims[s, c] = rng.uniform(iv.lo + margin, iv.hi - margin)
                elif iv.lo - margin > w.lo and (rng.random() < 0.5
                                                or iv.hi + margin >= w.hi):
                    stims[s, c] = rng.uniform(w.lo, iv.lo - margin)
                else:
                    stims[s, c] = rng.uniform(min(iv.hi + margin, w.hi), w.hi)
        got = search_many(a, stims, p)
        # binding only where the stimulus clears every boundary by the margin
        for s in range(n_stim):
            for r in range(rows):
                dist = min(min(abs(stims[s, c] - intervals[r][c].lo),
                               abs(stims[s, c] - intervals[r][c].hi))
                           for c in range(cols))
                if dist >= margin:
                    contained = all(intervals[r][c].contains(stims[s, c])
                                    for c in range(cols))
                    assert got[s, r] == contained, (s, r)
        checked += n_stim
    return checked


def _lattice_digits(rng: random.Random, n: int) -> list[int]:
    """``[rng.randrange(16) for _ in range(n)]``, drawing the same stream.

    ``randrange(16)`` keeps the top 5 bits of one 32-bit output and redraws
    values of 16 or more. Each value costs at least one output, so one
    ``getrandbits(32 * k)`` for the k values still missing never draws past
    the last one; its outputs come least-significant word first.
    """
    out = []
    while len(out) < n:
        k = n - len(out)
        words = np.frombuffer(rng.getrandbits(32 * k).to_bytes(4 * k, "little"),
                              dtype="<u4")
        top = words >> 27
        out += top[top < 16].tolist()
    return out


def test_lattice_digits_replay_randrange():
    for seed in (0, 10):
        fast, slow = random.Random(seed), random.Random(seed)
        for n in (1, 7, 2000):
            assert _lattice_digits(fast, n) == [slow.randrange(16)
                                                for _ in range(n)]
            assert fast.getstate() == slow.getstate()


def _tree_oracle_check(p, n_trees=1000, n_inputs=10000):
    rng = random.Random(10)
    for k in range(n_trees):
        n_feat = rng.randint(1, 4)
        tree = make_random_tree(rng, n_feat, max_depth=6)
        tt = tree_to_cam(tree, p)
        digits = np.array(_lattice_digits(rng, n_inputs * n_feat))
        xs = ((digits + 0.5) / 16).reshape(n_inputs, n_feat)
        got = classify_many(tt, xs, p)
        want = [tree.classify(x) for x in xs]
        assert got == want, f"tree {k} disagreed with traversal"


def _ts_shift_check(p):
    ts = TsDeviceParams()
    mos_cell = CellConfig(*conductance_from_bounds(
        REFERENCE_INTERVAL.lo, REFERENCE_INTERVAL.hi, p))
    ts_cell = CellConfig(*conductance_from_bounds(
        REFERENCE_INTERVAL.lo, REFERENCE_INTERVAL.hi, p, "ts", ts))

    def shift(variant, cell, n, tsp):
        b2 = in_array_bounds(cell, 2, p, variant, tsp)
        bn = in_array_bounds(cell, n, p, variant, tsp)
        return max(abs(bn.lo - b2.lo), abs(bn.hi - b2.hi))

    mos64 = shift("mosfet", mos_cell, 64, None)
    ts64 = shift("ts", ts_cell, 64, ts)
    ts72 = shift("ts", ts_cell, 72, ts)
    assert ts64 < mos64, (ts64, mos64)
    assert ts72 <= 0.010


def test_criterion_7_property_suites():
    with Criterion(7, "property suites", 300.0):
        p = calibrated_defaults()
        _affine_slope_check(p)
        _independence_check(p)
        _round_trip_check(p)
        n = _search_oracle_check(p)
        assert n >= 10000
        _ts_shift_check(p)
        _tree_oracle_check(p)


def test_criterion_8_cli_determinism(tmp_path):
    with Criterion(8, "CLI determinism", 60.0):
        rules = tmp_path / "rules.jsonl"
        rules.write_text(json.dumps({"lo": 385, "hi": 58630,
                                     "width_bits": 16, "label": "a"}) + "\n")
        anchors = tmp_path / "anchors.json"
        anchors.write_text(json.dumps(ANCHORS_JSON))
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps(TREE_DOC))
        rows = tmp_path / "rows.csv"
        rows.write_text("".join(f"{(k % 16 + 0.5) / 16},{(k // 16 + 0.5) / 16}\n"
                                for k in range(256)) + "0.48,0.9\n2.0,0.5\n")
        blobs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["--seed", "3", "--out", str(out), "calibrate",
                         str(anchors)]) == 0
            assert main(["--seed", "3", "--out", str(out), "compile",
                         str(rules), "--bits", "4"]) == 0
            assert main(["--seed", "3", "--out", str(out), "sweep",
                         str(out / "table.json"), "--column", "0",
                         "--step", "2", "--program-noise"]) == 0
            assert main(["--seed", "3", "--out", str(out), "cost", "--rule",
                         "385,58630,16", "--tcam-baseline-cells", "336"]) == 0
            assert main(["--seed", "3", "--out", str(out / "tree"), "compile",
                         str(tree)]) == 0
            for sub, noise in (("tree", []), ("noisy", ["--program-noise"])):
                assert main(["--seed", "3", "--out", str(out / sub),
                             "classify", str(out / "tree" / "table.json"),
                             str(rows), *noise]) == 0
            blob = b""
            for name in ("device_params.json", "table.json", "table.txt",
                         "sweep.csv", "cost.json", "cost.txt",
                         "tree/table.json", "tree/labels.csv",
                         "noisy/labels.csv"):
                blob += (out / name).read_bytes()
            blobs.append(blob)
        assert blobs[0] == blobs[1]
