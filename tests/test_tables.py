import json
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from acamsim.array import make_array, search_many
from acamsim.cell import (CellConfig, VoltageInterval,
                          bounds_from_conductance, conductance_from_bounds)
from acamsim.errors import DomainError, OutOfWindowError
from acamsim.tables import (CamTable, DigitSpec, DigitWord, IntervalWord,
                            LevelFamily, RangeRule, compile_rules,
                            default_level_family, encode_integer,
                            encode_integers, format_grid,
                            lower_to_conductances, parse_rules_jsonl,
                            range_to_digits, table_from_json_dict,
                            table_to_json_dict)
from acamsim.trees import tree_to_cam

from test_trees import make_random_tree

REFERENCE_RULE = RangeRule(385, 58630, 16, "accept")


def greedy_prefix_count(lo: int, hi: int, width: int) -> int:
    """Independent minimal-cover oracle: largest aligned block walk."""
    count = 0
    x = lo
    while x <= hi:
        size = 1 << width
        while x % size or x + size - 1 > hi:
            size //= 2
        count += 1
        x += size
    return count


def symbols(word: DigitWord) -> str:
    """A 1-bit (ternary) word as its {0, 1, X} string."""
    return "".join(d.symbol() for d in word.digits)


@st.composite
def small_rules(draw, max_width=10):
    width = draw(st.integers(2, max_width))
    lo = draw(st.integers(0, (1 << width) - 1))
    hi = draw(st.integers(lo, (1 << width) - 1))
    return RangeRule(lo, hi, width)


class TestRangeToTernary:
    """A ternary table is the 1-bit digit table: a minimal prefix cover."""

    def test_aligned_block_is_one_word(self):
        words = range_to_digits(RangeRule(4, 7, 4), 1)
        assert [symbols(w) for w in words] == ["01XX"]

    def test_full_range_is_all_wildcards(self):
        words = range_to_digits(RangeRule(0, 255, 8), 1)
        assert [symbols(w) for w in words] == ["X" * 8]

    def test_reference_rule_against_exhaustive_oracle(self):
        words = range_to_digits(REFERENCE_RULE, 1)
        hits = np.zeros(1 << 16, dtype=int)
        for w in words:
            fixed = [(15 - i, int(c)) for i, c in enumerate(symbols(w))
                     if c != "X"]
            mask = np.ones(1 << 16, dtype=bool)
            vals = np.arange(1 << 16)
            for bit, want in fixed:
                mask &= ((vals >> bit) & 1) == want
            hits += mask
        expect = ((np.arange(1 << 16) >= 385) & (np.arange(1 << 16) <= 58630))
        assert np.array_equal(hits > 0, expect)
        assert hits.max() == 1  # disjoint
        # minimal cover: matches the independent greedy oracle
        assert len(words) == greedy_prefix_count(385, 58630, 16)

    @settings(max_examples=80, deadline=None)
    @given(small_rules())
    def test_exact_disjoint_minimal_cover(self, rule):
        words = range_to_digits(rule, 1)
        seen = set()
        for w in words:
            block = {v for v in range(1 << rule.width_bits) if w.matches(v, 1)}
            assert not (block & seen)
            seen |= block
        assert seen == set(range(rule.lo, rule.hi + 1))
        assert len(words) == greedy_prefix_count(rule.lo, rule.hi,
                                                 rule.width_bits)

    def test_ascending_order(self):
        words = range_to_digits(REFERENCE_RULE, 1)
        starts = [int(symbols(w).replace("X", "0"), 2) for w in words]
        assert starts == sorted(starts)


class TestRangeToDigits:
    @pytest.mark.parametrize("bits,rows,digits", [(3, 9, 6), (4, 6, 4), (8, 3, 2)])
    def test_reference_rule_cell_counts(self, bits, rows, digits):
        words = range_to_digits(REFERENCE_RULE, bits)
        assert len(words) == rows
        assert all(len(w) == digits for w in words)
        assert len(words) * digits == {3: 54, 4: 24, 8: 6}[bits]

    @pytest.mark.parametrize("bits", [1, 2, 3, 4, 8])
    def test_reference_rule_exhaustive_coverage(self, bits):
        t = compile_rules([REFERENCE_RULE], bits)
        vals = np.arange(1 << 16)
        hits = np.zeros(1 << 16, dtype=int)
        base = 1 << bits
        n = t.n_cols
        digs = np.stack([(vals >> (bits * (n - 1 - i))) & (base - 1)
                         for i in range(n)], axis=1)
        for word, _ in t.rows:
            ok = np.ones(len(vals), dtype=bool)
            for i, spec in enumerate(word.digits):
                ok &= (digs[:, i] >= spec.lo) & (digs[:, i] <= spec.hi)
            hits += ok
        expect = (vals >= 385) & (vals <= 58630)
        assert np.array_equal(hits > 0, expect)
        assert hits.max() <= 1

    @settings(max_examples=60, deadline=None)
    @given(small_rules(), st.integers(1, 6))
    def test_random_rules_exact_disjoint(self, rule, bits):
        bits = min(bits, rule.width_bits)
        words = range_to_digits(rule, bits)
        n_digits = -(-rule.width_bits // bits)
        assert all(len(w) == n_digits for w in words)
        base = 1 << bits
        count = np.zeros(1 << rule.width_bits, dtype=int)
        for v in range(1 << rule.width_bits):
            count[v] = sum(w.matches(v, bits) for w in words)
        assert np.array_equal(count > 0,
                              (np.arange(1 << rule.width_bits) >= rule.lo)
                              & (np.arange(1 << rule.width_bits) <= rule.hi))
        assert count.max() <= 1

    @settings(max_examples=60, deadline=None)
    @given(small_rules(max_width=12))
    def test_doubling_cell_width_never_costs_cells(self, rule):
        # base-nesting guarantees k -> 2k compression; k -> k+1 does not hold
        # in general (digit boundaries move off power-of-two alignments)
        cells = {}
        for bits in (1, 2, 4, 8):
            if bits <= rule.width_bits:
                words = range_to_digits(rule, bits)
                cells[bits] = len(words) * len(words[0])
        for k in (1, 2, 4):
            if k in cells and 2 * k in cells:
                assert cells[2 * k] <= cells[k]

    def test_reference_compression_chain(self):
        sizes = {}
        for bits in (1, 3, 4, 8):
            words = range_to_digits(REFERENCE_RULE, bits)
            sizes[bits] = len(words) * len(words[0])
        assert sizes[1] >= sizes[3] >= sizes[4] >= sizes[8]

    def test_invalid_bits_rejected(self):
        with pytest.raises(DomainError):
            range_to_digits(REFERENCE_RULE, 0)
        with pytest.raises(DomainError):
            range_to_digits(REFERENCE_RULE, 17)


class TestLowering:
    def test_wildcard_digit_stores_full_window(self, params):
        fam = default_level_family(16, params)
        word = DigitWord((DigitSpec.wildcard(16),))
        t = CamTable(rows=((word, "w"),), width_bits=4, bits_per_cell=4)
        cell = lower_to_conductances(t, params, fam)[0][0]
        iv = VoltageInterval(*bounds_from_conductance(cell.g_m1, cell.g_m2,
                                                      params))
        assert iv.lo == pytest.approx(fam.window.lo, abs=1e-3)
        assert iv.hi == pytest.approx(fam.window.hi, abs=1e-3)

    def test_exact_digit_maps_to_its_level(self, params):
        fam = default_level_family(8, params)
        word = DigitWord((DigitSpec.exact(3, 8),))
        t = CamTable(rows=((word, "e"),), width_bits=3, bits_per_cell=3)
        cell = lower_to_conductances(t, params, fam)[0][0]
        iv = VoltageInterval(*bounds_from_conductance(cell.g_m1, cell.g_m2,
                                                      params))
        assert iv.lo == pytest.approx(fam.levels[3].lo, abs=1e-3)
        assert iv.hi == pytest.approx(fam.levels[3].hi, abs=1e-3)

    def test_subrange_digit_stores_union_as_one_interval(self, params):
        fam = default_level_family(8, params)
        word = DigitWord((DigitSpec(2, 5, 8),))
        t = CamTable(rows=((word, "s"),), width_bits=3, bits_per_cell=3)
        cell = lower_to_conductances(t, params, fam)[0][0]
        iv = VoltageInterval(*bounds_from_conductance(cell.g_m1, cell.g_m2,
                                                      params))
        assert iv.lo == pytest.approx(fam.levels[2].lo, abs=1e-3)
        assert iv.hi == pytest.approx(fam.levels[5].hi, abs=1e-3)

    def test_window_overflow_names_digit(self, params):
        from acamsim.cell import quantize_levels
        wide = VoltageInterval(0.1, 0.9)
        fam = LevelFamily(levels=tuple(quantize_levels(8, wide, 0.01)),
                          window=wide)
        word = DigitWord((DigitSpec.exact(0, 8), DigitSpec.exact(7, 8)))
        t = CamTable(rows=((word, "x"),), width_bits=6, bits_per_cell=3)
        with pytest.raises(OutOfWindowError) as exc:
            lower_to_conductances(t, params, fam)
        assert "digit" in str(exc.value)

    def test_reference_endpoints_searchable(self, params):
        t = compile_rules([REFERENCE_RULE], 4)
        fam = default_level_family(16, params)
        cells = lower_to_conductances(t, params, fam)
        a = make_array(cells)
        hit, miss = search_many(a, [encode_integer(385, t, fam),
                                    encode_integer(384, t, fam)], params)
        assert hit.sum() == 1 and miss.sum() == 0

    def test_lowered_table_classifies_all_inputs(self, params):
        # idealized zero-leakage device isolates the interval semantics
        p = replace(params, g_off=0.0)
        t = compile_rules([REFERENCE_RULE], 4)
        fam = default_level_family(16, p)
        a = make_array(lower_to_conductances(t, p, fam))
        vals = np.arange(1 << 16)
        digs = np.stack([(vals >> (4 * (3 - i))) & 15 for i in range(4)], axis=1)
        volts = np.array(fam.voltages)
        matched = search_many(a, volts[digs], p)
        got = matched.any(axis=1)
        expect = (vals >= 385) & (vals <= 58630)
        assert np.array_equal(got, expect)
        assert matched.sum(axis=1).max() <= 1


def per_cell_lowering(t, p, family, variant="mosfet", ts=None):
    """Reference lowering: one ``conductance_from_bounds`` call per cell."""
    if family is None and t.bits_per_cell is not None:
        family = default_level_family(1 << t.bits_per_cell, p, variant, ts)
    matrix = []
    for ri, (word, _) in enumerate(t.rows):
        if isinstance(word, IntervalWord):
            specs = word.intervals
        else:
            specs = [family.digit_interval(d) for d in word.digits]
        row = []
        for ci, iv in enumerate(specs):
            try:
                row.append(CellConfig(*conductance_from_bounds(
                    iv.lo, iv.hi, p, variant, ts)))
            except OutOfWindowError as e:
                raise OutOfWindowError(f"row {ri} digit {ci}: {e}",
                                       bound=e.bound) from e
        matrix.append(row)
    return matrix


def raised(fn, *args, **kwargs):
    with pytest.raises(OutOfWindowError) as exc:
        fn(*args, **kwargs)
    return str(exc.value), exc.value.bound


class TestVectorizedLowering:
    """The whole-table lowering equals the per-cell reference bit for bit."""

    @pytest.mark.parametrize("variant", ["mosfet", "ts"])
    def test_rule_tables_equal_per_cell_reference(self, params, ts_params, variant):
        ts = ts_params if variant == "ts" else None
        rng = random.Random(3)
        checked = 0
        for trial in range(40):
            rules = [RangeRule(*sorted(rng.randrange(1 << 12) for _ in range(2)), 12)
                     for _ in range(rng.randint(1, 6))]
            bits = (1, 2, 3, 4)[trial % 4]
            t = compile_rules(rules, bits)
            got = lower_to_conductances(t, params, variant=variant, ts=ts)
            assert got == per_cell_lowering(t, params, None, variant, ts)
            assert all(type(c.g_m1) is float and type(c.g_m2) is float
                       for row in got for c in row)
            checked += t.n_cells
        assert checked > 1000

    @pytest.mark.parametrize("variant", ["mosfet", "ts"])
    @pytest.mark.parametrize("bits", [None, 2])
    def test_tree_tables_equal_per_cell_reference(self, params, ts_params,
                                                  variant, bits):
        ts = ts_params if variant == "ts" else None
        rng = random.Random(11)
        for _ in range(5):
            tt = tree_to_cam(make_random_tree(rng, 3, 5, grid=4 if bits else 16),
                             params, variant, ts, bits_per_cell=bits)
            got = lower_to_conductances(tt.table, params, tt.family, variant, ts)
            assert got == per_cell_lowering(tt.table, params, tt.family, variant, ts)

    def test_explicit_family_and_wildcards(self, params):
        from acamsim.cell import quantize_levels
        narrow = VoltageInterval(0.33, 0.45)
        fam = LevelFamily(levels=tuple(quantize_levels(4, narrow, 0.004)),
                          window=narrow)
        word = DigitWord((DigitSpec.wildcard(4), DigitSpec.exact(1, 4),
                          DigitSpec(1, 3, 4), DigitSpec.wildcard(4)))
        t = CamTable(rows=((word, "a"), (word, "b")), width_bits=8,
                     bits_per_cell=2)
        got = lower_to_conductances(t, params, fam)
        assert got == per_cell_lowering(t, params, fam)
        assert got[0][0] == CellConfig(*conductance_from_bounds(
            narrow.lo, narrow.hi, params))
        assert got != lower_to_conductances(t, params)  # default family differs

    def test_empty_table(self, params):
        assert lower_to_conductances(CamTable(rows=()), params) == []
        t = CamTable(rows=(), width_bits=8, bits_per_cell=2)
        assert lower_to_conductances(t, params) == []

    def test_first_bad_cell_in_row_major_order(self, params):
        ok = VoltageInterval(0.36, 0.42)
        both = VoltageInterval(0.02, 0.98)   # both targets outside the window
        lo_only = VoltageInterval(0.02, 0.42)
        hi_only = VoltageInterval(0.36, 0.98)
        assert raised(conductance_from_bounds, both.lo, both.hi,
                      params)[1] == "lo"
        assert raised(conductance_from_bounds, hi_only.lo, hi_only.hi,
                      params)[1] == "hi"
        cases = [
            # (rows, expected prefix, expected bound)
            ([(ok, ok, ok), (ok, both, hi_only), (lo_only, ok, ok)],
             "row 1 digit 1: lower bound", "lo"),
            ([(ok, ok, ok), (hi_only, lo_only, ok), (both, both, both)],
             "row 1 digit 0: upper bound", "hi"),
            ([(ok, ok, ok), (ok, ok, ok), (ok, ok, lo_only)],
             "row 2 digit 2: lower bound", "lo"),
        ]
        for rows, prefix, bound in cases:
            t = CamTable(rows=tuple((IntervalWord(r), "") for r in rows))
            got = raised(lower_to_conductances, t, params)
            assert got == raised(per_cell_lowering, t, params, None)
            assert got[0].startswith(prefix) and got[1] == bound


class TestSerialization:
    def test_digit_table_round_trip(self):
        t = compile_rules([REFERENCE_RULE], 4)
        back = table_from_json_dict(table_to_json_dict(t))
        assert back == t

    def test_ternary_table_round_trip(self):
        t = compile_rules([REFERENCE_RULE], 1)
        doc = table_to_json_dict(t)
        assert doc["bits_per_cell"] == 1
        assert {row["word"]["kind"] for row in doc["rows"]} == {"digits"}
        back = table_from_json_dict(doc)
        assert back == t
        # rows written by earlier versions as {0, 1, X} strings load as the
        # same 1-bit table
        old = {"width_bits": 16, "bits_per_cell": None, "rows": [
            {"word": {"kind": "ternary", "symbols": symbols(w)}, "label": lb}
            for w, lb in t.rows]}
        assert table_from_json_dict(old) == t

    def test_grid_text_shape(self):
        t = compile_rules([REFERENCE_RULE], 4)
        grid = format_grid(t)
        lines = grid.splitlines()
        assert len(lines) == 6
        assert all("accept" in ln for ln in lines)
        assert "X" in grid and "{" in grid

    def test_level_family_round_trip(self, params):
        from acamsim.tables import family_from_json_dict, family_to_json_dict
        fam = default_level_family(8, params)
        back = family_from_json_dict(family_to_json_dict(fam))
        assert back.n_levels == 8
        assert back.window.lo == pytest.approx(fam.window.lo)
        for a, b in zip(back.levels, fam.levels):
            assert a.lo == pytest.approx(b.lo)
            assert a.hi == pytest.approx(b.hi)

    def test_level_family_json_format(self, params):
        from acamsim.tables import family_from_json_dict, family_to_json_dict
        fam = default_level_family(16, params)
        doc = family_to_json_dict(fam)
        assert list(doc) == ["window", "n_levels", "levels"]
        assert list(doc["window"]) == ["lo_V", "hi_V"] and doc["n_levels"] == 16
        assert [list(lv) for lv in doc["levels"]] == [["index", "lo_V", "hi_V"]] * 16
        assert [lv["index"] for lv in doc["levels"]] == list(range(16))
        assert family_from_json_dict(json.loads(json.dumps(doc))) == fam

    def test_rules_jsonl_parsing(self):
        text = '{"lo": 4, "hi": 7, "width_bits": 4, "label": "a"}\n\n' \
               '{"lo": 0, "hi": 15, "width_bits": 4}\n'
        rules = parse_rules_jsonl(text)
        assert len(rules) == 2
        assert rules[0].label == "a"
        with pytest.raises(DomainError):
            parse_rules_jsonl('{"lo": 1}\n')
        with pytest.raises(DomainError):
            parse_rules_jsonl("not json\n")

    def test_compile_rules_mixed_width_rejected(self):
        with pytest.raises(DomainError):
            compile_rules([RangeRule(0, 1, 4), RangeRule(0, 1, 8)], 2)


def test_encode_integer_range_checked(params):
    t = compile_rules([REFERENCE_RULE], 4)
    fam = default_level_family(16, params)
    assert len(encode_integer(65535, t, fam)) == 4
    with pytest.raises(DomainError):
        encode_integer(65536, t, fam)
    with pytest.raises(DomainError):
        encode_integer(-1, t, fam)


@pytest.mark.parametrize("bits", range(1, 9))
def test_encode_integers_equals_encode_integer(params, bits):
    t = compile_rules([RangeRule(3, 200, 8)], bits)
    fam = default_level_family(1 << bits, params)
    values = list(range(1 << bits * t.n_cols))  # 0 .. the largest value
    want = np.array([encode_integer(v, t, fam) for v in values])
    assert np.array_equal(encode_integers(values, t, fam), want)
    assert encode_integers([], t, fam).shape == (0, t.n_cols)


def test_encode_integers_wide_and_out_of_range(params):
    t = compile_rules([RangeRule(5, 2 ** 70 - 3, 70)], 8)
    fam = default_level_family(256, params)
    values = [0, 1, 2 ** 63, 2 ** 64 + 5, 3 ** 44, 2 ** 70 - 1]
    assert np.array_equal(encode_integers(values, t, fam),
                          [encode_integer(v, t, fam) for v in values])
    t = compile_rules([REFERENCE_RULE], 4)
    fam = default_level_family(16, params)
    for values, first in (([385, -1, 70000], -1), ([65536, -1], 65536),
                          ([0, 2 ** 64 + 1, -5], 2 ** 64 + 1)):
        with pytest.raises(DomainError) as e:
            encode_integer(first, t, fam)
        with pytest.raises(DomainError, match=f"^{e.value}$"):
            encode_integers(values, t, fam)


def test_rule_validation():
    with pytest.raises(DomainError):
        RangeRule(5, 4, 4)
    with pytest.raises(DomainError):
        RangeRule(0, 16, 4)
