import random
from dataclasses import replace

import numpy as np
import pytest

import acamsim.trees
from acamsim.cell import VoltageInterval, achievable_window
from acamsim.errors import (AmbiguousMatchError, DomainError,
                            MalformedTreeError, OutOfWindowError)
from acamsim.tables import (CamTable, DigitSpec, IntervalWord,
                            lower_to_conductances)
from acamsim.trees import (DecisionTree, FeatureSpec, TreeLeaf, TreeNode,
                           TreeTable, classify_many,
                           tree_from_json_dict, tree_to_cam)

UNIT = FeatureSpec("x", 0.0, 1.0)


def random_tree_doc(rng, n_features, max_depth, grid=16):
    """JSON document of a random tree with thresholds on a 1/grid lattice
    and no empty paths.

    Splits only where the remaining lattice span leaves room on both sides,
    which keeps every root-to-leaf path satisfiable.
    """
    counter = [0]

    def build(depth, spans):
        open_feats = [i for i, (lo, hi) in enumerate(spans) if hi - lo >= 2]
        if depth >= max_depth or not open_feats or rng.random() < 0.25:
            counter[0] += 1
            return {"label": f"leaf{counter[0]}"}
        fi = rng.choice(open_feats)
        lo, hi = spans[fi]
        cut = rng.randrange(lo + 1, hi)
        left_spans = list(spans)
        left_spans[fi] = (lo, cut)
        right_spans = list(spans)
        right_spans[fi] = (cut, hi)
        return {"feature": fi, "threshold": cut / grid,
                "left": build(depth + 1, left_spans),
                "right": build(depth + 1, right_spans)}

    return {"features": [{"name": f"f{i}", "lo": 0.0, "hi": 1.0}
                         for i in range(n_features)],
            "root": build(0, [(0, grid)] * n_features)}


def make_random_tree(rng, n_features, max_depth, grid=16):
    """The tree of :func:`random_tree_doc`."""
    return tree_from_json_dict(random_tree_doc(rng, n_features, max_depth, grid))


class TestTreeToCam:
    def test_single_leaf_is_one_wildcard_row(self, params):
        t = DecisionTree(features=(UNIT,), root=TreeLeaf("only"))
        tt = tree_to_cam(t, params)
        assert tt.table.n_rows == 1
        word, label = tt.table.rows[0]
        assert label == "only"
        assert word.intervals[0].lo == tt.window.lo
        assert word.intervals[0].hi == tt.window.hi

    def test_depth_one_split(self, params):
        from acamsim.trees import BOUNDARY_GAP_V, THRESHOLD_UNDERLAP_V
        t = DecisionTree(features=(UNIT,),
                         root=TreeNode(0, 0.5, TreeLeaf("lo"), TreeLeaf("hi")))
        tt = tree_to_cam(t, params)
        assert tt.table.labels() == ("lo", "hi")
        left, right = (w.intervals[0] for w, _ in tt.table.rows)
        theta = tt.window.lo + 0.5 * tt.window.width
        assert left.lo == tt.window.lo
        assert right.lo == pytest.approx(theta - THRESHOLD_UNDERLAP_V)
        assert left.hi == pytest.approx(right.lo - BOUNDARY_GAP_V)
        assert left.hi < theta <= right.hi
        assert right.hi == tt.window.hi

    def test_input_at_threshold_goes_right(self, params):
        t = DecisionTree(features=(UNIT,),
                         root=TreeNode(0, 0.5, TreeLeaf("lo"), TreeLeaf("hi")))
        tt = tree_to_cam(t, params)
        assert classify_many(tt, [[0.5]], params) == ["hi"]
        assert t.classify([0.5]) == "hi"

    def test_table_records_its_variant(self, params, ts_params):
        t = DecisionTree(features=(UNIT,),
                         root=TreeNode(0, 0.5, TreeLeaf("lo"), TreeLeaf("hi")))
        tt = tree_to_cam(t, params, variant="ts", ts=ts_params)
        assert (tt.variant, tt.ts) == ("ts", ts_params)
        assert tt.window == achievable_window(params, "ts", ts_params)
        # searched as a ts array: the mosfet cell cannot store this window
        assert classify_many(tt, [[0.25], [0.75]], params) == ["lo", "hi"]
        with pytest.raises(OutOfWindowError):
            lower_to_conductances(tt.table, params)

    def test_contradictory_path_rejected(self, params):
        # right of 0.8 then left of 0.2 on the same feature is empty
        inner = TreeNode(0, 0.2, TreeLeaf("a"), TreeLeaf("b"))
        t = DecisionTree(features=(UNIT,), root=TreeNode(0, 0.8,
                                                         TreeLeaf("c"), inner))
        with pytest.raises(MalformedTreeError):
            tree_to_cam(t, params)

    def test_unknown_feature_rejected(self, params):
        t = DecisionTree(features=(UNIT,),
                         root=TreeNode(3, 0.5, TreeLeaf("a"), TreeLeaf("b")))
        with pytest.raises(MalformedTreeError):
            tree_to_cam(t, params)

    def test_absent_feature_becomes_dont_care(self, params):
        feats = (UNIT, FeatureSpec("y", 0.0, 1.0))
        t = DecisionTree(features=feats,
                         root=TreeNode(0, 0.5, TreeLeaf("a"), TreeLeaf("b")))
        tt = tree_to_cam(t, params)
        for word, _ in tt.table.rows:
            assert word.intervals[1].lo == tt.window.lo
            assert word.intervals[1].hi == tt.window.hi


class TestClassify:
    def test_matches_traversal_oracle_on_random_trees(self, params):
        rng = random.Random(7)
        for _ in range(40):
            n_feat = rng.randint(1, 4)
            tree = make_random_tree(rng, n_feat, max_depth=5)
            tt = tree_to_cam(tree, params)
            xs = [[(rng.randrange(16) + 0.5) / 16 for _ in range(n_feat)]
                  for _ in range(200)]
            got = classify_many(tt, xs, params)
            want = [tree.classify(x) for x in xs]
            assert got == want

    def test_exactly_one_row_matches(self, params):
        rng = random.Random(3)
        tree = make_random_tree(rng, 3, max_depth=6)
        tt = tree_to_cam(tree, params)
        # classify_many raises unless exactly one row matches, so a clean
        # pass over a grid is the totality check
        xs = [[(i + 0.5) / 16, (j + 0.5) / 16, 0.5 + 1 / 32]
              for i in range(16) for j in range(16)]
        assert len(classify_many(tt, xs, params)) == len(xs)

    def test_out_of_domain_rejected(self, params):
        t = DecisionTree(features=(UNIT,),
                         root=TreeNode(0, 0.5, TreeLeaf("a"), TreeLeaf("b")))
        tt = tree_to_cam(t, params)
        with pytest.raises(DomainError):
            classify_many(tt, [[1.5]], params)

    def test_non_finite_feature_is_domain_error(self, params):
        t = DecisionTree(features=(UNIT,),
                         root=TreeNode(0, 0.5, TreeLeaf("a"), TreeLeaf("b")))
        tt = tree_to_cam(t, params)
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(DomainError):
                classify_many(tt, [[0.25], [bad]], params)
            with pytest.raises(DomainError):
                tt.encode_many([[bad]])

    def test_ambiguous_match_reports_first_bad_input(self, params):
        # hand-built rows: [0, 0.5] -> "a", a gap, then two rows overlapping
        # on [0.8, 1] (fractions of the window)
        w = achievable_window(params)

        def span(f0, f1):
            return IntervalWord((VoltageInterval(w.lo + f0 * w.width,
                                                 w.lo + f1 * w.width),))

        table = CamTable(rows=((span(0.0, 0.5), "a"), (span(0.6, 1.0), "b"),
                               (span(0.8, 1.0), "c")))
        tt = TreeTable(table=table, features=(UNIT,), window=w)
        assert classify_many(tt, [[0.2], [0.7]], params) == ["a", "b"]
        with pytest.raises(AmbiguousMatchError) as err:
            classify_many(tt, [[0.2], [0.7], [0.9], [0.55]], params)
        assert str(err.value) == "input 2: 2 rows matched (expected exactly 1)"
        assert err.value.matched_rows == (1, 2)
        with pytest.raises(AmbiguousMatchError) as err:
            classify_many(tt, [[0.2], [0.55], [0.9]], params)
        assert str(err.value) == "input 1: 0 rows matched (expected exactly 1)"
        assert err.value.matched_rows == ()

class TestWideTables:
    """Tables past 64 rows: row sets span several words."""

    @pytest.mark.parametrize("seed, depth, rows", [(6, 9, 105), (10, 10, 136)])
    def test_tree_of_more_than_64_leaves_matches_traversal(self, params, seed,
                                                           depth, rows):
        # 105 and 136 rows x 4 columns take the lookup tables for a large
        # batch
        tree = make_random_tree(random.Random(seed), 4, max_depth=depth)
        tt = tree_to_cam(tree, params)
        assert tt.table.n_rows == rows
        nrng = np.random.default_rng(13)
        xs = (nrng.integers(16, size=(6000, 4)) + 0.5) / 16
        assert classify_many(tt, xs, params) == [tree.classify(x) for x in xs]
        assert tt._array(params)._tables[2] is not None
        # fewer inputs than a column has thresholds take the direct compares
        assert (classify_many(tt, xs[:50], params)
                == [tree.classify(x) for x in xs[:50]])

    def test_ambiguous_match_names_rows_in_several_words(self, params):
        # 70 disjoint rows on a 7 x 10 grid of two features, then copies of
        # rows 6 and 66: row 70 is bit 6 of the second word, as row 6 is of
        # the first
        w = achievable_window(params)

        def span(k):
            return IntervalWord(tuple(
                VoltageInterval(w.lo + (i + 0.1) / n * w.width,
                                w.lo + (i + 0.9) / n * w.width)
                for i, n in ((k // 10, 7), (k % 10, 10))))

        rows = tuple((span(k), f"r{k}") for k in range(70))
        table = CamTable(rows=rows + ((span(6), "x"), (span(66), "y")))
        tt = TreeTable(table=table, features=(UNIT, FeatureSpec("y", 0, 1)),
                       window=w)
        mid = [[(k // 10 + 0.5) / 7, (k % 10 + 0.5) / 10] for k in range(70)]
        with pytest.raises(AmbiguousMatchError) as err:
            classify_many(tt, mid, params)
        assert str(err.value) == "input 6: 2 rows matched (expected exactly 1)"
        assert err.value.matched_rows == (6, 70)
        with pytest.raises(AmbiguousMatchError) as err:
            classify_many(tt, mid[7:], params)
        assert str(err.value) == "input 59: 2 rows matched (expected exactly 1)"
        assert err.value.matched_rows == (66, 71)
        labels = classify_many(tt, [m for k, m in enumerate(mid)
                                    if k not in (6, 66)], params)
        assert labels == [f"r{k}" for k in range(70) if k not in (6, 66)]
        with pytest.raises(AmbiguousMatchError) as err:
            classify_many(tt, [mid[5], [0.0, 0.0]], params)
        assert str(err.value) == "input 1: 0 rows matched (expected exactly 1)"
        assert err.value.matched_rows == ()


class TestLoweringCache:
    """A tree table is lowered once for as long as the parameters stay equal."""

    @staticmethod
    def _counted(monkeypatch):
        calls = []
        lower = acamsim.trees.lower_to_conductances

        def counted(*args, **kwargs):
            calls.append(args[1])
            return lower(*args, **kwargs)
        monkeypatch.setattr(acamsim.trees, "lower_to_conductances", counted)
        return calls

    def test_repeated_calls_lower_once(self, params, monkeypatch):
        calls = self._counted(monkeypatch)
        tree = make_random_tree(random.Random(17), 3, max_depth=5)
        tt = tree_to_cam(tree, params)
        xs = [[(i + 0.5) / 16, (j + 0.5) / 16, 17 / 32] for i in range(16)
              for j in range(16)]
        want = [tree.classify(x) for x in xs]
        for _ in range(4):
            assert classify_many(tt, xs, params) == want
        assert classify_many(tt, xs, replace(params)) == want
        assert calls == [params]

    @staticmethod
    def _outcome(tt, xs, p):
        try:
            return classify_many(tt, xs, p)
        except AmbiguousMatchError as e:
            return str(e), e.matched_rows

    @pytest.mark.parametrize("g_off", [0.0, 3e-8, 1e-6])
    def test_new_params_give_a_fresh_lowering_result(self, params,
                                                     monkeypatch, g_off):
        calls = self._counted(monkeypatch)
        tree = make_random_tree(random.Random(19), 2, max_depth=6)
        tt = tree_to_cam(tree, params)
        other = replace(params, g_off=g_off)
        rng = np.random.default_rng(23)
        xs = np.vstack([(rng.integers(16, size=(300, 2)) + 0.5) / 16,
                        rng.uniform(size=(300, 2))])
        first = self._outcome(tt, xs, params)
        for p in (other, params, other):
            assert self._outcome(tt, xs, p) == self._outcome(replace(tt), xs, p)
        assert self._outcome(tt, xs, params) == first
        # each switch lowers once, and so does each fresh table
        assert calls == [params, other, other, params, params, other, other,
                         params]


class TestQuantizedMode:
    def test_matches_traversal_on_lattice_safe_trees(self, params):
        # thresholds on a 1/16 lattice, 4-bit family: one level per lattice cell
        rng = random.Random(21)
        for _ in range(10):
            nf = rng.randint(1, 3)
            tree = make_random_tree(rng, nf, max_depth=4, grid=16)
            tt = tree_to_cam(tree, params, bits_per_cell=4)
            assert tt.family is not None
            xs = [[(rng.randrange(16) + 0.5) / 16 for _ in range(nf)]
                  for _ in range(100)]
            got = classify_many(tt, xs, params)
            want = [tree.classify(x) for x in xs]
            assert got == want

    @pytest.mark.parametrize("variant, bits", [
        *((v, b) for v in ("mosfet", "ts") for b in range(1, 6)), ("ts", 6)])
    def test_one_split_on_every_level_boundary(self, params, ts_params,
                                               variant, bits):
        # each interior level boundary as threshold, each level midpoint as
        # input: the threshold splits the levels exactly, with no volt margin
        n = 1 << bits
        xs = [[(j + 0.5) / n] for j in range(n)]
        ts = ts_params if variant == "ts" else None
        for k in range(1, n):
            t = DecisionTree(features=(UNIT,), root=TreeNode(
                0, k / n, TreeLeaf("L"), TreeLeaf("R")))
            tt = tree_to_cam(t, params, variant=variant, ts=ts,
                             bits_per_cell=bits)
            assert [w.digits[0] for w, _ in tt.table.rows] == [
                DigitSpec(0, k - 1, n), DigitSpec(k, n - 1, n)]
            assert classify_many(tt, xs, params) == ["L"] * k + ["R"] * (n - k)

    def test_collision_detected(self, params):
        # two distinct thresholds inside one 8-level slot collapse a path
        inner = TreeNode(0, 0.52, TreeLeaf("m"), TreeLeaf("r"))
        t = DecisionTree(features=(UNIT,),
                         root=TreeNode(0, 0.5, TreeLeaf("l"), inner))
        with pytest.raises(MalformedTreeError, match="quantization collision"):
            tree_to_cam(t, params, bits_per_cell=3)

    def test_contradictory_path_is_an_empty_interval(self, params):
        # right of 0.8 then left of 0.2 is empty before any snapping
        inner = TreeNode(0, 0.2, TreeLeaf("a"), TreeLeaf("b"))
        t = DecisionTree(features=(UNIT,), root=TreeNode(0, 0.8,
                                                         TreeLeaf("c"), inner))
        with pytest.raises(MalformedTreeError,
                           match="path to leaf 'a' has empty interval"):
            tree_to_cam(t, params, bits_per_cell=3)

    def test_quantized_rows_are_digit_words(self, params):
        from acamsim.tables import DigitWord
        t = DecisionTree(features=(UNIT,),
                         root=TreeNode(0, 0.5, TreeLeaf("a"), TreeLeaf("b")))
        tt = tree_to_cam(t, params, bits_per_cell=3)
        assert all(isinstance(w, DigitWord) for w, _ in tt.table.rows)
        lo_word, hi_word = (w for w, _ in tt.table.rows)
        assert lo_word.digits[0].lo == 0 and lo_word.digits[0].hi == 3
        assert hi_word.digits[0].lo == 4 and hi_word.digits[0].hi == 7


def test_tree_json_round_trip():
    doc = {"features": [{"name": "x", "lo": 0, "hi": 1},
                        {"name": "y", "lo": -2, "hi": 2.5}],
           "root": {"feature": 1, "threshold": 0.5,
                    "left": {"label": 7},
                    "right": {"feature": 0, "threshold": 0.25,
                              "left": {"label": "b"},
                              "right": {"label": "c"}}}}
    assert tree_from_json_dict(doc) == DecisionTree(
        features=(UNIT, FeatureSpec("y", -2.0, 2.5)),
        root=TreeNode(1, 0.5, TreeLeaf("7"),
                      TreeNode(0, 0.25, TreeLeaf("b"), TreeLeaf("c"))))
    with pytest.raises(DomainError):
        tree_from_json_dict({"features": []})
    with pytest.raises(DomainError):
        tree_from_json_dict({"features": [], "root": {"feature": 0}})
    # a domain bound must be a JSON number, not a numeric string
    doc["features"][1]["lo"] = "-2"
    with pytest.raises(TypeError, match='feature "lo" must be a number'):
        tree_from_json_dict(doc)


def test_feature_domain_validation():
    with pytest.raises(DomainError):
        FeatureSpec("bad", 1.0, 0.0)
    for lo, hi in ((-np.inf, np.inf), (0.0, np.inf), (np.nan, 1.0)):
        with pytest.raises(DomainError, match="'bad' domain must be finite"):
            FeatureSpec("bad", lo, hi)
