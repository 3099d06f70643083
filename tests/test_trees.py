import random

import pytest

from acamsim.cell import VoltageInterval, achievable_window
from acamsim.errors import (AmbiguousMatchError, DomainError,
                            MalformedTreeError, OutOfWindowError)
from acamsim.tables import CamTable, IntervalWord, lower_to_conductances
from acamsim.trees import (DecisionTree, FeatureSpec, TreeLeaf, TreeNode,
                           TreeTable, classify_many,
                           tree_from_json_dict, tree_to_cam, tree_to_json_dict)

UNIT = FeatureSpec("x", 0.0, 1.0)


def make_random_tree(rng, n_features, max_depth, grid=16):
    """Random tree with thresholds on a 1/grid lattice and no empty paths.

    Splits only where the remaining lattice span leaves room on both sides,
    which keeps every root-to-leaf path satisfiable.
    """
    features = tuple(FeatureSpec(f"f{i}", 0.0, 1.0) for i in range(n_features))
    counter = [0]

    def build(depth, spans):
        open_feats = [i for i, (lo, hi) in enumerate(spans) if hi - lo >= 2]
        if depth >= max_depth or not open_feats or rng.random() < 0.25:
            counter[0] += 1
            return TreeLeaf(f"leaf{counter[0]}")
        fi = rng.choice(open_feats)
        lo, hi = spans[fi]
        cut = rng.randrange(lo + 1, hi)
        left_spans = list(spans)
        left_spans[fi] = (lo, cut)
        right_spans = list(spans)
        right_spans[fi] = (cut, hi)
        return TreeNode(feature=fi, threshold=cut / grid,
                        left=build(depth + 1, left_spans),
                        right=build(depth + 1, right_spans))

    return DecisionTree(features=features,
                        root=build(0, [(0, grid)] * n_features))


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

    def test_collision_detected(self, params):
        # two distinct thresholds inside one 8-level slot collapse a path
        inner = TreeNode(0, 0.52, TreeLeaf("m"), TreeLeaf("r"))
        t = DecisionTree(features=(UNIT,),
                         root=TreeNode(0, 0.5, TreeLeaf("l"), inner))
        with pytest.raises(MalformedTreeError):
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
    rng = random.Random(1)
    tree = make_random_tree(rng, 2, max_depth=4)
    doc = tree_to_json_dict(tree)
    back = tree_from_json_dict(doc)
    assert back == tree
    with pytest.raises(DomainError):
        tree_from_json_dict({"features": []})
    with pytest.raises(DomainError):
        tree_from_json_dict({"features": [], "root": {"feature": 0}})


def test_feature_domain_validation():
    with pytest.raises(DomainError):
        FeatureSpec("bad", 1.0, 0.0)
