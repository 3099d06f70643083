"""Map binary decision trees onto CAM tables for one-cycle classification.

Every root-to-leaf path is an AND of per-feature threshold constraints;
since AND commutes, the constraints are grouped by feature and intersected
into one interval per feature, with absent features stored as don't-cares.
Each path then becomes one CAM row carrying the leaf label, and classifying
an input is a single array search: exactly one row matches any in-domain
feature vector because sibling splits are mutually exclusive.

Feature values are carried to data-line voltages by per-feature affine maps
into the device's achievable interval window. Left branches take values
strictly below the threshold, right branches at or above it. Paths keep
their thresholds in the feature domain, and each table mode guards them its
own way. A continuous right row's stored lower edge sits
``THRESHOLD_UNDERLAP_V`` below the encoded threshold (absorbing the
in-array boundary offset, so an input exactly at the threshold resolves to
the right side) and the left row stops ``BOUNDARY_GAP_V`` below that,
keeping rows disjoint; inputs closer to a threshold than these margins may
resolve to the right side. A quantized threshold snaps to the nearest level
boundary in the feature domain, with no volt margin: the level family's
guard bands keep the rows apart. Classification contracts hold for inputs
at least half a quantization step away from every threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .array import (ArraySpec, _single_rows, _unpack, make_array,
                    search_words)
from .cell import VoltageInterval, achievable_window
from .devices import DeviceParams, TsDeviceParams
from .errors import (AmbiguousMatchError, DomainError, MalformedTreeError)
from .tables import (CamTable, DigitSpec, DigitWord, IntervalWord,
                     LevelFamily, default_level_family, lower_to_conductances)

# The ">=" row starts this far below its encoded threshold so that an input
# exactly at the threshold still matches after the in-array boundary offset.
THRESHOLD_UNDERLAP_V = 4e-3
# Additional gap down to the "<" row's upper edge, keeping the rows disjoint.
BOUNDARY_GAP_V = 1e-3

# Why a feature vector cannot be encoded, indexed by the code that
# ``TreeTable._reject_codes`` gives it; code 0 means it can be.
_REJECTS = (None,
            "feature vectors must be n x {n}",
            "feature vector has a non-finite value",
            "feature vector outside encoded domain")


@dataclass(frozen=True)
class FeatureSpec:
    """One input feature and its real-valued domain [lo, hi]."""

    name: str
    lo: float
    hi: float

    def __post_init__(self):
        if not np.isfinite((self.lo, self.hi)).all():
            raise DomainError(f"feature {self.name!r} domain must be finite")
        if not (self.lo < self.hi):
            raise DomainError(f"feature {self.name!r} domain must have lo < hi")


@dataclass(frozen=True)
class TreeLeaf:
    label: str


@dataclass(frozen=True)
class TreeNode:
    feature: int       # feature index
    threshold: float   # left: value < threshold, right: value >= threshold
    left: "TreeNode | TreeLeaf"
    right: "TreeNode | TreeLeaf"


@dataclass(frozen=True)
class DecisionTree:
    features: tuple[FeatureSpec, ...]
    root: "TreeNode | TreeLeaf"

    def classify(self, x) -> str:
        """Reference traversal (the oracle the compiled table must agree with)."""
        node = self.root
        while isinstance(node, TreeNode):
            node = node.left if x[node.feature] < node.threshold else node.right
        return node.label


@dataclass(frozen=True)
class TreeTable:
    """Compiled tree: CAM rows plus the feature-to-voltage codec.

    Continuous mode (the default) stores one analog interval per feature;
    quantized mode snaps thresholds to a discrete level family and stores
    level sub-ranges instead. ``variant`` and ``ts`` name the cell the table
    was compiled for; searches lower it for that cell, once per
    :class:`DeviceParams` (the last lowering is kept).
    """

    table: CamTable
    features: tuple[FeatureSpec, ...]
    window: VoltageInterval
    family: LevelFamily | None = None  # set in quantized mode
    variant: str = "mosfet"
    ts: TsDeviceParams | None = None
    # (p, array) of the last lowering, reused while p stays equal
    _lowered: tuple | None = field(default=None, init=False, repr=False,
                                   compare=False)

    def _array(self, p: DeviceParams) -> ArraySpec:
        """The table lowered for ``p`` and its cell variant."""
        if self._lowered is None or self._lowered[0] != p:
            cells = lower_to_conductances(self.table, p, family=self.family,
                                          variant=self.variant, ts=self.ts)
            array = make_array(cells, variant=self.variant, ts_params=self.ts)
            object.__setattr__(self, "_lowered", (p, array))
        return self._lowered[1]

    def _domain(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.array([f.lo for f in self.features]),
                np.array([f.hi for f in self.features]))

    def _reject_codes(self, xs: np.ndarray, fits=True) -> np.ndarray:
        """Per row of ``xs`` (n x features), the ``_REJECTS`` index of the
        first check the row fails, or 0 when it can be encoded.

        ``fits`` is False for rows read with the wrong number of fields;
        those fail for that reason whatever ``xs`` holds for them.
        """
        los, his = self._domain()
        # one row per feature: numpy reduces a few long rows far faster than
        # the many short ones of the n x features layout
        xt = np.ascontiguousarray(xs.T)
        finite = np.isfinite(xt).all(axis=0)
        inside = ((xt >= los[:, None]) & (xt <= his[:, None])).all(axis=0)
        return np.select([np.logical_not(fits), ~finite, ~inside], [1, 2, 3], 0)

    def _reject_reason(self, code: int) -> str:
        return _REJECTS[code].format(n=len(self.features))

    def encode_many(self, xs) -> np.ndarray:
        """Data-line voltages of feature vectors ``xs`` (n x features).

        Raises :class:`DomainError` naming why the first row that cannot be
        encoded fails.
        """
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != len(self.features):
            raise DomainError(self._reject_reason(1))
        codes = self._reject_codes(xs)
        bad = np.flatnonzero(codes)
        if bad.size:
            raise DomainError(self._reject_reason(codes[bad[0]]))
        los, his = self._domain()
        frac = (xs - los) / (his - los)
        if self.family is None:
            return self.window.lo + frac * self.window.width
        n = self.family.n_levels
        idx = np.clip(np.floor(frac * n).astype(int), 0, n - 1)
        return np.array(self.family.voltages)[idx]


def tree_to_cam(t: DecisionTree, p: DeviceParams,
                variant: str = "mosfet",
                ts: TsDeviceParams | None = None,
                bits_per_cell: int | None = None) -> TreeTable:
    """Compile a tree to one CAM row per root-to-leaf path.

    The walk reduces each path, per feature, to the thresholds of its
    tightest right and left turns, in the feature domain. By default a row
    stores one voltage interval per feature, guarded by
    ``THRESHOLD_UNDERLAP_V`` and ``BOUNDARY_GAP_V``. With ``bits_per_cell``
    set, each threshold snaps to the nearest boundary k of a
    ``2**bits_per_cell``-level family, with no volt margin: the row stores
    levels up to k - 1 left of it and from k right of it. Raises
    :class:`MalformedTreeError` when a path's constraints contradict each
    other or leave no room for the margins ("empty interval"), or when
    snapping collapses them ("quantization collision").
    """
    if bits_per_cell is None:
        family, window = None, achievable_window(p, variant, ts)
    else:
        family = default_level_family(1 << bits_per_cell, p, variant, ts)
        window = family.window

    # no right turn is right = lo, as every value clears it; no left turn is
    # left = None, as x <= hi holds where x < hi does not
    def volts(f: FeatureSpec, right, left) -> VoltageInterval | None:
        def v(theta):
            return window.lo + (theta - f.lo) / (f.hi - f.lo) * window.width
        lo = max(window.lo, v(right) - THRESHOLD_UNDERLAP_V)
        hi = (window.hi if left is None
              else v(left) - THRESHOLD_UNDERLAP_V - BOUNDARY_GAP_V)
        return VoltageInterval(lo, hi) if lo <= hi else None

    def levels(f: FeatureSpec, right, left) -> DigitSpec | None:
        n = family.n_levels
        def k(theta):
            return round((theta - f.lo) / (f.hi - f.lo) * n)
        lo, hi = k(right), n - 1 if left is None else k(left) - 1
        return DigitSpec(lo, hi, n) if lo <= hi else None

    encode, word = ((volts, IntervalWord) if family is None
                    else (levels, DigitWord))
    rows = []

    def walk(node, turns):
        if isinstance(node, TreeLeaf):
            cells = []
            for fi, f in enumerate(t.features):
                right, left = turns.get(fi, (f.lo, None))
                cells.append(encode(f, right, left))
                if cells[-1] is None:
                    raise MalformedTreeError(
                        f"path to leaf {node.label!r} has empty interval for "
                        f"feature {f.name!r}" if family is None or (
                            left is not None and left <= right) else
                        f"quantization collision: path to {node.label!r} "
                        f"collapses feature {f.name!r} to an empty level range")
            rows.append((word(tuple(cells)), node.label))
            return
        if not (0 <= node.feature < len(t.features)):
            raise MalformedTreeError(f"node references unknown feature {node.feature}")
        f, theta = t.features[node.feature], node.threshold
        if not (f.lo <= theta <= f.hi):
            raise MalformedTreeError(f"threshold {theta} outside domain of {f.name!r}")
        right, left = turns.get(node.feature, (f.lo, None))
        walk(node.left, {**turns, node.feature: (
            right, theta if left is None else min(left, theta))})
        walk(node.right, {**turns, node.feature: (max(right, theta), left)})

    walk(t.root, {})
    table = CamTable(rows=tuple(rows), width_bits=None,
                     bits_per_cell=bits_per_cell)
    return TreeTable(table=table, features=t.features, window=window,
                     family=family, variant=variant, ts=ts)


def classify_many(tt: TreeTable, xs, p: DeviceParams) -> list[str]:
    """Labels of feature vectors ``xs`` (n x features) from one array search.

    The table is lowered for the cell variant it was compiled for, once
    for as long as ``p`` stays equal. Raises :class:`AmbiguousMatchError`
    naming the first input that matched zero or several rows (a
    quantization collision or an in-array boundary shift).
    """
    array = tt._array(p)
    labels, wrong = _decode(tt.table, search_words(array, tt.encode_many(xs), p))
    if wrong:
        i, rows = next(iter(wrong.items()))
        raise AmbiguousMatchError(
            f"input {i}: {len(rows)} rows matched (expected exactly 1)",
            matched_rows=rows)
    return labels


def _decode(table: CamTable, words: np.ndarray):
    """Labels from the matched row sets of :func:`search_words`.

    Returns the label of each input whose set holds exactly one row, and a
    dict, in input order, from every other input to the indices of the
    rows it matched (its entry in the label list is meaningless). Only
    those inputs' sets are unpacked.
    """
    row, good = _single_rows(words)
    labels = np.array(table.labels(), dtype=object).take(row).tolist()
    bad = np.flatnonzero(~good)
    wrong = {i: tuple(np.flatnonzero(b).tolist())
             for i, b in zip(bad.tolist(), _unpack(words[bad], table.n_rows))}
    return labels, wrong


# ---------------------------------------------------------------------------
# JSON ingestion
# ---------------------------------------------------------------------------

def _typed(value, types: tuple, what: str):
    """``value`` if it is one of ``types`` and not a bool (JSON true or
    false); anything else is a TypeError saying ``what``."""
    if isinstance(value, bool) or not isinstance(value, types):
        raise TypeError(what)
    return value


def _number(value, what: str) -> float:
    return float(_typed(value, (int, float), f"{what} must be a number"))


def features_from_json(items) -> tuple[FeatureSpec, ...]:
    """Features of a [{"name", "lo", "hi"}...] list, as tree documents and
    compiled tree tables hold them. A missing key is a KeyError, and a
    domain bound that is not a JSON number a TypeError."""
    return tuple(FeatureSpec(f["name"], _number(f["lo"], 'feature "lo"'),
                             _number(f["hi"], 'feature "hi"'))
                 for f in items)


def tree_from_json_dict(doc: dict) -> DecisionTree:
    """Parse {"features": [{name, lo, hi}...], "root": {...}} documents.

    Internal nodes carry {"feature", "threshold", "left", "right"}; leaves
    carry {"label"}. A missing key is a :class:`DomainError`; a feature
    index that is not a JSON integer, a threshold or domain bound that is
    not a JSON number, or a label that is neither a string nor a number is
    a TypeError.
    """
    try:
        features = features_from_json(doc["features"])
    except KeyError as e:
        raise DomainError(f"tree document missing feature field {e}") from e

    def parse(node):
        if "label" in node:
            return TreeLeaf(label=str(_typed(
                node["label"], (str, int, float),
                '"label" must be a string or a number')))
        try:
            return TreeNode(
                feature=_typed(node["feature"], (int,),
                               '"feature" must be an integer'),
                threshold=_number(node["threshold"], '"threshold"'),
                left=parse(node["left"]), right=parse(node["right"]))
        except KeyError as e:
            raise DomainError(f"tree node missing field {e}") from e

    if "root" not in doc:
        raise DomainError("tree document missing 'root'")
    return DecisionTree(features=features, root=parse(doc["root"]))
