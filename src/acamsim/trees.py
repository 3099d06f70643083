"""Map binary decision trees onto CAM tables for one-cycle classification.

Every root-to-leaf path is an AND of per-feature threshold constraints;
since AND commutes, the constraints are grouped by feature and intersected
into one interval per feature, with absent features stored as don't-cares.
Each path then becomes one CAM row carrying the leaf label, and classifying
an input is a single array search: exactly one row matches any in-domain
feature vector because sibling splits are mutually exclusive.

Feature values are carried to data-line voltages by per-feature affine maps
into the device's achievable interval window. Left branches take values
strictly below the threshold, right branches at or above it. To make that
deterministic on analog hardware the right row's stored lower edge sits a
few millivolts below the encoded threshold (absorbing the in-array boundary
offset, so an input exactly at the threshold resolves to the right side)
and the left row stops a further gap below that, keeping rows disjoint.
Inputs closer to a threshold than these margins may resolve to the right
side; classification contracts hold for inputs at least half a quantization
step away from every threshold.
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

    Continuous by default; with ``bits_per_cell`` set, thresholds snap to
    the nearest boundary of a ``2**bits_per_cell``-level family and rows
    store level sub-ranges. Raises :class:`MalformedTreeError` when a path
    carries contradictory constraints (empty feature interval) or when
    quantization collapses a path's interval to nothing.
    """
    window = achievable_window(p, variant, ts)
    n = len(t.features)

    def to_v(fi: int, value: float) -> float:
        f = t.features[fi]
        frac = (value - f.lo) / (f.hi - f.lo)
        return window.lo + frac * window.width

    rows = []

    def walk(node, constraints):
        if isinstance(node, TreeLeaf):
            intervals = []
            for fi in range(n):
                lo, hi = constraints[fi]
                if lo > hi:
                    raise MalformedTreeError(
                        f"path to leaf {node.label!r} has empty interval for "
                        f"feature {t.features[fi].name!r}")
                intervals.append(VoltageInterval(lo, hi))
            rows.append((IntervalWord(tuple(intervals)), node.label))
            return
        if not (0 <= node.feature < n):
            raise MalformedTreeError(f"node references unknown feature {node.feature}")
        f = t.features[node.feature]
        if not (f.lo <= node.threshold <= f.hi):
            raise MalformedTreeError(
                f"threshold {node.threshold} outside domain of {f.name!r}")
        theta = to_v(node.feature, node.threshold)
        lo, hi = constraints[node.feature]

        left = dict(constraints)
        left[node.feature] = (lo, min(hi, theta - THRESHOLD_UNDERLAP_V
                                      - BOUNDARY_GAP_V))
        walk(node.left, left)

        right = dict(constraints)
        right[node.feature] = (max(lo, theta - THRESHOLD_UNDERLAP_V), hi)
        walk(node.right, right)

    walk(t.root, {fi: (window.lo, window.hi) for fi in range(n)})

    if bits_per_cell is None:
        table = CamTable(rows=tuple(rows), width_bits=None, bits_per_cell=None)
        return TreeTable(table=table, features=t.features, window=window,
                         variant=variant, ts=ts)

    family = default_level_family(1 << bits_per_cell, p, variant, ts)
    n_levels = family.n_levels
    pitch = window.width / n_levels

    def snap(word: IntervalWord, label: str) -> DigitWord:
        digits = []
        for fi, iv in enumerate(word.intervals):
            k_lo = round((iv.lo - window.lo) / pitch)
            k_hi = round((iv.hi - window.lo) / pitch)
            i_lo = max(k_lo, 0)
            i_hi = min(k_hi - 1, n_levels - 1)
            if i_lo > i_hi:
                raise MalformedTreeError(
                    f"quantization collision: path to {label!r} collapses "
                    f"feature {t.features[fi].name!r} to an empty level range")
            digits.append(DigitSpec(i_lo, i_hi, n_levels))
        return DigitWord(tuple(digits))

    qrows = tuple((snap(word, label), label) for word, label in rows)
    table = CamTable(rows=qrows, width_bits=None, bits_per_cell=bits_per_cell)
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

def tree_from_json_dict(doc: dict) -> DecisionTree:
    """Parse {"features": [{name, lo, hi}...], "root": {...}} documents.

    Internal nodes carry {"feature", "threshold", "left", "right"}; leaves
    carry {"label"}.
    """
    try:
        features = tuple(FeatureSpec(name=f["name"], lo=float(f["lo"]),
                                     hi=float(f["hi"]))
                         for f in doc["features"])
    except KeyError as e:
        raise DomainError(f"tree document missing feature field {e}") from e

    def parse(node):
        if "label" in node:
            return TreeLeaf(label=str(node["label"]))
        try:
            return TreeNode(feature=int(node["feature"]),
                            threshold=float(node["threshold"]),
                            left=parse(node["left"]),
                            right=parse(node["right"]))
        except KeyError as e:
            raise DomainError(f"tree node missing field {e}") from e

    if "root" not in doc:
        raise DomainError("tree document missing 'root'")
    return DecisionTree(features=features, root=parse(doc["root"]))

