"""Array-level search: match-line discharge, leakage, latency and word length.

Each row's match line (ML) is precharged and then discharged through the
pull-down legs of all its cells; the row matches when the ML is still above
``sense_frac * v_precharge`` at the sense instant. The ML is a lumped RC:

    V_ML(t) = v_precharge * exp(-G_row * t / C_ML),   C_ML = cols*c_ml + c_sense

so the sense criterion is equivalent to a row-conductance threshold
``G_th = C_ML * ln(1/sense_frac) / t_sense``. Sub-threshold leakage of the
matching cells adds to G_row and slightly moves every stored boundary as the
word gets longer; ``effective_bounds_in_array`` measures that shift and
``analytic_range_shift`` estimates it from the sub-threshold sensitivity.

The ``ts`` variant replaces the pull-down transistors with volatile
threshold-switching pull-ups: the ML starts low and is charged on mismatch,
so the sense comparison is inverted.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cell import CellConfig, VoltageInterval, bounds_from_conductance
from .devices import (DeviceParams, TsDeviceParams, inverter_output,
                      pulldown_conductance, transistor_conductance,
                      ts_conductance_off_curve)
from .errors import (DomainError, EmptyIntervalError, NoDischargeError)

MAX_WORD_LENGTH_CAP = 2 ** 31 - 1
LN10 = math.log(10.0)

# search_many rejects a row without the electrical kernel when one cell leg
# alone conducts at least PRUNE_FACTOR * G_th, and accepts one when every leg
# conducts at most G_th / (PRUNE_FACTOR * 2 * cols). The factor is a rounding
# margin: it dwarfs any floating-point error in the divider, inverter and
# threshold arithmetic, so the full kernel decides such a row the same way.
PRUNE_FACTOR = 2.0
# Input x row x column elements search_many handles per chunk of inputs, which
# bounds its working memory whatever the batch size.
CHUNK_ELEMENTS = 2 ** 18


@dataclass(frozen=True)
class Parasitics:
    """Per-cell match-line parasitics (ohms, farads) extracted from layout."""

    r_ml: float = 1.91
    c_ml: float = 0.227e-15

    def __post_init__(self):
        for name in ("r_ml", "c_ml"):
            if getattr(self, name) < 0:
                raise DomainError(f"parasitic {name} must be non-negative")


@dataclass(frozen=True)
class RowResult:
    matched: bool
    v_ml_at_sense: float
    latency: float | None  # ML threshold-crossing time; None when it never crosses


@dataclass(frozen=True)
class SearchResult:
    rows: tuple[RowResult, ...]

    @property
    def matched(self) -> tuple[bool, ...]:
        return tuple(r.matched for r in self.rows)

    def matched_rows(self) -> tuple[int, ...]:
        return tuple(i for i, r in enumerate(self.rows) if r.matched)


@dataclass(frozen=True, eq=False)  # arrays have no value equality: by identity
class ArraySpec:
    """Stored conductances and sensing configuration of one CAM array.

    ``g1`` and ``g2`` are the rows x cols memristor conductances of the
    lower- and upper-bound legs (S). They are programmed once: the spec
    keeps read-only copies, and every search reads them.
    """

    g1: np.ndarray
    g2: np.ndarray
    parasitics: Parasitics = Parasitics()
    v_precharge: float = 0.8
    t_sense: float = 100e-12
    sense_frac: float = 0.5
    variant: str = "mosfet"  # "mosfet" (pull-down) or "ts" (pull-up)
    ts_params: TsDeviceParams | None = None
    c_sense: float = 1e-15  # fixed sense-node capacitance (F)

    def __post_init__(self):
        for name in ("g1", "g2"):
            try:
                g = np.array(getattr(self, name), dtype=float)
            except ValueError as e:
                raise DomainError(f"{name} must be a rows x cols array") from e
            g.setflags(write=False)
            object.__setattr__(self, name, g)
        if self.g1.ndim != 2 or self.g1.shape != self.g2.shape:
            raise DomainError("g1 and g2 must be rows x cols arrays of one shape")
        if self.rows < 1 or self.cols < 1:
            raise DomainError("array needs at least 1 row and 1 column")
        if not (0.0 < self.sense_frac < 1.0):
            raise DomainError("sense_frac must lie in (0, 1)")
        if self.variant not in ("mosfet", "ts"):
            raise DomainError(f"unknown variant {self.variant!r}")
        if self.variant == "ts" and self.ts_params is None:
            raise DomainError("ts variant requires ts_params")
        if self.t_sense <= 0 or self.v_precharge <= 0:
            raise DomainError("t_sense and v_precharge must be positive")

    @property
    def rows(self) -> int:
        return self.g1.shape[0]

    @property
    def cols(self) -> int:
        return self.g1.shape[1]

    @property
    def c_ml_total(self) -> float:
        return self.cols * self.parasitics.c_ml + self.c_sense

    def conductance_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        return self.g1, self.g2


def make_array(cells, variant: str = "mosfet",
               ts_params: TsDeviceParams | None = None, **kwargs) -> ArraySpec:
    """Array storing a nested list of CellConfig (one list per row)."""
    if variant == "ts" and ts_params is None:
        ts_params = TsDeviceParams()
    return ArraySpec(g1=[[c.g_m1 for c in row] for row in cells],
                     g2=[[c.g_m2 for c in row] for row in cells],
                     variant=variant, ts_params=ts_params, **kwargs)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def match_threshold_conductance(a: ArraySpec) -> float:
    """Row conductance at which the ML just reaches the sense level at t_sense."""
    if a.variant == "mosfet":
        return a.c_ml_total * math.log(1.0 / a.sense_frac) / a.t_sense
    return a.c_ml_total * math.log(1.0 / (1.0 - a.sense_frac)) / a.t_sense


def _check_stimuli(a: ArraySpec, stimuli) -> np.ndarray:
    stimuli = np.atleast_2d(np.asarray(stimuli, dtype=float))
    if stimuli.shape[1] != a.cols:
        raise DomainError(
            f"stimulus length {stimuli.shape[1]} does not match {a.cols} columns")
    # written so that NaN fails the range check too
    if not np.all((stimuli >= 0.0) & (stimuli <= 1.0)):
        raise DomainError("stimulus voltages must be finite and lie in [0, 1] V")
    return stimuli


def _leg(v_g, variant: str, p: DeviceParams, tp: TsDeviceParams | None):
    """Conductance of one pull-down (or TS pull-up) leg at gate voltage ``v_g``."""
    if variant == "mosfet":
        return pulldown_conductance(v_g, p)
    return ts_conductance_off_curve(v_g, tp)


def _row_sum(a: ArraySpec, g1, g2, g_t, p: DeviceParams) -> np.ndarray:
    """Sum over the last (column) axis of both legs of every cell.

    ``g1``/``g2`` are the cells' memristor conductances and ``g_t`` the
    divider-transistor conductance at each cell's DL voltage, broadcast
    against each other. The M1 side drives its leg's gate directly, the M2
    side goes through the inverter.
    """
    v_g1 = p.v_slhi * g1 / (g1 + g_t)
    v_div2 = p.v_slhi * g2 / (g2 + g_t)
    v_g2 = inverter_output(v_div2, p)
    g_cell = (_leg(v_g1, a.variant, p, a.ts_params)
              + _leg(v_g2, a.variant, p, a.ts_params))
    return g_cell.sum(axis=-1)


def row_conductances(a: ArraySpec, stimuli: np.ndarray,
                     p: DeviceParams) -> np.ndarray:
    """Total ML pull-down (or pull-up) conductance per row: the full kernel.

    ``stimuli`` has shape (n_searches, cols); the result is (n_searches, rows).
    Per cell the two legs are evaluated from the divider midpoints: the M1
    side drives its pull-down gate directly, the M2 side goes through the
    inverter. The TS variant feeds the same two node voltages into the
    threshold-switching pull-ups (fresh OFF state each search). Every cell
    of every row is evaluated, so this is the oracle ``search_many`` is
    checked against.
    """
    stimuli = _check_stimuli(a, stimuli)
    g1, g2 = a.conductance_matrices()           # (rows, cols)
    g_t = transistor_conductance(stimuli, p)    # (n, cols)
    return _row_sum(a, g1, g2, g_t[:, None, :], p)


@functools.lru_cache(maxsize=64)
def _leg_gate_threshold(variant: str, tp: TsDeviceParams | None,
                        p: DeviceParams, k: float) -> tuple[float, float | None]:
    """Gate voltages ``(below, reach)`` either side of where a leg reaches ``k``.

    Bisection on the monotone leg curve over [0, v_slhi] to v_slhi / 2**40:
    the leg conducts less than ``k`` at gate voltages up to ``below`` (0.0
    when it reaches ``k`` at every positive voltage tried) and at least
    ``k`` from ``reach`` on. ``reach`` is None when the leg stays below
    ``k`` up to the rail, which is then ``below``. Cached: one array
    geometry gives the same ``k`` on every call.
    """
    if _leg(p.v_slhi, variant, p, tp) < k:
        return p.v_slhi, None
    lo, hi = 0.0, p.v_slhi
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if _leg(mid, variant, p, tp) >= k:
            hi = mid
        else:
            lo = mid
    return lo, hi


def _gate_bounds(g1: np.ndarray, g2: np.ndarray, v_g: float,
                 p: DeviceParams) -> tuple[np.ndarray, np.ndarray]:
    """Divider-transistor conductances putting each leg's gate at ``v_g``.

    The M1 gate is at or above ``v_g`` for ``g_t`` up to the first and at or
    below it from there on; the M2 gate, behind the inverter, is at or
    below ``v_g`` for ``g_t`` up to the second and at or above it from
    there on. A side that never crosses ``v_g`` gets ``inf``.
    """
    never = np.full(g1.shape, np.inf)
    b1 = g1 * (p.v_slhi / v_g - 1.0) if v_g > 0.0 else never
    v_d = p.v_th_inv - (v_g - p.v_th_inv) / p.inv_gain
    b2 = g2 * (p.v_slhi / v_d - 1.0) if v_d > 0.0 else never
    return b1, b2


def _prune_thresholds(a: ArraySpec, g1: np.ndarray, g2: np.ndarray,
                      p: DeviceParams) -> tuple[np.ndarray, ...]:
    """Per-cell divider-transistor conductances that settle a row alone.

    Returns ``(t1, t2, u1, u2)``. A cell with ``g_t <= t1`` drives its M1
    leg to at least ``PRUNE_FACTOR * G_th``, and one with ``g_t >= t2``
    pulls its M2 divider low enough that the inverter does the same:
    either way its row mismatches. A cell with ``u1 <= g_t <= u2`` keeps
    both legs below ``k_a = G_th / (PRUNE_FACTOR * 2 * cols)``; a row of
    such cells conducts less than ``G_th / PRUNE_FACTOR`` and matches.
    """
    g_th = match_threshold_conductance(a)
    _, reach = _leg_gate_threshold(a.variant, a.ts_params, p,
                                   PRUNE_FACTOR * g_th)
    below, _ = _leg_gate_threshold(a.variant, a.ts_params, p,
                                   g_th / (PRUNE_FACTOR * 2 * a.cols))
    never = np.full(g1.shape, np.inf)
    t1, t2 = (-never, never) if reach is None else _gate_bounds(g1, g2, reach, p)
    u1, u2 = _gate_bounds(g1, g2, below, p)
    return t1, t2, u1, u2


def _column_bins(t1: np.ndarray, t2: np.ndarray, u1: np.ndarray,
                 u2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted distinct edges of one column and its row flags in every bin.

    A row is live at ``g_t`` when ``t1 < g_t < t2`` and quiet when also
    ``u1 <= g_t <= u2`` (all four are per-row vectors). Each flag turns at
    one of the edges ``nextafter(t1, inf)``, ``t2``, ``u1`` and
    ``nextafter(u2, inf)``, so it is constant from one sorted edge up to
    the next and equals the compares at the bin's lowest value (``-inf``
    for the first bin). ``live[searchsorted(edges, g_t, "right")]`` is
    then the strict compare bit for bit, and likewise ``quiet``: (edges +
    1, rows) tables. Duplicate edges would only add empty bins; dropping
    them shortens every search.
    """
    edges = np.sort(np.concatenate([np.nextafter(t1, np.inf), t2, u1,
                                    np.nextafter(u2, np.inf)]))
    edges = edges[np.append(True, edges[1:] != edges[:-1])]
    lows = np.append(-np.inf, edges)[:, None]
    live = (lows > t1) & (lows < t2)
    return edges, live, live & (lows >= u1) & (lows <= u2)


def _v_ml_at_sense(a: ArraySpec, g_row: np.ndarray) -> np.ndarray:
    x = g_row * a.t_sense / a.c_ml_total
    if a.variant == "mosfet":
        return a.v_precharge * np.exp(-x)
    return a.v_precharge * (1.0 - np.exp(-x))


def _matched(a: ArraySpec, v_ml: np.ndarray) -> np.ndarray:
    level = a.sense_frac * a.v_precharge
    if a.variant == "mosfet":
        return v_ml >= level  # exactly at threshold counts as a match
    return v_ml < level


def _crossing_latency(a: ArraySpec, g_row: float) -> float | None:
    """Time for the ML to cross the sense level, or None if it never does.

    The per-cell ML wire resistance is folded in as a series term (stimulus
    applied at the node farthest from the sense node, the worst case); it
    affects latency only, never the match decision.
    """
    if g_row <= 0.0:
        return None
    if a.variant == "mosfet":
        log_term = math.log(1.0 / a.sense_frac)
    else:
        log_term = math.log(1.0 / (1.0 - a.sense_frac))
    r_wire = a.cols * a.parasitics.r_ml
    return a.c_ml_total * log_term * (1.0 / g_row + r_wire)


def search(a: ArraySpec, stimulus, p: DeviceParams) -> SearchResult:
    """Search one stimulus word against every row of the array.

    Rows are independent: each row's result is a pure function of its own
    cells, the stimulus, and the shared ML capacitance.
    """
    stimulus = np.asarray(stimulus, dtype=float)
    if stimulus.ndim != 1:
        raise DomainError("stimulus must be a flat voltage vector")
    g_row = row_conductances(a, stimulus[None, :], p)[0]
    v_ml = _v_ml_at_sense(a, g_row)
    matched = _matched(a, v_ml)
    rows = []
    for r in range(a.rows):
        lat = None
        if not matched[r]:
            lat = _crossing_latency(a, float(g_row[r]))
        rows.append(RowResult(matched=bool(matched[r]),
                              v_ml_at_sense=float(v_ml[r]), latency=lat))
    return SearchResult(rows=tuple(rows))


def search_many(a: ArraySpec, stimuli, p: DeviceParams) -> np.ndarray:
    """Vectorized match decisions: (n_searches, cols) -> (n_searches, rows) bools.

    The decisions equal the full kernel's, ``_matched`` applied to
    :func:`row_conductances`, bit for bit; most rows are decided without it.
    A row's conductance is a sum of non-negative leg conductances, and
    each leg is monotone in the divider-transistor conductance ``g_t`` of
    its column (the M1 leg falls with it, the M2 leg rises through the
    inverter). So threshold compares on ``g_t`` put every (input, row)
    pair in one of three states:

    - rejected: one leg reaches ``PRUNE_FACTOR * G_th``, so the sum is past
      the sense threshold whatever the other legs do, and the row
      mismatches (``g_t <= t1`` or ``g_t >= t2`` in one column);
    - accepted: not rejected, and every leg of the row conducts less than
      ``G_th / (PRUNE_FACTOR * 2 * cols)``, so the row conducts less than
      ``G_th / PRUNE_FACTOR`` and matches (``u1 <= g_t <= u2`` in every
      column);
    - ambiguous: neither. Only these pairs go through the electrical
      kernel, with the same float arithmetic as :func:`row_conductances`.

    The factor ``PRUNE_FACTOR`` on either side dwarfs any rounding error.
    When ``PRUNE_FACTOR * G_th`` is beyond a leg's maximum (very long
    words), no row is rejected. Per column, the four thresholds of all rows
    are sorted once into edges with a table of the live and quiet rows
    between each pair (:func:`_column_bins`): one ``searchsorted`` and
    one row gather per input and column give the flags. The tables pay off
    only for more inputs than a column has bins (``4 * rows + 1``), and
    they grow with rows squared; for fewer inputs, or tables past
    ``CHUNK_ELEMENTS`` flags (about 256 / sqrt(cols) rows), the same
    compares are made directly, column by column.

    Inputs are processed in chunks of at most ``CHUNK_ELEMENTS`` input x row
    x column elements (one input when a single word exceeds it), and the
    kernel takes their ambiguous pairs in slices of at most
    ``CHUNK_ELEMENTS // cols``, so memory stays bounded even when every
    pair is ambiguous.
    """
    stimuli = _check_stimuli(a, stimuli)
    g1, g2 = a.conductance_matrices()               # (rows, cols)
    bounds = _prune_thresholds(a, g1, g2, p)        # t1, t2, u1, u2
    columns = None
    bins = 4 * a.rows + 1                           # per column, at most
    if bins <= stimuli.shape[0] and bins * a.rows * a.cols <= CHUNK_ELEMENTS:
        columns = [_column_bins(*(b[:, c] for b in bounds))
                   for c in range(a.cols)]
    t1, t2, u1, u2 = (b.T.copy() for b in bounds)   # (cols, rows)
    out = np.zeros((stimuli.shape[0], a.rows), dtype=bool)
    step = max(1, CHUNK_ELEMENTS // (a.rows * a.cols))
    pair_step = max(1, CHUNK_ELEMENTS // a.cols)
    for start in range(0, stimuli.shape[0], step):
        g_t = transistor_conductance(stimuli[start:start + step], p)  # (m, cols)
        if columns is None:
            live = quiet = True
            for c in range(a.cols):
                g = g_t[:, c, None]
                live = live & (g > t1[c]) & (g < t2[c])
                quiet = quiet & (g >= u1[c]) & (g <= u2[c])
            quiet &= live
        else:
            live = quiet = True
            for (edges, live_c, quiet_c), g in zip(columns, g_t.T):
                b = np.searchsorted(edges, g, "right")
                live = live & live_c.take(b, axis=0)
                quiet = quiet & quiet_c.take(b, axis=0)
        out[start:start + g_t.shape[0]] = quiet
        i, r = np.divmod(np.flatnonzero(live & ~quiet), a.rows)
        # often none; slices bound the kernel's memory when a word is long
        for s in range(0, i.size, pair_step):
            ii, rr = i[s:s + pair_step], r[s:s + pair_step]
            g_row = _row_sum(a, g1[rr], g2[rr], g_t[ii], p)
            out[start + ii, rr] = _matched(a, _v_ml_at_sense(a, g_row))
    return out


def discharge_latency(a: ArraySpec, stimulus, row: int, p: DeviceParams) -> float:
    """Analytic ML crossing time for a mismatching row.

    Raises :class:`NoDischargeError` when the row matches (its ML never
    reaches the sense level by definition of the match).
    """
    if not (0 <= row < a.rows):
        raise DomainError(f"row {row} outside array")
    result = search(a, stimulus, p)
    if result.rows[row].matched:
        raise NoDischargeError(f"row {row} matches; its ML does not cross")
    return result.rows[row].latency


# ---------------------------------------------------------------------------
# in-array effective bounds and range shift
# ---------------------------------------------------------------------------

def _row_midpoints(a: ArraySpec, row: int, p: DeviceParams) -> np.ndarray:
    """Midpoints of the intervals stored in the cells of one row."""
    return np.array([bounds_from_conductance(CellConfig(g1, g2), p, a.variant,
                                             a.ts_params).mid
                     for g1, g2 in zip(a.g1[row].tolist(), a.g2[row].tolist())])


def _row_matches_at(a: ArraySpec, p: DeviceParams, row: int, col: int,
                    bias: np.ndarray, v: float) -> bool:
    stim = bias.copy()
    stim[col] = v
    return bool(search_many(a, stim[None, :], p)[0, row])


def effective_bounds_in_array(a: ArraySpec, row: int, col: int,
                              p: DeviceParams, step: float = 0.002,
                              bias: np.ndarray | None = None) -> VoltageInterval:
    """Matched sub-interval of one cell measured inside the array.

    All other columns are driven at the midpoint of their stored intervals
    (so they match); the chosen column is swept over [0, 1] V at ``step`` and
    the matched band's edges are then refined by bisection to 1 uV. This is
    the in-array, leakage-shifted range of the cell at (row, col).
    """
    if not (0 <= row < a.rows and 0 <= col < a.cols):
        raise DomainError("row/col outside array")
    if step <= 0:
        raise DomainError("step must be positive")
    bias = (_row_midpoints(a, row, p) if bias is None
            else np.asarray(bias, dtype=float))

    grid = np.arange(0.0, 1.0 + step / 2, step)
    stims = np.tile(bias, (len(grid), 1))
    stims[:, col] = grid
    matched = search_many(a, stims, p)[:, row]
    idx = np.nonzero(matched)[0]
    if len(idx) == 0:
        raise EmptyIntervalError(
            f"cell ({row}, {col}) matches nowhere on the sweep grid")

    def refine(v_match: float, v_miss: float) -> float:
        for _ in range(40):
            mid = 0.5 * (v_match + v_miss)
            if _row_matches_at(a, p, row, col, bias, mid):
                v_match = mid
            else:
                v_miss = mid
            if abs(v_match - v_miss) < 1e-6:
                break
        return v_match

    lo = grid[idx[0]]
    if idx[0] > 0:
        lo = refine(lo, grid[idx[0] - 1])
    hi = grid[idx[-1]]
    if idx[-1] < len(grid) - 1:
        hi = refine(hi, grid[idx[-1] + 1])
    return VoltageInterval(float(lo), float(hi))


def max_word_length(p: DeviceParams, margin_ratio: float) -> int:
    """Largest word length N with ``g_on > ((margin_ratio - 1) * N + 1) * g_off``.

    The match/mismatch margin on the ML pull-down path requires the single
    fully-on mismatch leg to dominate the accumulated leakage of N matching
    cells by the factor ``margin_ratio``; the ON/OFF conductance ratio of the
    pull-down transistor therefore caps the word length.
    """
    if margin_ratio <= 1.0:
        raise DomainError("margin_ratio must exceed 1")
    if p.g_off == 0.0:
        return MAX_WORD_LENGTH_CAP
    limit = (p.g_on / p.g_off - 1.0) / (margin_ratio - 1.0)
    # the bound is strict: an N landing exactly on the limit fails it
    snapped = round(limit)
    if abs(limit - snapped) <= 1e-6 * max(1.0, abs(limit)):
        n = snapped - 1
    else:
        n = math.floor(limit)
    return max(0, min(n, MAX_WORD_LENGTH_CAP))


def analytic_range_shift(n_cols: int, p: DeviceParams) -> float:
    """First-order estimate of the boundary shift caused by word-length leakage.

    The accumulated leakage of the other ``n_cols - 1`` cells lowers the
    conductance criterion seen by the boundary cell by ``(n_cols-1) * g_off``.
    Dividing by the boundary sensitivity S = dG/dV_DL, written from the
    sub-threshold slope as ``G_op * ln(10) / (alpha * swing)`` at the sense
    operating point ``G_op = sqrt(g_on * g_off)`` (the log-midpoint of the
    pull-down transition where match and mismatch are discriminated), gives
    the expected DL-referred shift in volts.
    """
    if n_cols < 1:
        raise DomainError("n_cols must be at least 1")
    if n_cols == 1 or p.g_off == 0.0:
        return 0.0
    g_op = math.sqrt(p.g_on * p.g_off)
    sensitivity = g_op * LN10 / (p.alpha * p.swing * 1e-3)  # S per volt of DL
    return (n_cols - 1) * p.g_off / sensitivity


# ---------------------------------------------------------------------------
# sweep data products
# ---------------------------------------------------------------------------

def sweep_column(a: ArraySpec, col: int, p: DeviceParams, step: float = 0.002,
                 bias: np.ndarray | None = None) -> list[tuple[float, int, float, bool]]:
    """Sweep one column's DL and record (v_dl, row, v_ml, matched) samples.

    Other columns sit at their stored-interval midpoints, the standard
    one-column-swept array characterization.
    """
    if not (0 <= col < a.cols):
        raise DomainError("col outside array")
    bias = (_row_midpoints(a, 0, p) if bias is None
            else np.asarray(bias, dtype=float))
    grid = np.arange(0.0, 1.0 + step / 2, step)
    stims = np.tile(bias, (len(grid), 1))
    stims[:, col] = grid
    g_row = row_conductances(a, stims, p)
    v_ml = _v_ml_at_sense(a, g_row)
    matched = _matched(a, v_ml)
    out = []
    for i, v in enumerate(grid):
        for r in range(a.rows):
            out.append((float(v), r, float(v_ml[i, r]), bool(matched[i, r])))
    return out
