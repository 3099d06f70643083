"""Array-level search: match-line discharge, leakage, latency and word length.

Each row's match line (ML) is precharged and then discharged through the
pull-down legs of all its cells; the row matches when the ML is still above
``sense_frac * V_PRECHARGE`` at the sense instant. The ML is a lumped RC:

    V_ML(t) = V_PRECHARGE * exp(-G_row * t / C_ML),   C_ML = cols*c_ml + c_sense

so the sense criterion is a row-conductance threshold
``G_th = C_ML * ln(1/sense_frac) / t_sense``: a row matches when
``G_row <= G_th``. Every match decision is made on ``G_th`` (``_matched``);
``V_ML`` at the sense instant is only reported. The batched searches equal
the full kernel ``row_conductances``, which ``discharge_latency`` reads
directly; ``sweep_column`` evaluates only its swept column on the grid and
equals the kernel bit for bit. Sub-threshold leakage of the matching cells
adds to G_row and slightly moves every stored boundary as the word gets
longer; ``effective_bounds_in_array`` measures that shift and
``analytic_range_shift`` estimates it from the sub-threshold sensitivity.

The ``ts`` variant replaces the pull-down transistors with volatile
threshold-switching pull-ups: the ML starts low and is charged on mismatch,
so the sense comparison is inverted: ``G_th = C_ML * ln(1/(1 - sense_frac))
/ t_sense``, and a row matches when ``G_row < G_th``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .cell import VoltageInterval, bounds_from_conductance
from .devices import (DeviceParams, TsDeviceParams, _bisect,
                      _divider_midpoint, _divider_transistor, _inverter_input,
                      _reach_voltages, inverter_output, pulldown_conductance,
                      transistor_conductance, ts_conductance_off_curve)
from .errors import (DomainError, EmptyIntervalError, NoDischargeError)

MAX_WORD_LENGTH_CAP = 2 ** 31 - 1
# Match-line precharge level (V); it scales V_ML only, not the G_th decision.
V_PRECHARGE = 0.8
LN10 = math.log(10.0)

# search_words rejects a row without the electrical kernel when one cell leg
# alone conducts at least PRUNE_FACTOR * G_th, and accepts one when every leg
# conducts at most G_th / (PRUNE_FACTOR * 2 * cols). The factor is a rounding
# margin: it dwarfs any floating-point error in the divider, inverter and
# threshold arithmetic, so the full kernel decides such a row the same way.
PRUNE_FACTOR = 2.0
# Input x row x column elements search_words handles per chunk of inputs, which
# bounds its working memory whatever the batch size.
CHUNK_ELEMENTS = 2 ** 18
# Input x row x column elements from which a search_words batch builds the
# lookup tables rather than comparing on g_t directly (the crossover of the
# 38 x 4 tree table lies near 2**16, that of the 6 x 4 reference rule near
# 2**15).
LOOKUP_MIN_ELEMENTS = 2 ** 15
# A set of rows is packed into words of this type: row r is bit r % 64 of
# word r // 64 (search_words).
WORD = np.dtype("<u8")
# Grid points a sweep over [0, 1] V may hold (10 uV steps; 1 nV would take TiB).
MAX_SWEEP_POINTS = 100_001


@dataclass(frozen=True)
class Parasitics:
    """Per-cell match-line parasitics (ohms, farads) extracted from layout."""

    r_ml: float = 1.91
    c_ml: float = 0.227e-15

    def __post_init__(self):
        for name in ("r_ml", "c_ml"):
            if getattr(self, name) < 0:
                raise DomainError(f"parasitic {name} must be non-negative")


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
    t_sense: float = 100e-12
    sense_frac: float = 0.5
    variant: str = "mosfet"  # "mosfet" (pull-down) or "ts" (pull-up)
    ts_params: TsDeviceParams | None = None  # ts: TsDeviceParams() if None
    c_sense: float = 1e-15  # fixed sense-node capacitance (F)
    # (p, per-column prune thresholds, per-column lookup tables in DL volts
    # or None) of the last search_words call; they depend only on p and
    # the fields above
    _tables: tuple | None = field(default=None, init=False, repr=False,
                                  compare=False)

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
            object.__setattr__(self, "ts_params", TsDeviceParams())
        if self.t_sense <= 0:
            raise DomainError("t_sense must be positive")

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


def _cell_legs(a: ArraySpec, g1, g2, g_t, p: DeviceParams) -> np.ndarray:
    """Conductance of both legs of every cell, before any column reduction.

    ``g1``/``g2`` are the cells' memristor conductances and ``g_t`` the
    divider-transistor conductance at each cell's DL voltage, broadcast
    against each other. The M1 side drives its leg's gate directly, the M2
    side goes through the inverter.
    """
    v_g1 = _divider_midpoint(g1, g_t, p)
    v_g2 = inverter_output(_divider_midpoint(g2, g_t, p), p)
    return (_leg(v_g1, a.variant, p, a.ts_params)
            + _leg(v_g2, a.variant, p, a.ts_params))


def _row_sum(a: ArraySpec, g1, g2, g_t, p: DeviceParams) -> np.ndarray:
    """:func:`_cell_legs` summed over the last (column) axis."""
    return _cell_legs(a, g1, g2, g_t, p).sum(axis=-1)


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
    return tuple(map(float, _bisect(lambda v: _leg(v, variant, p, tp) < k,
                                    0.0, p.v_slhi, 40)))


def _gate_bounds(g1: np.ndarray, g2: np.ndarray, v_g: float,
                 p: DeviceParams) -> tuple[np.ndarray, np.ndarray]:
    """Divider-transistor conductances putting each leg's gate at ``v_g``.

    The M1 gate is at or above ``v_g`` for ``g_t`` up to the first and at or
    below it from there on; the M2 gate, behind the inverter, is at or
    below ``v_g`` for ``g_t`` up to the second and at or above it from
    there on. A side that never crosses ``v_g`` gets ``inf``.
    """
    never = np.full(g1.shape, np.inf)
    b1 = _divider_transistor(g1, v_g, p) if v_g > 0.0 else never
    v_d = _inverter_input(v_g, p)
    b2 = _divider_transistor(g2, v_d, p) if v_d > 0.0 else never
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
    """Sorted distinct edges of all columns and each column's packed row
    flags in every bin between them.

    ``t1``, ``t2``, ``u1`` and ``u2`` are (cols, rows). In a column, a row
    is live at ``g_t`` when ``t1 < g_t < t2`` and quiet when also ``u1 <=
    g_t <= u2``. Each flag turns at one of the edges ``nextafter(t1, inf)``,
    ``t2``, ``u1`` and ``nextafter(u2, inf)``, so on the bins between the
    sorted edges of every column it holds on one run of bins, from the bin
    its rising edge opens up to the one its falling edge opens. With ``b =
    searchsorted(edges, g_t, "right")``, ``live[c, b]`` and ``quiet[c, b]``
    are the strict compares in column ``c``, packed, bit for bit. Returns
    edges (k,) and live and quiet (cols, k + 1, words). Each run is set by
    XOR at its two ends and a running XOR over the bins, for all columns in
    one pass.
    """
    cols, rows = t1.shape
    ends = np.concatenate([np.nextafter(t1, np.inf), t2, u1,
                           np.nextafter(u2, np.inf)], axis=1)
    edges = np.sort(ends, axis=None)
    edges = edges[np.append(True, edges[1:] != edges[:-1])]
    # the bin an edge opens: one past the edges below it (bin 0 is below all)
    opens = np.searchsorted(edges, ends) + (ends > -np.inf)
    live_on, live_off, quiet_on, quiet_off = (
        opens[:, k * rows:(k + 1) * rows] for k in range(4))
    quiet_on = np.maximum(quiet_on, live_on)
    quiet_off = np.maximum(np.minimum(quiet_off, live_off), quiet_on)
    at = np.stack([[live_on, np.maximum(live_off, live_on)],
                   [quiet_on, quiet_off]])              # (2, 2, cols, rows)
    flips = np.zeros((2, cols, len(edges) + 2, -(-rows // 64)), dtype=WORD)
    row = np.arange(rows)
    np.bitwise_xor.at(flips, (np.arange(2)[:, None, None, None],
                              np.arange(cols)[:, None], at, row // 64),
                      WORD.type(1) << (row % 64).astype(WORD))
    live, quiet = np.bitwise_xor.accumulate(flips[:, :, :-1], axis=2)
    return edges, live, quiet


def _v_ml_at_sense(a: ArraySpec, g_row: np.ndarray) -> np.ndarray:
    x = g_row * a.t_sense / a.c_ml_total
    if a.variant == "mosfet":
        return V_PRECHARGE * np.exp(-x)
    return V_PRECHARGE * (1.0 - np.exp(-x))


def _matched(a: ArraySpec, g_row: np.ndarray) -> np.ndarray:
    """Match decisions from row conductances: the one sense rule."""
    g_th = match_threshold_conductance(a)
    if a.variant == "mosfet":
        return g_row <= g_th  # exactly at threshold counts as a match
    return g_row < g_th


def _crossing_latency(a: ArraySpec, g_row: float) -> float | None:
    """Time for the ML to cross the sense level, or None if it never does.

    The per-cell ML wire resistance is folded in as a series term (stimulus
    applied at the node farthest from the sense node, the worst case); it
    affects latency only, never the match decision.
    """
    if g_row <= 0.0:
        return None
    r_wire = a.cols * a.parasitics.r_ml
    return match_threshold_conductance(a) * a.t_sense * (1.0 / g_row + r_wire)


def _pack(bits: np.ndarray) -> np.ndarray:
    """(n, rows) bools as (n, ceil(rows / 64)) ``WORD`` row sets."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    out = np.zeros((bits.shape[0], -(-bits.shape[1] // 64) * 8), dtype=np.uint8)
    out[:, :packed.shape[1]] = packed
    return out.view(WORD)


def _unpack(words: np.ndarray, rows: int) -> np.ndarray:
    """(n, words) ``WORD`` row sets as (n, rows) bools."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=rows,
                         bitorder="little").view(bool)


def _single_rows(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per (n, words) row set, its row if it holds exactly one (else 0), and
    whether it does: exactly one word is nonzero and has one bit set."""
    wt = np.ascontiguousarray(words.T)  # reductions over words run per row
    nonzero = wt != 0
    w = np.bitwise_or.reduce(wt, axis=0)  # the nonzero word, when just one
    good = (nonzero.sum(axis=0) == 1) & (w & (w - 1) == 0)
    word = (nonzero * np.arange(len(wt))[:, None]).sum(axis=0)
    return np.where(good, 64 * word + np.frexp(w)[1] - 1, 0), good


def _search_tables(a: ArraySpec, p: DeviceParams, lookup: bool):
    """Prune thresholds ``(t1, t2, u1, u2)``, each (cols, rows), and with
    ``lookup`` one lookup table ``(edges, live, quiet)`` per column from
    :func:`_column_bins`, its edges mapped to DL volts (else None). Built
    once per ``p`` and kept on the spec."""
    if a._tables is None or a._tables[0] != p:
        bounds = tuple(b.T.copy() for b in _prune_thresholds(a, a.g1, a.g2, p))
        object.__setattr__(a, "_tables", (p, bounds, None))
    _, bounds, columns = a._tables
    if lookup and columns is None:
        edges, live, quiet = _column_bins(*bounds)
        v_edges = _reach_voltages(edges, p)
        # each column keeps only the edges its flags turn at, which shortens
        # every search of it
        turns = ((live[:, 1:] != live[:, :-1])
                 | (quiet[:, 1:] != quiet[:, :-1])).any(axis=2)
        columns = []
        for turn, live_c, quiet_c in zip(turns, live, quiet):
            k = np.flatnonzero(turn)
            b = np.append(0, k + 1)
            columns.append((v_edges[k], live_c[b], quiet_c[b]))
        object.__setattr__(a, "_tables", (p, bounds, columns))
    return bounds, columns if lookup else None


def search_words(a: ArraySpec, stimuli, p: DeviceParams) -> np.ndarray:
    """Matched rows of every stimulus as packed row sets.

    ``stimuli`` is (n_searches, cols); the result is (n_searches,
    ceil(rows / 64)) words of type ``WORD`` (little-endian uint64), where
    row ``r`` is bit ``r % 64`` of word ``r // 64``.

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
    words), no row is rejected. The live (not rejected) and quiet
    (accepted) rows of an input are row sets, ANDed across columns as in
    bit-vector packet classification. The four thresholds of every cell
    are sorted once into edges, with each column's packed live and quiet
    row sets between each pair (:func:`_column_bins`); each column keeps
    the edges its sets change at. ``g_t`` never decreases
    in the DL voltage, so each edge is kept as the smallest DL voltage at
    which ``g_t`` reaches it, and the stimulus volts are searched as given:
    one ``searchsorted`` and one word gather per input and column give the
    flags, and ``g_t`` is evaluated only for the inputs with an ambiguous
    pair, for the kernel. The tables pay off only for batches of at least
    ``LOOKUP_MIN_ELEMENTS`` input x row x column elements and more inputs
    than a column has thresholds (``4 * rows``). For fewer, or when the
    packed tables of all columns could pass ``CHUNK_ELEMENTS``, the same
    compares are made directly on ``g_t``, column by column, and packed.
    Thresholds and tables are kept on the spec for the last ``p`` searched
    with.

    Inputs are processed in chunks of at most ``CHUNK_ELEMENTS`` input x row
    x column elements (one input when a single word exceeds it). Only the
    nonzero words of the ambiguous sets are unpacked to (input, row) pairs,
    and the kernel takes them in slices of at most ``CHUNK_ELEMENTS //
    cols``, so memory stays bounded even when every pair is ambiguous.
    """
    stimuli = _check_stimuli(a, stimuli)
    n = stimuli.shape[0]
    n_words = -(-a.rows // 64)
    bins = 4 * a.rows * a.cols + 1                  # at most
    lookup = (n > 4 * a.rows and n * a.rows * a.cols >= LOOKUP_MIN_ELEMENTS
              and 2 * bins * n_words * a.cols <= CHUNK_ELEMENTS)
    (t1, t2, u1, u2), columns = _search_tables(a, p, lookup)
    g1, g2 = a.conductance_matrices()               # (rows, cols)
    out = np.zeros((n, n_words), dtype=WORD)
    step = max(1, CHUNK_ELEMENTS // (a.rows * a.cols))
    pair_step = max(1, CHUNK_ELEMENTS // a.cols)
    for start in range(0, n, step):
        v = stimuli[start:start + step]             # (m, cols)
        if columns is None:
            g_t = transistor_conductance(v, p)
            live = quiet = True
            for c in range(a.cols):
                g = g_t[:, c, None]
                live = live & (g > t1[c]) & (g < t2[c])
                quiet = quiet & (g >= u1[c]) & (g <= u2[c])
            live, quiet = _pack(live), _pack(quiet & live)
        else:
            g_t = None                              # no input converted yet
            live = quiet = WORD.type(2 ** 64 - 1)   # every row
            for (v_edges, live_c, quiet_c), v_c in zip(columns, v.T):
                b = np.searchsorted(v_edges, v_c, "right")
                live = live & live_c.take(b, axis=0)
                quiet = quiet & quiet_c.take(b, axis=0)
        out[start:start + len(v)] = quiet
        ambiguous = live & ~quiet
        w = np.flatnonzero(ambiguous)               # often none
        if w.size == 0:
            continue
        j, bit = np.nonzero(_unpack(ambiguous.reshape(-1)[w, None], 64))
        i, word = np.divmod(w[j], n_words)
        r = word * 64 + bit
        if g_t is None:  # only the inputs the kernel takes
            some = np.zeros(len(v), dtype=bool)
            some[i] = True
            g_t = np.empty(v.shape)
            g_t[some] = transistor_conductance(v[some], p)
        # slices bound the kernel's memory when a word is long
        for s in range(0, i.size, pair_step):
            ii, rr = i[s:s + pair_step], r[s:s + pair_step]
            hit = _matched(a, _row_sum(a, g1[rr], g2[rr], g_t[ii], p))
            ii, rr = ii[hit], rr[hit]
            np.bitwise_or.at(out, (start + ii, rr // 64),
                             WORD.type(1) << (rr % 64).astype(WORD))
    return out


def search_many(a: ArraySpec, stimuli, p: DeviceParams) -> np.ndarray:
    """Vectorized match decisions: (n_searches, cols) -> (n_searches, rows) bools.

    The row sets of :func:`search_words`, unpacked; the decisions equal the
    full kernel's, ``_matched`` applied to :func:`row_conductances`.
    """
    return _unpack(search_words(a, stimuli, p), a.rows)


def discharge_latency(a: ArraySpec, stimulus, row: int, p: DeviceParams) -> float:
    """Analytic ML crossing time of ``row`` for one stimulus word.

    Raises :class:`NoDischargeError` when the row matches (its ML never
    reaches the sense level by definition of the match).
    """
    if not (0 <= row < a.rows):
        raise DomainError(f"row {row} outside array")
    stimulus = np.asarray(stimulus, dtype=float)
    if stimulus.ndim != 1:
        raise DomainError("stimulus must be a flat voltage vector")
    g_row = row_conductances(a, stimulus[None, :], p)[0, row]
    if _matched(a, g_row):
        raise NoDischargeError(f"row {row} matches; its ML does not cross")
    return _crossing_latency(a, float(g_row))


# ---------------------------------------------------------------------------
# in-array effective bounds and range shift
# ---------------------------------------------------------------------------

def _column_sweep(a: ArraySpec, row: int, col: int, p: DeviceParams,
                  step: float) -> tuple[np.ndarray, np.ndarray]:
    """Grid over [0, 1] V at ``step``, and one stimulus per grid point.

    Each stimulus holds the midpoints of the intervals stored in ``row``,
    with column ``col`` at the grid voltage.
    """
    if not (0 <= row < a.rows and 0 <= col < a.cols):
        raise DomainError("row/col outside array")
    if not (0 < step < math.inf):  # NaN fails it too
        raise DomainError("step must be positive")
    if step < 1 / (MAX_SWEEP_POINTS - 1):
        raise DomainError(f"step must be at least {1 / (MAX_SWEEP_POINTS - 1):g} "
                          f"V: a sweep holds at most {MAX_SWEEP_POINTS} grid points")
    lo, hi = bounds_from_conductance(a.g1[row], a.g2[row], p, a.variant,
                                     a.ts_params)
    grid = np.arange(0.0, 1.0 + step / 2, step)
    grid = grid[grid <= 1.0]  # arange can overshoot 1 V by up to step / 2
    stims = np.tile(0.5 * (lo + hi), (len(grid), 1))
    stims[:, col] = grid
    return grid, stims


def effective_bounds_in_array(a: ArraySpec, row: int, col: int,
                              p: DeviceParams, step: float = 0.002) -> VoltageInterval:
    """Matched sub-interval of one cell measured inside the array.

    All other columns are driven at the midpoint of their stored intervals
    (so they match); the chosen column is swept over [0, 1] V at ``step`` and
    the matched band's edges are then refined by bisection to 1 uV. This is
    the in-array, leakage-shifted range of the cell at (row, col).
    """
    grid, stims = _column_sweep(a, row, col, p, step)
    idx = np.nonzero(search_many(a, stims, p)[:, row])[0]
    if len(idx) == 0:
        raise EmptyIntervalError(
            f"cell ({row}, {col}) matches nowhere on the sweep grid")
    # both edges at once, each against the next grid point out (or itself)
    outside = grid[[max(idx[0] - 1, 0), min(idx[-1] + 1, len(grid) - 1)]]
    stim = np.repeat(stims[:1], 2, axis=0)  # re-used by every bisection step

    def matches(v: np.ndarray) -> np.ndarray:
        stim[:, col] = v
        return search_many(a, stim, p)[:, row]

    (lo, hi), _ = _bisect(matches, grid[idx[[0, -1]]], outside, 40, tol=1e-6)
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

def sweep_column(a: ArraySpec, col: int, p: DeviceParams, step: float = 0.002
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sweep one column's DL: the grid over [0, 1] V at ``step`` (n,), and
    ``v_ml`` at the sense instant and ``matched``, each (n, rows).

    Other columns sit at their stored-interval midpoints, the standard
    one-column-swept array characterization. Only the swept column is
    evaluated on the grid: the legs of the other columns are evaluated
    once, at that bias, and every grid point sums the same (rows, cols)
    legs in the same order as :func:`row_conductances` on
    :func:`_column_sweep`'s stimuli, its oracle, so ``v_ml`` and
    ``matched`` equal the full kernel's bit for bit.
    """
    grid, stims = _column_sweep(a, 0, col, p, step)
    bias = _check_stimuli(a, stims[:1])[0]          # grid is in [0, 1] V
    g_cell = np.empty((len(grid), a.rows, a.cols))
    g_cell[:] = _cell_legs(a, a.g1, a.g2, transistor_conductance(bias, p), p)
    g_cell[:, :, col] = _cell_legs(a, a.g1[:, col], a.g2[:, col],
                                   transistor_conductance(grid, p)[:, None], p)
    g_row = g_cell.sum(axis=-1)
    return grid, _v_ml_at_sense(a, g_row), _matched(a, g_row)
