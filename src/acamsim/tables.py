"""Compile integer range rules into multi-bit CAM tables.

An analog CAM cell stores a base-2^k digit: an exact value, a sub-range
{n-m}, or a full wildcard. Ranges are decomposed by peeling boundary digits
from the least-significant side of both ends and emitting one wildcard-bodied
row for the middle, which compresses rows and columns at once. A ternary
(TCAM) table is the 1-bit case: each cell holds 0, 1 or X, and the rows are
the minimal cover of the range by disjoint prefixes. ``lower_to_conductances``
maps a digit table onto programmable conductance pairs through a discrete
level family.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .cell import (CellConfig, DeviceParams, VoltageInterval,
                   achievable_window, conductance_from_bounds, quantize_levels)
from .devices import TsDeviceParams
from .errors import DomainError


@dataclass(frozen=True)
class RangeRule:
    """Inclusive integer range [lo, hi] over a fixed-width unsigned field."""

    lo: int
    hi: int
    width_bits: int
    label: str = ""

    def __post_init__(self):
        if self.width_bits < 1:
            raise DomainError("width_bits must be at least 1")
        if not (0 <= self.lo <= self.hi < (1 << self.width_bits)):
            raise DomainError(
                f"range [{self.lo}, {self.hi}] not representable in "
                f"{self.width_bits} bits")


@dataclass(frozen=True)
class DigitSpec:
    """One base-2^k cell: exact value, sub-range {lo-hi}, or wildcard."""

    lo: int
    hi: int
    base: int

    def __post_init__(self):
        if not (0 <= self.lo <= self.hi < self.base):
            raise DomainError(
                f"digit range [{self.lo}, {self.hi}] invalid for base {self.base}")

    @classmethod
    def exact(cls, value: int, base: int) -> "DigitSpec":
        return cls(value, value, base)

    @classmethod
    def wildcard(cls, base: int) -> "DigitSpec":
        return cls(0, base - 1, base)

    @property
    def is_wildcard(self) -> bool:
        return self.lo == 0 and self.hi == self.base - 1

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def matches(self, digit: int) -> bool:
        return self.lo <= digit <= self.hi

    def symbol(self) -> str:
        if self.is_wildcard:
            return "X"
        if self.is_exact:
            return str(self.lo)
        return f"{{{self.lo}-{self.hi}}}"


@dataclass(frozen=True)
class DigitWord:
    """Fixed-width word of DigitSpec cells, most-significant digit first."""

    digits: tuple[DigitSpec, ...]

    def __len__(self):
        return len(self.digits)

    def matches(self, value: int, bits_per_cell: int) -> bool:
        n = len(self.digits)
        for i, spec in enumerate(self.digits):
            shift = bits_per_cell * (n - 1 - i)
            digit = (value >> shift) & ((1 << bits_per_cell) - 1)
            if not spec.matches(digit):
                return False
        return True


@dataclass(frozen=True)
class IntervalWord:
    """Row of directly stored analog intervals (continuous mode, one per column)."""

    intervals: tuple[VoltageInterval, ...]

    def __len__(self):
        return len(self.intervals)


@dataclass(frozen=True)
class CamTable:
    """Compiled CAM content: rows of words plus their labels.

    ``bits_per_cell`` is None for continuous-interval tables and 1 for
    ternary ones. Labels live beside the rows, standing in for the companion
    RAM that the matching row would address.
    """

    rows: tuple  # of (DigitWord | IntervalWord, label)
    width_bits: int | None = None
    bits_per_cell: int | None = None

    def __post_init__(self):
        widths = {len(word) for word, _ in self.rows}
        if len(widths) > 1:
            raise DomainError(f"rows have mixed widths {sorted(widths)}")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0][0]) if self.rows else 0

    @property
    def n_cells(self) -> int:
        return self.n_rows * self.n_cols

    def labels(self) -> tuple:
        return tuple(label for _, label in self.rows)


# ---------------------------------------------------------------------------
# range -> base-2^k digits (symmetric peel)
# ---------------------------------------------------------------------------

def _digits(value: int, bits: int, length: int) -> list[int]:
    """``value`` as ``length`` base-``2**bits`` digits, most-significant first."""
    mask = (1 << bits) - 1
    return [value >> bits * k & mask for k in range(length - 1, -1, -1)]


def range_to_digits(r: RangeRule, bits_per_cell: int) -> list[DigitWord]:
    """Digit-interval decomposition of [lo, hi] in base ``2**bits_per_cell``.

    Works least-significant digit first, symmetrically: when the low end is
    not digit-aligned a row with an exact prefix and a {d..base-1} boundary
    cell is peeled off (and likewise {0..d} at the high end), then the next
    digit position is processed; the final row covers the aligned middle
    with wildcards in all lower positions. Disjoint rows, exact coverage,
    ``ceil(width_bits / bits_per_cell)`` digits wide (zero-padded on top).
    """
    if not (1 <= bits_per_cell <= r.width_bits):
        raise DomainError("bits_per_cell must lie in [1, width_bits]")
    base = 1 << bits_per_cell
    n_digits = -(-r.width_bits // bits_per_cell)

    def make_row(prefix: list[int], d_lo: int, d_hi: int, n_x: int) -> DigitWord:
        digits = ([DigitSpec.exact(d, base) for d in prefix]
                  + [DigitSpec(d_lo, d_hi, base)]
                  + [DigitSpec.wildcard(base)] * n_x)
        return DigitWord(tuple(digits))

    rows_low: list[DigitWord] = []
    rows_high: list[DigitWord] = []
    lo, hi = r.lo, r.hi
    level = 0
    while level < n_digits:
        # prefixes above the current digit position
        lo_prefix, lo_digit = lo // base, lo % base
        hi_prefix, hi_digit = hi // base, hi % base
        remaining = n_digits - level - 1
        if lo_prefix == hi_prefix:
            rows_low.append(make_row(_digits(lo_prefix, bits_per_cell, remaining),
                                     lo_digit, hi_digit, level))
            break
        if lo_digit != 0:
            rows_low.append(make_row(_digits(lo_prefix, bits_per_cell, remaining),
                                     lo_digit, base - 1, level))
            lo_prefix += 1
        if hi_digit != base - 1:
            rows_high.append(make_row(_digits(hi_prefix, bits_per_cell, remaining),
                                      0, hi_digit, level))
            hi_prefix -= 1
        if lo_prefix > hi_prefix:
            break
        lo, hi = lo_prefix, hi_prefix
        level += 1
    return rows_low + rows_high[::-1]


def compile_rules(rules, bits_per_cell: int) -> CamTable:
    """Compile rules into one table, rows concatenated in rule order
    (a ternary table when ``bits_per_cell`` is 1)."""
    rows = []
    width = None
    for r in rules:
        if width is None:
            width = r.width_bits
        elif r.width_bits != width:
            raise DomainError("all rules in one table must share width_bits")
        rows.extend((word, r.label) for word in range_to_digits(r, bits_per_cell))
    return CamTable(rows=tuple(rows), width_bits=width, bits_per_cell=bits_per_cell)


# ---------------------------------------------------------------------------
# lowering to conductances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelFamily:
    """Discrete level geometry used to store digit cells as analog intervals.

    ``levels[i]`` is the match interval of level ``i``.
    """

    levels: tuple[VoltageInterval, ...]
    window: VoltageInterval

    @functools.cached_property
    def voltages(self) -> tuple[float, ...]:
        """Input voltage addressing each level (its midpoint), computed once."""
        pitch = self.window.width / self.n_levels
        return tuple(self.window.lo + (i + 0.5) * pitch
                     for i in range(self.n_levels))

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def digit_interval(self, spec: DigitSpec) -> VoltageInterval:
        if spec.base > self.n_levels:
            raise DomainError(
                f"digit base {spec.base} exceeds {self.n_levels}-level family")
        if spec.is_wildcard:
            return self.window
        return VoltageInterval(self.levels[spec.lo].lo, self.levels[spec.hi].hi)


def default_level_family(n_levels: int, p: DeviceParams,
                         variant: str = "mosfet",
                         ts: TsDeviceParams | None = None) -> LevelFamily:
    """Level family over the achievable window with a guard of 20% of pitch."""
    window = achievable_window(p, variant, ts)
    pitch = window.width / n_levels
    guard = min(0.2 * pitch, 0.006)
    return LevelFamily(levels=tuple(quantize_levels(n_levels, window, guard)),
                       window=window)


def family_to_json_dict(f: LevelFamily) -> dict:
    return {
        "window": {"lo_V": f.window.lo, "hi_V": f.window.hi},
        "n_levels": f.n_levels,
        "levels": [{"index": i, "lo_V": lv.lo, "hi_V": lv.hi}
                   for i, lv in enumerate(f.levels)],
    }


def family_from_json_dict(doc: dict) -> LevelFamily:
    """Inverse of :func:`family_to_json_dict`. Raises ValueError unless the
    level indices run 0 .. n_levels - 1 in order."""
    if [lv["index"] for lv in doc["levels"]] != list(range(doc["n_levels"])):
        raise ValueError("level indices must run 0 .. n_levels - 1 in order")
    levels = tuple(VoltageInterval(lv["lo_V"], lv["hi_V"])
                   for lv in doc["levels"])
    return LevelFamily(levels=levels,
                       window=VoltageInterval(doc["window"]["lo_V"],
                                              doc["window"]["hi_V"]))


def lower_to_conductances(t: CamTable, p: DeviceParams,
                          family: LevelFamily | None = None,
                          variant: str = "mosfet",
                          ts: TsDeviceParams | None = None) -> list[list[CellConfig]]:
    """Map every table cell to a programmable conductance pair.

    Digit cells go through the level family (exact -> that level's interval,
    wildcard -> the full window, {n-m} -> the union of levels n..m stored as
    one interval); interval rows are taken as-is. The conductance targets of
    the whole table come from one array evaluation of the divider equation.
    A cell whose interval needs a conductance outside the window raises,
    naming the first offending row and digit.
    """
    if family is None and t.bits_per_cell is not None:
        family = default_level_family(1 << t.bits_per_cell, p, variant, ts)
    specs: list[VoltageInterval] = []
    for word, _ in t.rows:
        if isinstance(word, IntervalWord):
            specs.extend(word.intervals)
        elif isinstance(word, DigitWord):
            specs.extend(family.digit_interval(d) for d in word.digits)
        else:
            raise DomainError(f"cannot lower row type {type(word).__name__}")
    n_cols = t.n_cols
    lo = np.array([iv.lo for iv in specs], dtype=float)
    hi = np.array([iv.hi for iv in specs], dtype=float)
    g1, g2 = conductance_from_bounds(
        lo, hi, p, variant, ts,
        where=lambda k: f"row {k // n_cols} digit {k % n_cols}: ")
    cells = [CellConfig(a, b) for a, b in zip(g1.tolist(), g2.tolist())]
    return [cells[r * n_cols:(r + 1) * n_cols] for r in range(t.n_rows)]


def _encodable(values, t: CamTable) -> tuple[int, int]:
    """Bits per cell and digits of the digit table ``t``. Raises
    :class:`DomainError` naming the first of ``values`` it cannot hold."""
    bits = t.bits_per_cell
    if bits is None:
        raise DomainError("integer encoding needs a digit table")
    n = t.n_cols
    top = 1 << bits * n
    for value in values:
        if not 0 <= value < top:
            raise DomainError(
                f"value {value} not representable in {n} base-{1 << bits} digits")
    return bits, n


def encode_integer(value: int, t: CamTable, family: LevelFamily) -> list[float]:
    """DL voltages addressing ``value`` on a digit table (ternary tables are
    the 1-bit case)."""
    bits, n = _encodable((value,), t)
    return [family.voltages[d] for d in _digits(value, bits, n)]


def encode_integers(values, t: CamTable, family: LevelFamily) -> np.ndarray:
    """:func:`encode_integer` of every value as one (len(values), cols) array.

    Digits are split with shifts on an object array of Python ints, so
    tables wider than 63 bits work too.
    """
    bits, n = _encodable(values, t)
    shifts = np.arange(bits * (n - 1), -1, -bits)   # most-significant first
    v = np.array(values, dtype=object).reshape(-1, 1)
    digits = (v >> shifts & (1 << bits) - 1).astype(np.intp)
    return np.array(family.voltages)[digits]


# ---------------------------------------------------------------------------
# text and JSON products
# ---------------------------------------------------------------------------

def format_grid(t: CamTable) -> str:
    """Human-readable grid, one table row per line, labels on the right."""
    lines = []
    for word, label in t.rows:
        if isinstance(word, DigitWord):
            cells = [d.symbol() for d in word.digits]
        else:
            cells = [f"[{iv.lo:.3f},{iv.hi:.3f}]" for iv in word.intervals]
        width = max(len(c) for c in cells)
        row = " ".join(c.rjust(width) for c in cells)
        lines.append(f"{row}  | {label}" if label else row)
    return "\n".join(lines)


def _word_to_json(word) -> dict:
    if isinstance(word, DigitWord):
        return {"kind": "digits",
                "digits": [{"lo": d.lo, "hi": d.hi} for d in word.digits]}
    return {"kind": "intervals",
            "intervals": [{"lo_V": iv.lo, "hi_V": iv.hi} for iv in word.intervals]}


def table_to_json_dict(t: CamTable) -> dict:
    return {
        "width_bits": t.width_bits,
        "bits_per_cell": t.bits_per_cell,
        "rows": [{"word": _word_to_json(word), "label": label}
                 for word, label in t.rows],
    }


_TERNARY_DIGITS = {"0": DigitSpec.exact(0, 2), "1": DigitSpec.exact(1, 2),
                   "X": DigitSpec.wildcard(2)}


def table_from_json_dict(doc: dict) -> CamTable:
    bits = doc.get("bits_per_cell")
    rows = []
    for entry in doc["rows"]:
        wd = entry["word"]
        if wd["kind"] == "ternary":  # 1-bit rows as earlier versions wrote them
            bits = 1
            word = DigitWord(tuple(_TERNARY_DIGITS[ch] for ch in wd["symbols"]))
        elif wd["kind"] == "digits":
            base = 1 << bits
            word = DigitWord(tuple(DigitSpec(d["lo"], d["hi"], base)
                                   for d in wd["digits"]))
        elif wd["kind"] == "intervals":
            word = IntervalWord(tuple(VoltageInterval(iv["lo_V"], iv["hi_V"])
                                      for iv in wd["intervals"]))
        else:
            raise DomainError(f"unknown word kind {wd['kind']!r}")
        rows.append((word, entry.get("label", "")))
    return CamTable(rows=tuple(rows), width_bits=doc.get("width_bits"),
                    bits_per_cell=bits)


def parse_rules_jsonl(text: str) -> list[RangeRule]:
    """Parse rules from JSON lines: {"lo":..., "hi":..., "width_bits":..., "label":...}.

    ``lo``, ``hi`` and ``width_bits`` must be JSON integers.
    """
    rules = []
    fields = ("lo", "hi", "width_bits")
    for i, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as e:
            raise DomainError(f"rules line {i}: {e}") from e
        try:
            bounds = [doc[name] for name in fields]
            for name, value in zip(fields, bounds):
                if type(value) is not int:  # not bool, float or string
                    raise DomainError(
                        f'rules line {i}: "{name}" must be an integer')
            rules.append(RangeRule(*bounds,
                                   label=str(doc.get("label", f"rule{i}"))))
        except KeyError as e:
            raise DomainError(f"rules line {i}: missing field {e}") from e
        except (OverflowError, TypeError) as e:
            raise DomainError(f"rules line {i}: {e}") from e
    return rules
