"""Energy, area and device-count accounting against digital TCAM baselines.

This module is arithmetic over published reference figures, not a circuit
simulator: the per-search energy breakdown of the reference 86x12 analog
array and the TCAM cell area/energy constants are inputs, and reports scale
or normalize them. Every report states the scaling assumptions it used.

The reference range rule comparison in the literature uses a 21x16 TCAM
implementation (336 cells) of the same function; that cell count is carried
here as a published constant of the baseline implementation, independent of
the ternary table (the 1-bit digit table) that ``compile_rules`` produces for
the rule.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import DomainError
from .tables import RangeRule, compile_rules

# Published TCAM baseline constants (fJ per search per ternary bit).
SRAM_TCAM_FJ_PER_BIT = 0.165
MEMRISTOR_TCAM_FJ_PER_BIT = 0.17

# Published TCAM implementation size of the reference range-rule comparison.
REFERENCE_TCAM_ROWS = 21
REFERENCE_TCAM_WIDTH = 16
REFERENCE_TCAM_CELLS = REFERENCE_TCAM_ROWS * REFERENCE_TCAM_WIDTH

_SCALING_MODES = ("per_cell", "per_row", "per_column", "fixed")


def _to_json(params) -> dict:
    return {key: getattr(params, name)
            for name, key in params._JSON_FIELDS.items()}


def _kwargs_from_json(cls, doc: dict) -> dict:
    """Constructor arguments for the keys of ``doc`` that ``cls._JSON_FIELDS``
    names; other keys are ignored, and absent ones keep their defaults."""
    names = {key: name for name, key in cls._JSON_FIELDS.items()}
    return {names[key]: value for key, value in doc.items() if key in names}


@dataclass(frozen=True)
class EnergyParams:
    """Per-search energy breakdown of the reference array, in femtojoules.

    Each component carries a scaling mode used to project other array sizes:
    ``per_cell`` scales with rows*cols, ``per_row``/``per_column`` with one
    dimension, ``fixed`` not at all. The reference size is 86x12. Scaling
    modes are declared assumptions (the reference data covers one size only)
    and are surfaced in every report header.
    """

    e_ml_precharge: float = 102.9
    e_slhi_driver: float = 298.5
    e_other: float = 86.4
    e_dac: float = 52.1
    ref_rows: int = 86
    ref_cols: int = 12
    mode_ml_precharge: str = "per_cell"
    mode_slhi_driver: str = "per_cell"
    mode_other: str = "fixed"
    mode_dac: str = "per_column"

    # JSON key of each field; the modes sit in a "scaling_modes" object, keyed
    # by component name
    _JSON_FIELDS = {"e_ml_precharge": "ml_precharge_fJ",
                    "e_slhi_driver": "slhi_driver_fJ", "e_other": "other_fJ",
                    "e_dac": "dac_fJ", "ref_rows": "ref_rows",
                    "ref_cols": "ref_cols"}

    def __post_init__(self):
        for name in ("e_ml_precharge", "e_slhi_driver", "e_other", "e_dac"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be non-negative")
        if self.ref_rows < 1 or self.ref_cols < 1:
            raise DomainError("ref_rows and ref_cols must be at least 1")
        for name, (_, mode) in self.components().items():
            if mode not in _SCALING_MODES:
                raise DomainError(
                    f"mode_{name} must be one of {_SCALING_MODES}")

    @property
    def ref_cells(self) -> int:
        return self.ref_rows * self.ref_cols

    @property
    def total_reference(self) -> float:
        return self.e_ml_precharge + self.e_slhi_driver + self.e_other + self.e_dac

    @property
    def per_cell_reference(self) -> float:
        return self.total_reference / self.ref_cells

    def components(self) -> dict[str, tuple[float, str]]:
        return {
            "ml_precharge": (self.e_ml_precharge, self.mode_ml_precharge),
            "slhi_driver": (self.e_slhi_driver, self.mode_slhi_driver),
            "other": (self.e_other, self.mode_other),
            "dac": (self.e_dac, self.mode_dac),
        }

    def without_dac(self) -> "EnergyParams":
        return replace(self, e_dac=0.0)

    def to_json_dict(self) -> dict:
        return {**_to_json(self), "scaling_modes": {
            name: mode for name, (_, mode) in self.components().items()}}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "EnergyParams":
        modes = {f"mode_{name}": mode
                 for name, mode in doc.get("scaling_modes", {}).items()
                 if f"mode_{name}" in cls.__dataclass_fields__}
        return cls(**_kwargs_from_json(cls, doc), **modes)


@dataclass(frozen=True)
class AreaParams:
    """Cell area and transistor-count constants for area/density comparison."""

    area_acam_cell: float = 0.52   # um^2, derived: 12.48 um^2 / 24 cells
    area_tcam_cell: float = 0.70   # um^2, published SRAM TCAM figure
    transistors_per_acam_cell: int = 6
    transistors_per_sram_tcam_cell: int = 16

    _JSON_FIELDS = {"area_acam_cell": "area_acam_cell_um2",
                    "area_tcam_cell": "area_tcam_cell_um2",
                    "transistors_per_acam_cell": "transistors_per_acam_cell",
                    "transistors_per_sram_tcam_cell":
                        "transistors_per_sram_tcam_cell"}

    def __post_init__(self):
        if min(self.area_acam_cell, self.area_tcam_cell) <= 0:
            raise DomainError("cell areas must be positive")
        if min(self.transistors_per_acam_cell,
               self.transistors_per_sram_tcam_cell) <= 0:
            raise DomainError("transistor counts must be positive")

    def to_json_dict(self) -> dict:
        return _to_json(self)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "AreaParams":
        return cls(**_kwargs_from_json(cls, doc))


@dataclass(frozen=True)
class CostReport:
    """Per-search energy report of one array size."""

    rows: int
    cols: int
    breakdown: dict         # component -> fJ per search
    assumptions: dict       # component -> scaling mode
    per_cell: float         # fJ per search per cell

    @property
    def total(self) -> float:
        return sum(self.breakdown.values())

    @property
    def cells(self) -> int:
        return self.rows * self.cols

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "cells": self.cells,
            "energy_breakdown_fJ": dict(self.breakdown),
            "energy_total_fJ": self.total,
            "energy_per_cell_fJ": self.per_cell,
            "scaling_assumptions": dict(self.assumptions),
        }

    def to_text(self) -> str:
        lines = [f"array {self.rows} x {self.cols} ({self.cells} cells)"]
        lines.append("scaling assumptions: " + ", ".join(
            f"{k}={v}" for k, v in self.assumptions.items()))
        width = max(len(k) for k in self.breakdown)
        for name, val in self.breakdown.items():
            lines.append(f"  {name.ljust(width)}  {val:10.2f} fJ/search")
        lines.append(f"  {'total'.ljust(width)}  {self.total:10.2f} fJ/search")
        lines.append(f"  per cell: {self.per_cell:.4f} fJ")
        return "\n".join(lines)


def _scale(mode: str, rows: int, cols: int, ep: EnergyParams) -> float:
    if mode == "per_cell":
        return (rows * cols) / ep.ref_cells
    if mode == "per_row":
        return rows / ep.ref_rows
    if mode == "per_column":
        return cols / ep.ref_cols
    return 1.0


def energy_per_search(rows: int, cols: int, ep: EnergyParams) -> CostReport:
    """Scale the reference breakdown to a rows x cols array."""
    if rows < 1 or cols < 1:
        raise DomainError("rows and cols must be at least 1")
    breakdown = {}
    assumptions = {}
    for name, (value, mode) in ep.components().items():
        breakdown[name] = value * _scale(mode, rows, cols, ep)
        assumptions[name] = mode
    total = sum(breakdown.values())
    return CostReport(rows=rows, cols=cols, breakdown=breakdown,
                      assumptions=assumptions, per_cell=total / (rows * cols))


@dataclass(frozen=True)
class RangeCostOption:
    bits_per_cell: int
    rows: int
    cols: int
    cells: int
    transistors: int
    area_um2: float
    energy_fj: float          # table energy at the reference per-cell figure
    per_tcam_bit_fj: float
    cell_reduction: float
    transistor_reduction: float
    area_reduction: float


@dataclass(frozen=True)
class RangeComparisonReport:
    rule: RangeRule
    tcam_rows: int
    tcam_cells: int
    tcam_transistors: int
    tcam_area_um2: float
    tcam_baseline: str  # "published" or "compiled"
    options: tuple[RangeCostOption, ...]
    baselines: dict     # published per-bit TCAM energies and our advantage

    def option(self, bits: int) -> RangeCostOption:
        for opt in self.options:
            if opt.bits_per_cell == bits:
                return opt
        raise DomainError(f"no option with {bits} bits per cell")

    def to_json_dict(self) -> dict:
        return {
            "rule": {"lo": self.rule.lo, "hi": self.rule.hi,
                     "width_bits": self.rule.width_bits, "label": self.rule.label},
            "tcam_baseline": {
                "source": self.tcam_baseline,
                "rows": self.tcam_rows,
                "cells": self.tcam_cells,
                "transistors": self.tcam_transistors,
                "area_um2": self.tcam_area_um2,
            },
            "options": [{
                "bits_per_cell": o.bits_per_cell,
                "rows": o.rows,
                "cols": o.cols,
                "cells": o.cells,
                "transistors": o.transistors,
                "area_um2": o.area_um2,
                "energy_fJ_per_search": o.energy_fj,
                "energy_per_tcam_bit_fJ": o.per_tcam_bit_fj,
                "cell_reduction": o.cell_reduction,
                "transistor_reduction": o.transistor_reduction,
                "area_reduction": o.area_reduction,
            } for o in self.options],
            "published_baselines": dict(self.baselines),
        }

    def to_text(self) -> str:
        lines = [
            f"range [{self.rule.lo}, {self.rule.hi}] over {self.rule.width_bits} bits",
            f"TCAM baseline ({self.tcam_baseline}): {self.tcam_rows} rows, "
            f"{self.tcam_cells} cells, {self.tcam_transistors} transistors, "
            f"{self.tcam_area_um2:.2f} um^2",
            "analog energy normalization: reference per-cell figure x cells",
        ]
        for o in self.options:
            lines.append(
                f"  {o.bits_per_cell}-bit cells: {o.rows} x {o.cols} = "
                f"{o.cells} cells ({o.cell_reduction:.1f}x), "
                f"{o.transistors} transistors ({o.transistor_reduction:.1f}x), "
                f"{o.area_um2:.2f} um^2 ({o.area_reduction:.1f}x), "
                f"{o.energy_fj:.2f} fJ/search, "
                f"{o.per_tcam_bit_fj:.4f} fJ/equivalent TCAM bit")
        for key, val in self.baselines.items():
            lines.append(f"  {key}: {val}")
        return "\n".join(lines)


def compare_range_implementations(r: RangeRule, bits_per_cell_options,
                                  ap: AreaParams, ep: EnergyParams,
                                  tcam_cells: int | None = None) -> RangeComparisonReport:
    """Compile a rule at several cell widths and report costs vs. TCAM.

    The TCAM baseline defaults to the rule's own ternary table, its 1-bit
    compilation; pass the published implementation's cell count
    ``tcam_cells``, a positive multiple of the rule width, to compare
    against reported figures instead. Analog table energy uses the reference
    per-cell figure times the cell count, the normalization under which
    per-equivalent-TCAM-bit energies are quoted. The published per-bit
    energies of SRAM and memristor TCAMs are data, attached with their ratio
    to the first option's per-bit energy ("n/a" without options).
    """
    baseline = "published"
    if tcam_cells is None:
        ternary = compile_rules([r], 1)
        tcam_rows = ternary.n_rows
        tcam_cells = ternary.n_cells
        baseline = "compiled"
    elif tcam_cells < 1:
        raise DomainError(f"tcam_cells must be at least 1, got {tcam_cells}")
    elif tcam_cells % r.width_bits:
        raise DomainError(f"tcam_cells must be a multiple of the rule width "
                          f"{r.width_bits}, got {tcam_cells}")
    else:
        tcam_rows = tcam_cells // r.width_bits

    tcam_transistors = tcam_cells * ap.transistors_per_sram_tcam_cell
    tcam_area = tcam_cells * ap.area_tcam_cell

    options = []
    for bits in bits_per_cell_options:
        t = compile_rules([r], bits)
        cells = t.n_cells
        transistors = cells * ap.transistors_per_acam_cell
        area = cells * ap.area_acam_cell
        energy = ep.per_cell_reference * cells
        options.append(RangeCostOption(
            bits_per_cell=bits, rows=t.n_rows, cols=t.n_cols, cells=cells,
            transistors=transistors, area_um2=area, energy_fj=energy,
            per_tcam_bit_fj=energy / tcam_cells,
            cell_reduction=tcam_cells / cells,
            transistor_reduction=tcam_transistors / transistors,
            area_reduction=tcam_area / area))
    published = {"sram_tcam": SRAM_TCAM_FJ_PER_BIT,
                 "memristor_tcam": MEMRISTOR_TCAM_FJ_PER_BIT}
    baselines = {f"{k}_fJ_per_bit": v for k, v in published.items()}
    for k, v in published.items():
        baselines[f"{k}_advantage"] = (v / options[0].per_tcam_bit_fj
                                       if options else "n/a")
    return RangeComparisonReport(rule=r, tcam_rows=tcam_rows,
                                 tcam_cells=tcam_cells,
                                 tcam_transistors=tcam_transistors,
                                 tcam_area_um2=tcam_area,
                                 tcam_baseline=baseline,
                                 options=tuple(options), baselines=baselines)
