"""Single-cell semantics: conductance pair <-> analog match interval.

A 6T2M cell stores the interval ``[lo, hi]``: M1's divider sets the lower
bound (its midpoint crosses the pull-down threshold ``v_th_ml``) and M2's
divider plus inverter sets the upper bound (midpoint crossing ``v_th_inv``).
In the triode regime both bounds are affine in the stored conductance:

    lo = g_m1 * (v_slhi / v_th_ml  - 1) / beta + v_th
    hi = g_m2 * (v_slhi / v_th_inv - 1) / beta + v_th

Outside the triode regime (small conductances) the bound follows the
sub-threshold branch, also in closed form; bounds in the 10 mV blend window
between the branches take Newton steps and a few-ulp settle step, landing
where a bisection would. Both mappings work elementwise.
``calibrate`` recovers the free parameters from published single-cell
operating points; foundry values are not available, so the default parameter
set is the calibration product.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .devices import (DeviceParams, TsDeviceParams, _divider_memristor,
                      _divider_transistor, _inverter_input,
                      transistor_conductance, transistor_conductance_inverse)
from .errors import (CalibrationError, DomainError, InconsistentCellError,
                     OutOfWindowError, PackingError)


@dataclass(frozen=True)
class VoltageInterval:
    """Closed analog match range [lo, hi] on the data line, in volts."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo <= self.hi <= 1.0):
            raise DomainError(f"interval [{self.lo}, {self.hi}] must satisfy 0 <= lo <= hi <= 1")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, v: float) -> bool:
        return self.lo <= v <= self.hi

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True)
class CellConfig:
    """The two programmed conductances of one cell (S)."""

    g_m1: float  # lower-bound memristor
    g_m2: float  # upper-bound memristor


# ---------------------------------------------------------------------------
# conductance <-> bounds, elementwise
# ---------------------------------------------------------------------------

def _crossing_voltages(p: DeviceParams, variant: str,
                       ts: TsDeviceParams | None) -> tuple[float, float]:
    """Divider-midpoint levels that define (lo, hi) for a cell variant.

    For the transistor pull-down cell the lower bound is where the M1
    midpoint falls to ``v_th_ml`` and the upper bound where the M2 midpoint
    falls to ``v_th_inv``. For the TS pull-up variant both pull-up devices
    snap at ``ts.v_threshold`` (default ``TsDeviceParams()``); the M2 side is
    referred through the inverter.
    """
    if variant == "mosfet":
        return p.v_th_ml, p.v_th_inv
    if variant == "ts":
        v = (ts or TsDeviceParams()).v_threshold
        return v, _inverter_input(v, p)
    raise DomainError(f"unknown cell variant {variant!r}")


def _bound_from_g(g_m, v_cross: float, p: DeviceParams, which: str):
    """DL voltage where the divider midpoint over ``g_m`` crosses ``v_cross``.

    The midpoint equals v_cross when the transistor conductance reaches
    ``_divider_transistor(g_m, v_cross)``; inverting the transistor curve
    gives the bound directly. Raises :class:`DomainError` naming the first
    conductance outside the programmable window.
    """
    g = np.asarray(g_m, dtype=float)
    ok = (p.g_min <= g) & (g <= p.g_max)  # NaN fails it too
    if not ok.all():
        raise DomainError(
            f"{which}={g.flat[np.argmin(ok)]:.3e} S outside window "
            f"[{p.g_min:.3e}, {p.g_max:.3e}] S")
    if not (0.0 < v_cross < p.v_slhi):
        raise DomainError(f"crossing level {v_cross} outside (0, v_slhi)")
    v = transistor_conductance_inverse(_divider_transistor(g, v_cross, p), p)
    v = np.minimum(np.maximum(v, 0.0), 1.0)  # np.clip costs twice as much
    return float(v) if np.isscalar(g_m) else v


def lower_bound_voltage(g_m1, p: DeviceParams, variant: str = "mosfet",
                        ts: TsDeviceParams | None = None):
    """Lower bound stored by memristor conductance ``g_m1``, elementwise."""
    return _bound_from_g(g_m1, _crossing_voltages(p, variant, ts)[0], p, "g_m1")


def upper_bound_voltage(g_m2, p: DeviceParams, variant: str = "mosfet",
                        ts: TsDeviceParams | None = None):
    """Upper bound stored by memristor conductance ``g_m2``, elementwise."""
    return _bound_from_g(g_m2, _crossing_voltages(p, variant, ts)[1], p, "g_m2")


# Largest inversion (lo - hi) that counts as floating-point rounding. The two
# bounds come from independent inversions of the transistor curve, so a
# zero-width interval can come back inverted by an ulp or two (~1e-16 V);
# any physically inverted pair is off by millivolts.
BOUND_ROUNDING_TOL_V = 1e-12


def bounds_from_conductance(g_m1, g_m2, p: DeviceParams,
                            variant: str = "mosfet",
                            ts: TsDeviceParams | None = None):
    """Stored match intervals ``(lo, hi)`` of conductance pairs, elementwise
    (``g_m1`` and ``g_m2`` have one shape).

    An inversion no larger than ``BOUND_ROUNDING_TOL_V`` is rounding and
    yields the zero-width interval at the midpoint of the two bounds. Raises
    :class:`InconsistentCellError` for the first pair in C order that maps to
    an interval inverted by more (upper-bound divider crossing below the
    lower-bound one).
    """
    g1, g2 = np.asarray(g_m1, dtype=float), np.asarray(g_m2, dtype=float)
    lo = lower_bound_voltage(g1, p, variant, ts)
    hi = upper_bound_voltage(g2, p, variant, ts)
    bad = lo > hi + BOUND_ROUNDING_TOL_V
    if bad.any():
        k = np.argmax(bad)
        raise InconsistentCellError(
            f"conductances ({g1.flat[k]:.3e}, {g2.flat[k]:.3e}) S map to "
            f"inverted interval [{lo.flat[k]:.4f}, {hi.flat[k]:.4f}] V")
    lo, hi = np.where(lo > hi, 0.5 * (lo + hi), (lo, hi))
    return (float(lo), float(hi)) if np.isscalar(g_m1) else (lo, hi)


def conductance_from_bounds(lo, hi, p: DeviceParams, variant: str = "mosfet",
                            ts: TsDeviceParams | None = None,
                            where=lambda k: ""):
    """Conductance targets ``(g_m1, g_m2)`` storing ``[lo, hi]``, elementwise.

    ``lo`` and ``hi`` have one shape (one entry per cell). Uses the divider
    equation in closed form: the midpoint sits at the crossing level when
    ``g = _divider_memristor(G_T(v), v_cross)``. Raises
    :class:`OutOfWindowError` for the first cell in C order whose target
    falls outside the programmable window, its lower bound checked before
    its upper; the message starts with ``where(flat index of that cell)``.
    """
    v_lo_cross, v_hi_cross = _crossing_voltages(p, variant, ts)
    g1 = _divider_memristor(transistor_conductance(lo, p), v_lo_cross, p)
    g2 = _divider_memristor(transistor_conductance(hi, p), v_hi_cross, p)
    ok1 = np.logical_and(p.g_min <= g1, g1 <= p.g_max)
    ok = ok1 & (p.g_min <= g2) & (g2 <= p.g_max)
    if not ok.all():
        k = int(np.argmin(ok))
        lower = not ok1.flat[k]
        name, v, g, m = ("lower", lo, g1, 1) if lower else ("upper", hi, g2, 2)
        raise OutOfWindowError(
            f"{where(k)}{name} bound {np.ravel(v)[k]:.4f} V needs g_m{m}="
            f"{np.ravel(g)[k]:.3e} S outside [{p.g_min:.3e}, {p.g_max:.3e}] S",
            bound="lo" if lower else "hi")
    return g1, g2


# How far achievable_window pulls its edges in from the window's images (V).
WINDOW_MARGIN_V = 0.002


def achievable_window(p: DeviceParams, variant: str = "mosfet",
                      ts: TsDeviceParams | None = None) -> VoltageInterval:
    """Voltage window every point of which can serve as either bound.

    Both bound mappings must reach the window: a level interval near the
    ceiling still needs its own lower bound programmed, so the ceiling is
    the smaller of the two g_max images (and the floor the larger of the
    two g_min images), pulled in by ``WINDOW_MARGIN_V``.
    """
    window = np.array([p.g_min, p.g_max])
    lo_floor, lo_ceil = lower_bound_voltage(window, p, variant, ts).tolist()
    hi_floor, hi_ceil = upper_bound_voltage(window, p, variant, ts).tolist()
    floor = max(lo_floor, hi_floor) + WINDOW_MARGIN_V
    ceil = min(lo_ceil, hi_ceil) - WINDOW_MARGIN_V
    if floor >= ceil:
        raise DomainError("device parameters leave no achievable interval window")
    return VoltageInterval(floor, ceil)


# ---------------------------------------------------------------------------
# discrete levels
# ---------------------------------------------------------------------------

def quantize_levels(n_levels: int, window: VoltageInterval,
                    guard: float) -> list[VoltageInterval]:
    """Split ``window`` into ``n_levels`` evenly pitched disjoint intervals.

    Each level keeps ``guard`` volts of separation (guard/2 per side); level
    i is addressed by the voltage ``window.lo + (i + 0.5) * pitch``.
    """
    if n_levels < 2:
        raise DomainError("need at least 2 levels")
    if guard < 0:
        raise DomainError("guard must be non-negative")
    if n_levels * guard >= window.width:
        raise PackingError(
            f"{n_levels} levels with {guard * 1e3:.1f} mV guards do not fit "
            f"in a {window.width * 1e3:.1f} mV window")
    pitch = window.width / n_levels
    return [VoltageInterval(window.lo + i * pitch + guard / 2.0,
                            window.lo + (i + 1) * pitch - guard / 2.0)
            for i in range(n_levels)]


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

# Published single-cell operating points used for the default parameter set:
# conductance pairs (uS) and the corresponding simulated match intervals (V)
# of the 16 nm-class reference cell.
REFERENCE_ANCHORS = (
    (CellConfig(40e-6, 80e-6), VoltageInterval(0.37, 0.42)),
    (CellConfig(20e-6, 80e-6), VoltageInterval(0.33, 0.43)),
)

# Residual ceiling above which a fit is rejected.
MAX_RESIDUAL_V = 0.015

# The affine bound model only identifies the two slopes and the shared
# intercept; the split of each slope into (beta, threshold) is fixed by
# pinning the pull-down threshold at this fraction of the supply.
V_TH_ML_FRACTION = 0.6


@dataclass(frozen=True)
class CalibrationResult:
    params: DeviceParams
    residuals: tuple[float, ...]  # per-anchor max endpoint error (V)

    @property
    def max_residual(self) -> float:
        return max(self.residuals)


def calibrate(anchors) -> CalibrationResult:
    """Fit {v_th, v_th_ml, v_th_inv, beta} to anchor (cell, interval) pairs.

    Least squares on the affine bound laws: each anchor contributes
    ``lo = K_lo * g_m1 + v_th`` and ``hi = K_hi * g_m2 + v_th`` rows, solved
    jointly for (K_lo, K_hi, v_th). The slopes are then unpacked with
    ``v_th_ml`` pinned at ``V_TH_ML_FRACTION * v_slhi`` (the affine model
    cannot separate beta from the thresholds); other fields keep their
    defaults. Residuals are verified on the full simulated bounds; any anchor
    off by more than ``MAX_RESIDUAL_V`` raises :class:`CalibrationError`.
    """
    anchors = list(anchors)
    if len(anchors) < 2:
        raise DomainError("calibration needs at least 2 anchors")
    g1s = {round(c.g_m1, 12) for c, _ in anchors}
    if len(g1s) < 2:
        raise DomainError("anchors must cover at least 2 distinct g_m1 values")

    rows = []
    rhs = []
    for cell, iv in anchors:
        rows.append([cell.g_m1, 0.0, 1.0])
        rhs.append(iv.lo)
        rows.append([0.0, cell.g_m2, 1.0])
        rhs.append(iv.hi)
    a = np.asarray(rows)
    b = np.asarray(rhs)
    if np.linalg.matrix_rank(a) < 3:
        raise DomainError("anchors are degenerate; bound slopes not identifiable")
    (k_lo, k_hi, v_th), *_ = np.linalg.lstsq(a, b, rcond=None)
    if k_lo <= 0 or k_hi <= 0:
        raise CalibrationError(
            f"fit produced non-physical slopes (K_lo={k_lo:.1f}, K_hi={k_hi:.1f} V/S)")

    v_slhi = DeviceParams.v_slhi
    v_th_ml = V_TH_ML_FRACTION * v_slhi
    beta = (v_slhi / v_th_ml - 1.0) / k_lo
    v_th_inv = v_slhi / (1.0 + k_hi * beta)

    params = DeviceParams(v_th=float(v_th), v_th_ml=v_th_ml,
                          v_th_inv=float(v_th_inv), beta=float(beta))

    lo = lower_bound_voltage(a[0::2, 0], params)  # the anchors' g_m1
    hi = upper_bound_voltage(a[1::2, 1], params)  # and g_m2
    residuals = np.maximum(abs(lo - b[0::2]), abs(hi - b[1::2])).tolist()
    if max(residuals) > MAX_RESIDUAL_V:
        raise CalibrationError(
            f"anchor residual {max(residuals) * 1e3:.1f} mV exceeds "
            f"{MAX_RESIDUAL_V * 1e3:.0f} mV", residuals=residuals)
    return CalibrationResult(params=params, residuals=tuple(residuals))


@functools.lru_cache(maxsize=1)
def calibrated_defaults() -> DeviceParams:
    """Default parameter set: calibration against the reference anchors."""
    return calibrate(REFERENCE_ANCHORS).params
