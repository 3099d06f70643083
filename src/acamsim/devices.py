"""Behavioral models of the devices inside a 6T2M / 4T4M analog CAM cell.

Each cell bound is set by a voltage divider: a series transistor whose gate
is driven by the data line (DL), stacked on a programmable memristor between
the search supply SL_hi and ground. The divider midpoint drives the gate of
a match-line pull-down transistor. All models here are quasi-static and
expressed as conductances:

* ``transistor_conductance`` - channel conductance of the divider transistor
  vs. DL voltage: linear (triode) ``beta * (v - v_th)`` above threshold, a
  sub-threshold exponential with slope ``swing`` mV/decade below it, joined
  C1 over a small blend window so root-finding never sees a kink.
* ``divider_gate_voltage`` - the divider midpoint,
  ``v_slhi * g_m / (g_m + G_T(v_dl))``.
* ``pulldown_conductance`` - the ML pull-down channel vs. its gate voltage:
  ``g_on`` at/above threshold, ``g_off * 10**((v_g - v_th_ml)/swing)`` below,
  again C1-blended at the top of the sub-threshold branch.
* ``ts_conductance_off_curve`` - the OFF branch of the volatile
  threshold-switching device (fresh each search) that replaces the
  pull-down in the low-leak pull-up cell variant.
* ``program_memristor`` - iterative program-and-verify write with Gaussian
  per-pulse error.

Functions accept scalars or numpy arrays for the voltage argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, ProgrammingError

# C1 smoothing window around the divider transistor threshold (V). Keeps the
# piecewise conductance model differentiable so root-finding never sees a kink.
BLEND_V = 0.010

# Transition width of the ML pull-down at its threshold (V). The nominal
# model is a step from the sub-threshold branch to g_on; this narrow C1 ramp
# stands in for the step so array-level boundaries move smoothly.
PD_BLEND_V = 0.003

# Default per-pulse write noise of the program-and-verify loop (S).
DEFAULT_PROGRAM_SIGMA = 2e-6

LN10 = math.log(10.0)


@dataclass(frozen=True)
class DeviceParams:
    """Transistor, supply and memristor-window constants for one technology point.

    The four threshold/transconductance values are normally produced by
    :func:`acamsim.cell.calibrate` rather than typed in by hand; the
    conductance window and leakage figures are direct configuration.

    Units: volts, siemens, and ``swing`` in mV/decade. ``alpha`` is the
    DL-to-gate voltage sensitivity ratio used by the analytic word-length
    and range-shift estimates. ``inv_gain`` is the small-signal gain of the
    in-cell inverter that drives the upper-bound pull-down gate.
    """

    v_th: float          # divider transistor threshold (V)
    v_th_ml: float       # ML pull-down transistor threshold (V)
    v_th_inv: float      # inverter switching threshold (V)
    beta: float          # divider transconductance dG/dV_DL (S/V)
    v_slhi: float = 0.5  # search supply on SL_hi (V)
    g_on: float = 500e-6   # pull-down ON conductance (S)
    g_off: float = 0.3e-9  # pull-down leakage reference at threshold (S)
    swing: float = 100.0   # sub-threshold swing (mV/decade)
    alpha: float = 0.1     # dV_DL per dV_G sensitivity ratio (dimensionless)
    g_min: float = 1e-6    # programmable window floor (S)
    g_max: float = 150e-6  # programmable window ceiling (S)
    inv_gain: float = 25.0  # inverter small-signal gain (dimensionless)

    def __post_init__(self):
        if not (0.0 < self.v_th_ml < self.v_slhi):
            raise DomainError(f"v_th_ml={self.v_th_ml} must lie in (0, v_slhi)")
        if not (0.0 < self.v_th_inv < self.v_slhi):
            raise DomainError(f"v_th_inv={self.v_th_inv} must lie in (0, v_slhi)")
        if self.g_off >= self.g_on:
            raise DomainError("g_off must be below g_on")
        if self.g_min >= self.g_max:
            raise DomainError("g_min must be below g_max")
        if self.beta <= 0:
            raise DomainError("beta must be positive")
        if self.swing <= 0:
            raise DomainError("swing must be positive")
        if self.inv_gain <= 0:
            raise DomainError("inv_gain must be positive")

    # -- serialization ------------------------------------------------------
    # JSON documents carry SI-suffixed field names so units are unambiguous.

    _JSON_FIELDS = {
        "v_th": ("v_th_V", 1.0),
        "v_th_ml": ("v_th_ml_V", 1.0),
        "v_th_inv": ("v_th_inv_V", 1.0),
        "beta": ("beta_uS_per_V", 1e6),
        "v_slhi": ("v_slhi_V", 1.0),
        "g_on": ("g_on_uS", 1e6),
        "g_off": ("g_off_uS", 1e6),
        "swing": ("swing_mV_per_dec", 1.0),
        "alpha": ("alpha", 1.0),
        "g_min": ("g_min_uS", 1e6),
        "g_max": ("g_max_uS", 1e6),
        "inv_gain": ("inv_gain", 1.0),
    }

    def to_json_dict(self) -> dict:
        return {key: getattr(self, name) * scale
                for name, (key, scale) in self._JSON_FIELDS.items()}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "DeviceParams":
        kwargs = {}
        for name, (key, scale) in cls._JSON_FIELDS.items():
            if key in doc:
                kwargs[name] = float(doc[key]) / scale
        missing = {"v_th_V", "v_th_ml_V", "v_th_inv_V", "beta_uS_per_V"} - set(doc)
        if missing:
            raise DomainError(f"device parameter document missing {sorted(missing)}")
        return cls(**kwargs)

    def with_(self, **changes) -> "DeviceParams":
        return replace(self, **changes)


@dataclass(frozen=True)
class MemristorState:
    """A programmed non-volatile memristor: conductance plus residual write noise."""

    g: float           # programmed conductance (S)
    sigma_prog: float  # program-and-verify residual std-dev (S)


@dataclass(frozen=True)
class ProgramResult:
    state: MemristorState
    iterations: int


@dataclass(frozen=True)
class TsDeviceParams:
    """Volatile threshold-switching device for the 4T4M pull-up cell variant."""

    v_threshold: float = 0.4   # turn-on voltage (V)
    v_hold: float = 0.1        # release voltage (V)
    swing_ts: float = 1.0      # transition slope (mV/decade)
    g_ts_on: float = 1e-3      # ON conductance (S)
    g_ts_off: float = 1e-9     # OFF leakage (S)

    def __post_init__(self):
        if self.v_hold >= self.v_threshold:
            raise DomainError("v_hold must be below v_threshold")
        if self.g_ts_off >= self.g_ts_on:
            raise DomainError("g_ts_off must be below g_ts_on")
        if self.swing_ts <= 0:
            raise DomainError("swing_ts must be positive")


# ---------------------------------------------------------------------------
# smooth piecewise conductance curves
# ---------------------------------------------------------------------------

def _hermite(u, y0, m0, y1, m1):
    """Cubic Hermite value on [0, 1] given endpoint values and slopes."""
    u2 = u * u
    u3 = u2 * u
    return (y0 * (2 * u3 - 3 * u2 + 1) + m0 * (u3 - 2 * u2 + u)
            + y1 * (-2 * u3 + 3 * u2) + m1 * (u3 - u2))


def transistor_conductance(v_dl, p: DeviceParams):
    """Channel conductance of the divider transistor at DL voltage ``v_dl``.

    Triode branch ``beta * (v_dl - v_th)`` for v_dl >= v_th + BLEND_V, a
    sub-threshold exponential with the configured swing below v_th, and a
    monotone C1 Hermite blend in between. The sub-threshold magnitude at
    threshold is anchored at ``beta * BLEND_V / 4`` so the blend stays
    monotone (Fritsch-Carlson condition).
    """
    v = np.asarray(v_dl, dtype=float)
    swing_v = p.swing * 1e-3
    e0 = p.beta * BLEND_V / 4.0
    u = v - p.v_th

    sub = e0 * np.power(10.0, np.minimum(u, 0.0) / swing_v)
    tri = p.beta * u
    # blend endpoint slopes: exponential slope at v_th, beta at v_th + BLEND_V
    t = np.clip(u / BLEND_V, 0.0, 1.0)
    blend = _hermite(t, e0, e0 * LN10 / swing_v * BLEND_V, p.beta * BLEND_V,
                     p.beta * BLEND_V)

    out = np.where(u <= 0.0, sub, np.where(u >= BLEND_V, tri, blend))
    return float(out) if np.isscalar(v_dl) else out


def transistor_conductance_inverse(g_t: float, p: DeviceParams) -> float:
    """DL voltage at which the divider transistor reaches conductance ``g_t``.

    Closed form on the triode and sub-threshold branches; bisection inside
    the blend window (the curve is strictly monotone there).
    """
    if g_t <= 0:
        raise DomainError("target conductance must be positive")
    swing_v = p.swing * 1e-3
    e0 = p.beta * BLEND_V / 4.0
    if g_t >= p.beta * BLEND_V:
        return p.v_th + g_t / p.beta
    if g_t <= e0:
        return p.v_th + swing_v * math.log10(g_t / e0)
    lo, hi = p.v_th, p.v_th + BLEND_V
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if transistor_conductance(mid, p) < g_t:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def divider_gate_voltage(g_m, v_dl, p: DeviceParams):
    """Divider midpoint voltage ``v_slhi * g_m / (g_m + G_T(v_dl))``.

    Strictly decreasing in v_dl and strictly increasing in g_m: a larger
    memristor conductance holds the pull-down gate high up to a larger DL
    voltage, which is what moves the cell's lower bound up.
    """
    g = np.asarray(g_m, dtype=float)
    if np.any(g < p.g_min) or np.any(g > p.g_max):
        raise DomainError(
            f"memristor conductance outside window [{p.g_min:.3e}, {p.g_max:.3e}] S")
    v = np.asarray(v_dl, dtype=float)
    if np.any(v < 0.0) or np.any(v > 1.0):
        raise DomainError("DL voltage must lie in [0, 1] V")
    g_t = transistor_conductance(v, p)
    out = p.v_slhi * g / (g + g_t)
    if np.isscalar(g_m) and np.isscalar(v_dl):
        return float(out)
    return out


def inverter_output(v_in, p: DeviceParams):
    """Output of the in-cell inverter driving the upper-bound pull-down gate.

    Linear gain around the switching threshold, clipped to the SL_hi rail:
    ``clip(v_th_inv - inv_gain * (v_in - v_th_inv), 0, v_slhi)``.
    """
    v = np.asarray(v_in, dtype=float)
    out = np.clip(p.v_th_inv - p.inv_gain * (v - p.v_th_inv), 0.0, p.v_slhi)
    return float(out) if np.isscalar(v_in) else out


def _log_blend_curve(v, v_on, swing_v, blend_v, g_off, g_on, floor):
    """Exponential branch up to ``v_on - blend_v``, ``g_on`` from ``v_on``.

    Below the blend window the conductance is ``g_off * 10**((v - v_on) /
    swing_v)``, floored at ``g_off * floor``; across the window it follows a
    monotone C1 Hermite blend in log-conductance that leaves the exponential
    with its slope and reaches ``g_on`` flat.
    """
    u = v - v_on
    t = np.clip((u + blend_v) / blend_v, 0.0, 1.0)
    exp_branch = np.maximum(g_off * np.power(10.0, np.minimum(u, 0.0) / swing_v),
                            g_off * floor)
    log_lo = math.log10(g_off) - blend_v / swing_v
    log_hi = math.log10(g_on)
    blend = np.power(10.0, _hermite(t, log_lo, blend_v / swing_v, log_hi, 0.0))
    return np.where(u >= 0.0, g_on, np.where(u <= -blend_v, exp_branch, blend))


def pulldown_conductance(v_g, p: DeviceParams):
    """ML pull-down channel conductance at gate voltage ``v_g``.

    ``g_on`` for v_g >= v_th_ml. Below threshold the sub-threshold branch is
    ``g_off * 10**((v_g - v_th_ml) / swing)``, floored at ``g_off * 1e-6``.
    The top PD_BLEND_V of the sub-threshold branch is replaced by a monotone
    C1 blend (in log-conductance) up to g_on, so array-level match boundaries
    move smoothly instead of jumping.

    ``g_off == 0`` is accepted as an idealized zero-leakage device: the
    sub-threshold branch is exactly 0 and the blend is a plain smoothstep.
    """
    v = np.asarray(v_g, dtype=float)
    if np.any(v < 0.0):
        raise DomainError("gate voltage must be non-negative")
    if p.g_off == 0.0:
        u = v - p.v_th_ml
        t = np.clip((u + PD_BLEND_V) / PD_BLEND_V, 0.0, 1.0)
        blend = p.g_on * (3.0 * t * t - 2.0 * t * t * t)
        out = np.where(u >= 0.0, p.g_on, np.where(u <= -PD_BLEND_V, 0.0, blend))
    else:
        out = _log_blend_curve(v, p.v_th_ml, p.swing * 1e-3, PD_BLEND_V,
                               p.g_off, p.g_on, 1e-6)
    return float(out) if np.isscalar(v_g) else out


def ts_conductance_off_curve(v, tp: TsDeviceParams):
    """OFF-branch conductance of the threshold-switching device.

    Every search starts the device fresh, never from a prior ON state, so
    this branch is the whole search-time model: it rises with slope
    ``swing_ts`` and is blended C1 over the last ``swing_ts`` millivolts
    below ``v_threshold``, where it reaches ``g_ts_on``.
    """
    swing_v = tp.swing_ts * 1e-3
    return _log_blend_curve(np.asarray(v, dtype=float), tp.v_threshold,
                            swing_v, swing_v, tp.g_ts_off, tp.g_ts_on, 1e-9)


# ---------------------------------------------------------------------------
# programming
# ---------------------------------------------------------------------------

def program_memristor(target: float, seed, tol: float, max_iters: int,
                      p: DeviceParams,
                      sigma: float = DEFAULT_PROGRAM_SIGMA) -> ProgramResult:
    """Program-and-verify write loop.

    Each pulse lands at ``target + N(0, sigma)`` clipped to the conductance
    window; the loop stops once the read-back error is within ``tol``.
    Deterministic for a given ``seed``, which seeds
    ``np.random.default_rng``. Raises :class:`DomainError` for a
    non-finite or non-positive ``tol``, a non-finite or negative ``sigma``
    and a seed numpy rejects (a negative entry, say), and
    :class:`ProgrammingError` carrying the best conductance reached if
    ``max_iters`` pulses are not enough.
    """
    if not (p.g_min <= target <= p.g_max):
        raise DomainError(
            f"target {target:.3e} S outside window [{p.g_min:.3e}, {p.g_max:.3e}] S")
    if not (0 < tol < math.inf):
        raise DomainError(f"tolerance must be positive and finite, got {tol}")
    if not (0 <= sigma < math.inf):
        raise DomainError(f"sigma must be non-negative and finite, got {sigma}")
    if max_iters < 1:
        raise DomainError("max_iters must be at least 1")

    try:
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError) as e:  # e.g. a negative seed entry
        raise DomainError(
            f"seed {seed!r} is not a valid generator seed: {e}") from e
    best = None
    for i in range(1, max_iters + 1):
        # min/max on Python floats: np.clip on a scalar costs several us a pulse
        g = float(min(max(target + rng.normal(0.0, sigma), p.g_min), p.g_max))
        if best is None or abs(g - target) < abs(best - target):
            best = g
        if abs(g - target) <= tol:
            return ProgramResult(MemristorState(g=g, sigma_prog=sigma), i)
    raise ProgrammingError(
        f"no convergence to {target:.3e} S within {max_iters} pulses "
        f"(best {best:.3e} S)", best_g=best, iterations=max_iters)
