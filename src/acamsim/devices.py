"""Behavioral models of the devices inside a 6T2M / 4T4M analog CAM cell.

Each cell bound is set by a voltage divider: a series transistor whose gate
is driven by the data line (DL), stacked on a programmable memristor between
the search supply SL_hi and ground. The divider midpoint drives the gate of
a match-line pull-down transistor. All models here are quasi-static and
expressed as conductances:

* ``transistor_conductance`` - channel conductance of the divider transistor
  vs. DL voltage: linear (triode) ``beta * (v - v_th)`` above threshold, a
  sub-threshold exponential with slope ``swing`` mV/decade below it, joined
  C1 over a small blend window so root-finding never sees a kink. Its
  inverse is closed form on both branches; in the window, Newton steps and
  a few-ulp settle step land where a bisection of the window settles.
  ``_reach_voltages`` gives the first float at which the curve reaches a
  conductance, which lets the array search keep its edges in DL volts.
* ``_divider_midpoint`` - the midpoint ``v_slhi * g_m / (g_m + g_t)``;
  it, its two inverses and the inverter pair are the one divider model.
* ``pulldown_conductance`` - the ML pull-down channel vs. its gate voltage:
  ``g_on`` at/above threshold, ``g_off * 10**((v_g - v_th_ml)/swing)`` below,
  again C1-blended at the top of the sub-threshold branch.
* ``ts_conductance_off_curve`` - the OFF branch of the volatile
  threshold-switching device (fresh each search) that replaces the
  pull-down in the low-leak pull-up cell variant.
* ``program_memristor`` - iterative program-and-verify write with Gaussian
  per-pulse error.

Functions accept scalars or numpy arrays (voltages or conductances).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, ProgrammingError

# C1 smoothing window around the divider transistor threshold (V). Keeps the
# piecewise conductance model differentiable so root-finding never sees a kink.
BLEND_V = 0.010

# Inverting the blend window: Newton steps, then at most BLEND_SETTLE_ULPS
# one-ulp moves to the settle pair; an element left unsettled is bisected.
BLEND_NEWTON_STEPS = 8
BLEND_SETTLE_ULPS = 16
# Up to this many targets, the Newton steps run on Python floats: numpy's
# per-call overhead would cost more.
BLEND_NEWTON_FLOATS = 8
# Mapping conductance edges to DL voltages: each seed is checked this many
# ulps either side in one call; an element left unsettled is bisected.
EDGE_CHECK_ULPS = 3

# Transition width of the ML pull-down at its threshold (V). The nominal
# model is a step from the sub-threshold branch to g_on; this narrow C1 ramp
# stands in for the step so array-level boundaries move smoothly.
PD_BLEND_V = 0.003

# Per-pulse write noise (standard deviation) of program_memristor (S).
DEFAULT_PROGRAM_SIGMA = 2e-6

LN10 = math.log(10.0)
# Smallest sub-threshold swing (mV/decade) at which the blend of
# transistor_conductance never decreases: its Hermite has end slopes
# ln10 * BLEND_V / (3 * swing_V) and 4/3 of its rise, monotone for a first
# slope up to (7 + 2 * sqrt(6)) / 3.
MIN_SWING = LN10 * BLEND_V * 1e3 / (7 + 2 * math.sqrt(6))


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
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise DomainError(f"{f.name} must be finite")
        if not (0.0 < self.v_th_ml < self.v_slhi):
            raise DomainError(f"v_th_ml={self.v_th_ml} must lie in (0, v_slhi)")
        if not (0.0 < self.v_th_inv < self.v_slhi):
            raise DomainError(f"v_th_inv={self.v_th_inv} must lie in (0, v_slhi)")
        if self.g_off >= self.g_on:
            raise DomainError("g_off must be below g_on")
        if self.g_off < 0:
            raise DomainError("g_off must be non-negative")
        if self.g_min <= 0:
            raise DomainError("g_min must be positive")
        if self.g_min >= self.g_max:
            raise DomainError("g_min must be below g_max")
        if self.beta <= 0:
            raise DomainError("beta must be positive")
        if self.swing < MIN_SWING:
            raise DomainError(f"swing must be at least {MIN_SWING:.4f} mV/decade, "
                              "or the divider conductance curve decreases")
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


@dataclass(frozen=True)
class MemristorState:
    """A programmed non-volatile memristor."""

    g: float  # programmed conductance (S)


@dataclass(frozen=True)
class ProgramResult:
    state: MemristorState
    iterations: int


@dataclass(frozen=True)
class TsDeviceParams:
    """Volatile threshold-switching device for the 4T4M pull-up cell variant."""

    v_threshold: float = 0.4   # turn-on voltage (V)
    swing_ts: float = 1.0      # transition slope (mV/decade)
    g_ts_on: float = 1e-3      # ON conductance (S)
    g_ts_off: float = 1e-9     # OFF leakage (S)

    def __post_init__(self):
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


def _blend_knots(p: DeviceParams):
    """``(y0, m0, y1, m1)`` of ``transistor_conductance``'s blend Hermite:
    the exponential's value and slope at v_th, the line's at v_th + BLEND_V."""
    e0, e1 = p.beta * BLEND_V / 4.0, p.beta * BLEND_V
    return e0, e0 * LN10 / (p.swing * 1e-3) * BLEND_V, e1, e1


def transistor_conductance(v_dl, p: DeviceParams):
    """Channel conductance of the divider transistor at DL voltage ``v_dl``.

    Triode branch ``beta * (v_dl - v_th)`` for v_dl >= v_th + BLEND_V, a
    sub-threshold exponential with the configured swing below v_th, and a
    monotone C1 Hermite blend in between. The sub-threshold magnitude at
    threshold is anchored at ``beta * BLEND_V / 4`` so the blend stays
    monotone (Fritsch-Carlson condition). Each element is evaluated on its
    own branch only: the triode line everywhere, then the exponential where
    ``v_dl <= v_th`` and the blend where ``v_th < v_dl < v_th + BLEND_V``.
    """
    v = np.asarray(v_dl, dtype=float)
    swing_v = p.swing * 1e-3
    e0 = p.beta * BLEND_V / 4.0
    # out= keeps 0-d inputs as 0-d arrays, which the masks below can index
    u = np.subtract(v, p.v_th, out=np.empty(v.shape))
    out = np.multiply(u, p.beta, out=np.empty(v.shape))
    sub = u <= 0.0
    if sub.any():
        out[sub] = e0 * np.power(10.0, u[sub] / swing_v)
    blend = ~sub & (u < BLEND_V)
    if blend.any():
        out[blend] = _hermite(u[blend] / BLEND_V, *_blend_knots(p))
    return float(out) if np.isscalar(v_dl) else out


def _bisect(below, lo, hi, steps: int, tol: float = 0.0):
    """``(lo, hi)``, arrays of the result's shape, halved ``steps`` times
    elementwise: ``below`` holds at ``lo`` and fails at ``hi`` (either may be
    the larger), and each step moves the end on the midpoint's side to the
    midpoint. With ``tol``, an element stops once ``|hi - lo| < tol``."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    live, last = True, None
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if last is not None and (mid == last).all():
            break  # every end already sits where this step would put it
        side = below(mid) & live
        np.copyto(lo, mid, where=side)  # in place: a third of np.where's cost
        np.copyto(hi, mid, where=side ^ live)
        if tol:
            live = live & (abs(hi - lo) >= tol)
            if not live.any():
                break
        last = mid
    return lo, hi


def _blend_newton(g, p: DeviceParams):
    """DL voltages near where the blend Hermite reaches ``g`` (1-d, inside
    the window): BLEND_NEWTON_STEPS Newton steps on the Hermite, a cubic in
    ``u = (v - v_th) / BLEND_V``, from linear interpolation, each clipped
    to [0, 1]. They land within an ulp or so of the crossing."""
    y0, m0, y1, m1 = _blend_knots(p)
    c2, c3 = 3 * (y1 - y0) - 2 * m0 - m1, 2 * (y0 - y1) + m0 + m1

    def solve(g, clip):  # the same float arithmetic on arrays and on floats
        u = (g - y0) / (y1 - y0)
        for _ in range(BLEND_NEWTON_STEPS):
            f = ((c3 * u + c2) * u + m0) * u + y0 - g
            u = clip(u - f / ((3 * c3 * u + 2 * c2) * u + m0))
        return p.v_th + u * BLEND_V

    if g.size > BLEND_NEWTON_FLOATS:
        return solve(g, lambda u: np.minimum(np.maximum(u, 0.0), 1.0))
    return np.array([solve(x, lambda u: min(max(u, 0.0), 1.0))
                     for x in g.tolist()])


def _blend_inverse(g, p: DeviceParams):
    """Inverse of ``transistor_conductance`` on blend-window targets ``g``
    (1-d): ``0.5 * (lo + nextafter(lo, inf))`` for the last ``lo`` below
    v_th + BLEND_V with ``transistor_conductance(lo) < g``, unique as the
    curve never decreases. A 60-step bisection of the window settles there
    bit for bit for any v_th of 0.1 mV or more.

    The settle step walks ulp by ulp from :func:`_blend_newton`'s seed.
    Elements still unsettled after BLEND_SETTLE_ULPS moves are bisected.
    """
    top = p.v_th + BLEND_V  # the bisection's upper end: never below g
    lo = _blend_newton(g, p)
    settled = np.zeros(g.shape, dtype=bool)
    for _ in range(BLEND_SETTLE_ULPS):
        pair = np.stack([lo, np.nextafter(lo, math.inf)])
        below_lo, below_up = (transistor_conductance(pair, p) < g) & (pair < top)
        settled = below_lo & ~below_up
        if settled.all():
            break
        lo = np.where(settled, lo, np.where(below_lo, pair[1],
                                            np.nextafter(lo, -math.inf)))
    v = 0.5 * (lo + np.nextafter(lo, math.inf))
    if not settled.all():
        g_r = g[~settled]
        v_th = np.full(g_r.shape, p.v_th)
        a, b = _bisect(lambda x: transistor_conductance(x, p) < g_r,
                       v_th, v_th + BLEND_V, 60)
        v[~settled] = 0.5 * (a + b)
    return v


@functools.lru_cache(maxsize=64)
def _rail_conductances(p: DeviceParams) -> tuple[float, float]:
    """``transistor_conductance`` at 0 V and at 1 V."""
    return tuple(transistor_conductance(np.array([0.0, 1.0]), p).tolist())


def _reach_voltages(g, p: DeviceParams) -> np.ndarray:
    """Smallest float ``v`` with ``transistor_conductance(v) >= g``, per
    element of ``g``: ``-inf`` where ``g`` is at most the conductance at
    0 V and ``inf`` where it is above the one at 1 V.

    As the curve never decreases, ``v >= reach`` and ``g_t(v) >= g`` agree
    for every ``v`` in [0, 1] V. Seeds come from the closed forms of the
    triode and sub-threshold branches and :func:`_blend_newton`; one call
    evaluates EDGE_CHECK_ULPS ulps either side of each, and the first float
    that reaches ``g`` is the answer where the window holds the step.
    Other elements are bisected on float ordinals, which is exact.
    """
    g = np.asarray(g, dtype=float)
    g_0, g_1 = _rail_conductances(p)
    out = np.where(g <= g_0, -math.inf, math.inf)
    inside = (g > g_0) & (g <= g_1)
    x = g[inside]
    e0, e1 = p.beta * BLEND_V / 4.0, p.beta * BLEND_V
    seed = np.where(x >= e1, p.v_th + x / p.beta,
                    p.v_th + p.swing * 1e-3 * np.log10(x / e0))
    blend = (x > e0) & (x < e1)
    if blend.any():
        seed[blend] = _blend_newton(x[blend], p)
    # the answer lies in (0, 1], and on positive floats the int64 bit
    # pattern counts ulps
    ords = np.minimum(np.maximum(seed, 5e-324), 1.0).view(np.int64)[:, None]
    ords = ords + np.arange(-EDGE_CHECK_ULPS, EDGE_CHECK_ULPS + 1)
    near = np.maximum(ords, 0).view(float)
    reached = transistor_conductance(near, p) >= x[:, None]
    v = near[np.arange(x.size), reached.argmax(axis=1)]
    missed = reached[:, 0] | ~reached[:, -1]
    if missed.any():
        lo = np.zeros(np.count_nonzero(missed), dtype=np.int64)
        hi = np.full(lo.shape, np.float64(1.0).view(np.int64))
        for _ in range(62):  # [0, 1] V spans under 2**62 ordinals
            mid = (lo + hi) >> 1
            up = transistor_conductance(mid.view(float), p) >= x[missed]
            lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
        v[missed] = hi.view(float)
    out[inside] = v
    return out


def transistor_conductance_inverse(g_t, p: DeviceParams):
    """DL voltage at which the divider transistor reaches conductance ``g_t``.

    Elementwise. Closed form on the triode and sub-threshold branches (the
    latter through ``math.log10``, whose rounding lowered targets and level
    windows depend on); in the blend window, Newton steps on the blend
    Hermite and a settle step of a few ulps (:func:`_blend_inverse`) give,
    bit for bit, the float a bisection of the window settles on.
    Raises :class:`DomainError` unless every target is positive and finite.
    """
    g = np.asarray(g_t, dtype=float)
    flat = g.ravel().tolist()  # for math.log10, and cheaper than numpy here
    bad = [x for x in flat if not 0.0 < x < math.inf]  # NaN is bad too
    if bad:
        raise DomainError("target conductance must be positive" if bad[0] <= 0
                          else f"target conductance must be finite, got {bad[0]}")
    swing_v = p.swing * 1e-3
    e0 = p.beta * BLEND_V / 4.0
    v = np.array([p.v_th + x / p.beta if x >= p.beta * BLEND_V
                  else p.v_th + swing_v * math.log10(x / e0) if x <= e0
                  else math.nan for x in flat]).reshape(g.shape)
    blend = np.isnan(v)
    if blend.any():
        v[blend] = _blend_inverse(g[blend], p)
    return float(v) if np.isscalar(g_t) else v


def inverter_output(v_in, p: DeviceParams):
    """Output of the in-cell inverter driving the upper-bound pull-down gate.

    Linear gain around the switching threshold, clipped to the SL_hi rail:
    ``clip(v_th_inv - inv_gain * (v_in - v_th_inv), 0, v_slhi)``.
    """
    v = np.asarray(v_in, dtype=float)
    out = np.clip(p.v_th_inv - p.inv_gain * (v - p.v_th_inv), 0.0, p.v_slhi)
    return float(out) if np.isscalar(v_in) else out


def _inverter_input(v_out, p: DeviceParams):
    """Inverter input at which its linear region outputs ``v_out``."""
    return p.v_th_inv - (v_out - p.v_th_inv) / p.inv_gain


def _divider_midpoint(g_m, g_t, p: DeviceParams):
    """Midpoint of memristor ``g_m`` (to SL_hi) over transistor ``g_t``."""
    return p.v_slhi * g_m / (g_m + g_t)


def _divider_transistor(g_m, v_mid, p: DeviceParams):
    """Transistor conductance putting the midpoint over ``g_m`` at ``v_mid``."""
    return g_m * (p.v_slhi / v_mid - 1.0)


def _divider_memristor(g_t, v_mid, p: DeviceParams):
    """Memristor conductance putting the midpoint over ``g_t`` at ``v_mid``
    (in this form: lowered conductance targets depend on its rounding)."""
    return g_t * v_mid / (p.v_slhi - v_mid)


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
                      p: DeviceParams) -> ProgramResult:
    """Program-and-verify write loop.

    Each pulse lands at ``target + N(0, DEFAULT_PROGRAM_SIGMA)`` clipped to
    the conductance window; the loop stops once the read-back error is
    within ``tol``. Deterministic for a given ``seed``, which seeds
    ``np.random.default_rng``. Raises :class:`DomainError` for a
    non-finite or non-positive ``tol`` and a seed numpy rejects (a
    negative entry, say), and
    :class:`ProgrammingError` carrying the best conductance reached if
    ``max_iters`` pulses are not enough.
    """
    if not (p.g_min <= target <= p.g_max):
        raise DomainError(
            f"target {target:.3e} S outside window [{p.g_min:.3e}, {p.g_max:.3e}] S")
    if not (0 < tol < math.inf):
        raise DomainError(f"tolerance must be positive and finite, got {tol}")
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
        g = target + rng.normal(0.0, DEFAULT_PROGRAM_SIGMA)
        g = float(min(max(g, p.g_min), p.g_max))
        if best is None or abs(g - target) < abs(best - target):
            best = g
        if abs(g - target) <= tol:
            return ProgramResult(MemristorState(g=g), i)
    raise ProgrammingError(
        f"no convergence to {target:.3e} S within {max_iters} pulses "
        f"(best {best:.3e} S)", best_g=best, iterations=max_iters)
