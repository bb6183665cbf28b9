"""Numerical certification sweeps for the bound inequalities.

Each ``certify_*`` function checks one family of claims over a grid or a
seeded random sweep and returns a :class:`CertificateReport`.  Margins are
the primitive output: they are oriented so that nonnegative means the claim
holds, and the worst (smallest) margin with its location is reported.  Exact
algebraic identities that accompany an inequality (for example the
closed-form expression of a bound) are checked as gates: a gate violation is
reported as the negative worst margin, while a clean run reports the
inequality's own worst margin, which is the informative one for plotting
tightness.

Every claim reduces its margin arrays with ``_worst``, one per kind of gate or
inequality (and per draw block for ``length-lemma``), hands the results to
``_report`` as (margin, point) candidates, and keeps its margin rows, if
``margin_rows`` is a list, as one (rows, 3) float block (one per draw block for
``length-lemma``).

Reports are deterministic given a grid and a seed; the seed of a randomized
sweep is recorded in the claim id.

This is the one module that evaluates on arrays: its twins of scalar code,
``_crossing_trace_bounds`` and ``trace_translation_lengths``, give each lane
the scalar result bit for bit.  In them numpy does only +, -, *, /, sqrt,
abs, copysign and hypot, which round as Python's floats do; every pow, cos,
sin, exp and asinh is Python's (libm), a lane at a time, because numpy's own
differ in the last bit on a few percent of lanes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, NamedTuple

import numpy as np

from . import bounds, cusp
from .mobius import TAU_CLASS, MoebiusElement, NonLoxodromicError

DEFAULT_SEED = 42
CROSSING_REL_TOL = 1e-10
IDENTITY_REL_TOL = 1e-12

_BISECTION_MAX_STEPS = 200
# Volumes per bisection block, and lanes per monotonic-gate call past one volume's samples.
_LANE_BLOCK = 8192
# Uniform pairs per draw, and traces per kernel call: the stream of scalar draws,
# at a call per block and flat memory.
_DRAW_BLOCK = 4096
_SCALES = ("linear", "log")
MAX_LANES = sys.maxsize // 8  # the most float64 lanes one array can hold
# The most length-lemma samples one run takes.  The draws stream, so no array
# refuses a larger count, and the time grows with it: `verify length-lemma
# --samples 20000000 --margins-csv /dev/null` ran in 26.4 s and peaked at 499 MiB
# resident (1.3 us per sample with its CSV row; 2-vCPU x86-64, Python 3.11), about
# the time the census budget stands for.
MAX_SAMPLES = 20_000_000
# The part above which cmath.acosh changes formula.
_CM_LARGE_DOUBLE = sys.float_info.max / 4


def _spaced(space, *args, **kwargs) -> np.ndarray:
    """``space(*args, **kwargs)``, for ``np.linspace`` or ``np.geomspace`` on
    arguments checked beforehand, so that numpy's one ValueError left is its
    refusal of an array past the address space: its arange takes the count
    as a double, which rounds a count from MAX_LANES - 63 on up to 2**60.
    It is raised as the MemoryError of every other count too large to allocate."""
    try:
        return space(*args, **kwargs)
    except ValueError as exc:
        raise MemoryError(str(exc)) from None


@dataclass(frozen=True)
class GridSpec:
    """A 1-d evaluation grid, linear or logarithmic."""

    lo: float
    hi: float
    points: int
    scale: str = "linear"

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        object.__setattr__(self, "points", int(self.points))
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"grid bounds must be finite, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise ValueError(f"grid needs lo < hi, got [{self.lo}, {self.hi}]")
        if self.points < 2:
            raise ValueError(f"grid needs at least 2 points, got {self.points}")
        if self.points > MAX_LANES:
            raise ValueError(f"grid needs at most {MAX_LANES} points, got {self.points}")
        if self.scale not in _SCALES:
            raise ValueError(f"scale must be 'linear' or 'log', got {self.scale!r}")
        if self.scale == "log" and self.lo <= 0:
            raise ValueError("log-scale grid needs lo > 0")

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return _spaced(np.geomspace, self.lo, self.hi, self.points)
        return _spaced(np.linspace, self.lo, self.hi, self.points)


@dataclass(frozen=True)
class CertificateReport:
    claim_id: str
    status: str
    worst_margin: float
    worst_point: tuple[float, ...]
    points_checked: int

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _worst(margins, *coords) -> tuple[float, tuple[float, ...]]:
    """The first smallest of the 1-d float array ``margins``, with its point:
    the entries of the coordinate arrays ``coords`` there.  A NaN or an inf
    margin never wins; with no margin below inf this is ``(inf, ())``."""
    if len(margins):
        i = int(np.argmin(np.where(np.isnan(margins), math.inf, margins)))
        if margins[i] < math.inf:
            return float(margins[i]), tuple(float(c[i]) for c in coords)
    return math.inf, ()


def _report(claim_id: str, points: int, ineqs, gates) -> CertificateReport:
    """The report from a claim's (margin, point) candidates, each list folded in
    order by strict < from inf as in ``_worst``, so that a NaN or an inf never
    wins: the first worst gate if negative, else the first worst inequality."""
    worst = []
    for candidates in (gates, ineqs):
        worst.append((math.inf, ()))
        for candidate in candidates:
            if candidate[0] < worst[-1][0]:
                worst[-1] = candidate
    margin, point = worst[0] if worst[0][0] < 0 else worst[1]
    return CertificateReport(claim_id, "pass" if margin >= 0 else "fail", float(margin),
                             tuple(map(float, point)), int(points))


def _bisect(f, lo, hi, floor):
    """Midpoints of the brackets [lo, hi] of 1-d float arrays, with f(lo) <= 0 <
    f(hi), each lane bisected as a scalar loop would: midpoint, then high on f >
    0 (a NaN goes low), until the width is at most 1e-13 * max(hi, floor) or
    after 200 steps.  ``f(x, lanes)`` takes the midpoints of the lanes still
    live, indices into lo, in blocks of at most _LANE_BLOCK lanes."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    for start in range(0, len(lo), _LANE_BLOCK):
        lanes = np.arange(start, min(start + _LANE_BLOCK, len(lo)))
        for _ in range(_BISECTION_MAX_STEPS):
            a, b = lo[lanes], hi[lanes]
            mid = 0.5 * (a + b)
            up = f(mid, lanes) > 0
            a, b = np.where(up, a, mid), np.where(up, mid, b)
            lo[lanes], hi[lanes] = a, b
            lanes = lanes[~(b - a <= 1e-13 * np.where(floor > b, floor, b))]
            if not len(lanes):
                break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Cusp-volume trace bound sweep (CLI claim "techlem2")
# ---------------------------------------------------------------------------

def certify_cusp_trace_bound(
    vc_grid: GridSpec,
    ell_points: int = 10000,
    *,
    bound_scale: float = 1.0,
    margin_rows: list | None = None,
) -> CertificateReport:
    """Certify that the cusp-volume trace bound dominates the per-slope trace
    bound on the whole waist interval [2*pi, sqrt(4*vc/sqrt(3))].

    For each cusp volume on the grid, the margin
    ``cusp_volume_trace_bound(vc) - min_trace_bound(ell, vc)`` is evaluated on
    a uniform grid of ``ell_points`` slopes.  The closed-form identity
    relating the bound to the Adams-Reid value at the peak slope is checked
    as a gate.  A grid starting below the threshold is refused; below
    sqrt(3)*pi^2 the waist interval is empty and nothing is checked.
    ``bound_scale`` is a self-test hook that multiplies the certified bound;
    anything but 1.0 must flip the gate.
    """
    if ell_points < 2:
        raise ValueError(f"need at least 2 slope points, got {ell_points}")
    if ell_points > MAX_LANES:
        raise ValueError(f"need at most {MAX_LANES} slope points, got {ell_points}")
    if vc_grid.lo < bounds.CUSP_VOLUME_THRESHOLD:
        raise ValueError(f"grid starts below the trace-bound threshold {bounds.CUSP_VOLUME_THRESHOLD}")
    two_pi = 2 * math.pi
    trace_bound = bounds.min_trace_bound
    gates = []
    # Every volume is gated and checked before any is swept, so that a refusal
    # costs no slope loop.
    sweeps = []
    # Python floats, not numpy scalars: the slope loop runs once per point.
    for vc in vc_grid.values().tolist():
        ell_hi = cusp.max_waist_for_cusp_volume(vc)
        try:  # before the gate, whose peak slope's w**4 overflows from about vc = 1.2e231
            ell_hi**4  # the largest ell**4 that min_trace_bound takes at this volume
        except OverflowError:
            raise ValueError(f"techlem2 needs every slope's ell^4 finite, got vc = {vc}") from None
        bound = bound_scale * bounds.cusp_volume_trace_bound(vc, enforce_domain=False)
        w_peak = 2**0.25 * vc ** (1 / 3)
        if w_peak > 2:
            # The bound must agree with the Adams-Reid value at the peak slope.
            relerr = abs(bound - bounds.adams_reid_trace_bound(w_peak)) / bound
            gates.append((IDENTITY_REL_TOL - relerr, (vc,)))
        if ell_hi < two_pi:
            continue  # empty waist interval: nothing to certify at this volume
        sweeps.append((vc, bound, ell_hi))
    rows = []
    for vc, bound, ell_hi in sweeps:
        # A scalar fold by _worst's rule: an array of the margins costs 5-12% more.
        worst, worst_ell = math.inf, two_pi
        for ell in _spaced(np.linspace, two_pi, ell_hi, ell_points).tolist():
            m = bound - trace_bound(ell, vc)
            if m < worst:
                worst, worst_ell = m, ell
        rows.append((vc, worst_ell, worst))
    block = np.array(rows, dtype=float).reshape(-1, 3)
    if margin_rows is not None:
        margin_rows.append(block)
    return _report("techlem2", len(sweeps) * ell_points,
                   [_worst(block[:, 2], block[:, 0], block[:, 1])], gates)


# ---------------------------------------------------------------------------
# Crossing of the drilled and filling-slope trace bounds (CLI claim "crossing")
# ---------------------------------------------------------------------------

def _crossing_trace_bounds(xs, v):
    """Arrays ``drilled_trace_bound(x)`` and ``filling_slope_trace_bound(x, v)``
    over the float64 array ``xs`` of complement volumes and the closed
    volumes ``v`` that broadcast against it, in the broadcast shape: each x
    above its v and below 1e231, past which the scalar drilled bound leaves
    its direct formula.  A refusal names the first lane that fails a guard.

    Equal, lane for lane and bit for bit, to the scalar calls.  Every power is
    Python's, and ``d * d`` differs from ``d**2`` on some lanes, so the square
    is ``pow(d, 2.0)``: Python converts ``d**2``'s int 2 to 2.0 before libm.
    """
    xs, v = np.broadcast_arrays(np.asarray(xs, dtype=float), np.asarray(v, dtype=float))
    n = xs.size
    if n:  # the guards, on the first lane that fails one (else on the first lane)
        i = np.argmin((v >= 0) & (xs > v) & (xs < 1e231))
        x, w = float(xs.flat[i]), float(v.flat[i])
        bounds._require(w >= 0, "closed volume must be nonnegative, got {}", w)
        bounds._require(x > w, "complement volume {} must exceed closed volume {}", x, w)
        bounds._require(x < 1e231, "complement volume {} must be below 1e231", x)
    vc = (bounds.CUSP_DENSITY_BOUND * xs).ravel().tolist()
    drilled = np.sqrt(2 * np.fromiter(map(pow, vc, repeat(4 / 3)), float, n) + 4)
    denom = 1 - np.fromiter(map(pow, (v / xs).ravel().tolist(), repeat(2 / 3)), float, n)
    filling = np.full(n, math.inf)  # where denom <= 0, as in the scalar bound
    live = denom > 0
    squares = np.fromiter(map(pow, denom[live].tolist(), repeat(2.0)), float, int(live.sum()))
    filling[live] = np.sqrt(16 * math.pi**4 / squares + 4)
    return drilled.reshape(xs.shape), filling.reshape(xs.shape)


def _crossing_roots(vs):
    """Root of drilled - filling on (v, inf) per volume of the 1-d array vs, NaN
    where no sign change is proven: bisected from lo just above v, where h < 0,
    to hi = 2*max(v, 1) doubled until h > 0.

    Every bound is evaluated by ``_crossing_trace_bounds``, all live
    lanes per call, and each lane takes the steps of a scalar search.  hi
    doubles only while h(hi) <= 0, below the root, so it stays below
    2*max(crossing, 2); the grid is refused where the crossing rounds to v,
    from about 1.93e24, so no bracket reaches the arrays' limit of 1e231.
    """

    def h(x, lanes):
        drilled, filling = _crossing_trace_bounds(x, vs[lanes])
        return drilled - filling

    every = np.arange(len(vs))
    above = np.nextafter(vs, math.inf)
    lo = np.maximum(vs * (1 + 1e-9), above)
    bracketed = h(lo, every) < 0
    retry = every[~bracketed]  # above about 1e16 the root lies within v*1e-9 of v
    lo[retry] = above[retry]
    bracketed[retry] = h(lo[retry], retry) < 0
    hi = 2 * np.maximum(vs, 1.0)
    lanes = every[bracketed]
    for _ in range(_BISECTION_MAX_STEPS):
        lanes = lanes[~(h(hi[lanes], lanes) > 0)]
        if not len(lanes):
            break
        hi[lanes] *= 2
    bracketed[lanes] = False
    roots = np.full(len(vs), math.nan)
    found = every[bracketed]
    roots[found] = _bisect(lambda x, lanes: h(x, found[lanes]), lo[found], hi[found], 0.0)
    return roots


def certify_crossing(
    v_grid: GridSpec,
    *,
    rel_tol: float = CROSSING_REL_TOL,
    monotonic_samples: int = 1000,
    margin_rows: list | None = None,
) -> CertificateReport:
    """Certify the closed form for the crossing of the two trace bounds.

    For each closed volume v the crossing of the drilled and filling-slope
    trace bounds is located by bisection from a proven sign change and
    compared with the closed-form crossing volume; the margin is
    ``rel_tol - relative difference``.  Monotonicity of the two bounds
    (nondecreasing / nonincreasing) is checked as a gate on a log-spaced
    sample of (v, 100 * crossing], the samples of whole volumes per call, at
    most max(monotonic_samples, _LANE_BLOCK) lanes.
    """
    if v_grid.lo <= 0:
        raise ValueError("crossing certification needs positive volumes")
    if monotonic_samples < 2:
        raise ValueError(f"need at least 2 monotonic samples, got {monotonic_samples}")
    if monotonic_samples > MAX_LANES:
        raise ValueError(f"need at most {MAX_LANES} monotonic samples, got {monotonic_samples}")
    vs = v_grid.values()
    closeds = np.array([bounds.crossing_volume(v) for v in vs.tolist()])
    # Every volume is checked before any is swept.
    for v, closed in zip(vs.tolist(), closeds.tolist()):
        if not closed > v:  # the closed form rounds to v or below from about 1e24 on
            raise ValueError(f"crossing needs crossing_volume(v) > v in doubles, got v = {v}")
    roots = _crossing_roots(vs)
    margins = np.where(np.isnan(roots), -math.inf, rel_tol - np.abs(roots - closeds) / closeds)
    starts = np.maximum(vs * (1 + 1e-6), np.nextafter(vs, math.inf))
    gates = np.empty(len(vs))
    group = max(1, _LANE_BLOCK // monotonic_samples)
    for i in range(0, len(vs), group):
        span = slice(i, i + group)
        xs = _spaced(np.geomspace, starts[span], 100 * closeds[span], monotonic_samples, axis=1)
        f1, f2 = _crossing_trace_bounds(xs, vs[span, None])
        rising = np.min(np.diff(f1, axis=1), axis=1)
        falling = np.min(-np.diff(f2, axis=1), axis=1)
        gates[span] = np.where(falling < rising, falling, rising)  # min(rising, falling)
    block = np.column_stack((vs, closeds, margins))
    if margin_rows is not None:
        margin_rows.append(block)
    return _report("crossing", len(vs) * (1 + 2 * monotonic_samples),
                   [_worst(margins, vs)], [_worst(gates, vs)])


# ---------------------------------------------------------------------------
# Loxodromic length bound and its sharpness (CLI claim "length-lemma")
# ---------------------------------------------------------------------------

def _c_sqrt(re, im):
    """``cmath.sqrt(complex(re, im))`` on arrays, for finite parts not both below DBL_MIN."""
    ax, ay = np.abs(re), np.abs(im)
    s = 2.0 * np.sqrt(ax / 8.0 + np.hypot(ax / 8.0, ay / 8.0))
    d = ay / (2.0 * s)
    return np.where(re >= 0.0, s, d), np.copysign(np.where(re >= 0.0, d, s), im)


def _halved(re, im):
    """``complex(re, im) / 2`` as CPython's Smith division by 2 + 0j takes it, with ratio 0.0."""
    return (re + im * 0.0) / 2.0, (im - re * 0.0) / 2.0


def trace_translation_lengths(x, y):
    """``MoebiusElement.from_trace(complex(x, y)).translation_length()`` over
    float64 arrays of real and imaginary parts, lane for lane and bit for bit.

    Returns the lengths, NaN where not loxodromic, and that mask.  The arrays
    replay CPython's complex steps, and asinh is Python's.  Only a lane where
    lam or 1/lam has a part of DBL_MAX/4 or more (or NaN) goes through the
    element (which may raise the first such lane's error); below the bound
    abs() stays finite and acosh on its ordinary formula.  Where else CPython
    branches, the trace rules reach the element's verdict: a non-finite
    square-root argument makes an entry non-finite; one with both parts below
    DBL_MIN puts the trace within 1e-154 of +/-2; Smith's 1/lam keeps the
    determinant within about 1e-16 of 1, far inside TAU_DET; and lam within
    TAU_CLASS of +/-1 puts the trace within 1e-18 of +/-2.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # mobius._eigenvalue: the root of t*t - (4 + 0j), then (t + root)/2 or (t - root)/2.
        root_re, root_im = _c_sqrt(x * x - y * y - 4.0, x * y + y * x - 0.0)
        a_re, a_im = _halved(x + root_re, y + root_im)
        b_re, b_im = _halved(x - root_re, y - root_im)
        zero = (a_re == 0.0) & (a_im == 0.0)
        a_re, a_im = np.where(zero, b_re, a_re), np.where(zero, b_im, a_im)
        # d = (1 + 0j)/a by Smith's algorithm, which divides by a's larger part.
        wide = np.abs(a_re) >= np.abs(a_im)
        ratio = np.where(wide, a_im / a_re, a_re / a_im)
        denom = np.where(wide, a_re + a_im * ratio, a_re * ratio + a_im)
        d_re = np.where(wide, 1.0 + 0.0 * ratio, 1.0 * ratio + 0.0) / denom
        d_im = np.where(wide, 0.0 - 1.0 * ratio, 0.0 * ratio - 1.0) / denom
        scalar = ~(np.abs(np.stack((a_re, a_im, d_re, d_im))) < _CM_LARGE_DOUBLE).all(axis=0)
        # MoebiusElement.classify at b = c = 0: parabolic or elliptic (an identity is parabolic too).
        t_re, t_im = a_re + d_re, a_im + d_im
        nonlox = (np.abs(t_im) <= TAU_CLASS) & (
            (np.abs(np.abs(t_re) - 2.0) <= TAU_CLASS) | (np.abs(t_re) < 2.0))
        # mobius._length: |2 Re acosh(h)| at h = t/2; Re acosh(h) = asinh(Re(conj(sqrt(h-1)) sqrt(h+1))).
        h_re, h_im = _halved(t_re, t_im)
        s1_re, s1_im = _c_sqrt(h_re - 1.0, h_im)
        s2_re, s2_im = _c_sqrt(1.0 + h_re, h_im)
        fast = ~(nonlox | scalar)
        lengths = np.full(x.shape, math.nan)
        args = (s1_re * s2_re + s1_im * s2_im)[fast].tolist()
        lengths[fast] = np.abs(2.0 * np.fromiter(map(math.asinh, args), float, len(args)))
    for i in np.flatnonzero(scalar).tolist():
        try:
            lengths[i] = MoebiusElement.from_trace(complex(x[i], y[i])).translation_length()
            nonlox[i] = False
        except NonLoxodromicError:
            nonlox[i] = True
    return lengths, nonlox


def certify_length_lemma(
    samples: int,
    r_max: float = 100.0,
    seed: int = DEFAULT_SEED,
    *,
    sharpness_points: int = 1000,
    margin_rows: list | None = None,
) -> CertificateReport:
    """Certify translation_length <= log(r_max^2 + 4) on random loxodromics.

    Traces are drawn with modulus uniform on (0, r_max] and uniform argument,
    _DRAW_BLOCK pairs at a time from the stream of scalar draws, and measured
    by ``trace_translation_lengths``, which gives each the length of its
    ``MoebiusElement.from_trace`` bit for bit; the margin rows come in one
    block per draw.  The same kernel measures the gates: the purely-imaginary
    trace family, where the eigenvalue bound (r + sqrt(r^2 + 4))/2 is
    attained, checked to a relative IDENTITY_REL_TOL at its loxodromic
    traces, and the pinned worst-case trace 2 + (2*pi)^2 i.
    """
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    if samples > MAX_SAMPLES:
        raise ValueError(f"need at most {MAX_SAMPLES} samples, got {samples}")
    if sharpness_points < 0:
        raise ValueError(f"need a nonnegative number of sharpness points, got {sharpness_points}")
    if sharpness_points > MAX_LANES:
        raise ValueError(f"need at most {MAX_LANES} sharpness points, got {sharpness_points}")
    if r_max < 0:
        raise ValueError(f"r_max must be nonnegative, got {r_max}")
    if not math.isfinite(r_max * r_max):
        raise OverflowError(f"r_max^2 is not finite for r_max = {r_max}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    claim_id = f"length-lemma:seed={seed}"
    if r_max == 0:
        return _report(claim_id, 0, [], [])

    rng = np.random.default_rng(seed)
    bound = bounds.loxodromic_length_bound(r_max)
    ineqs, points = [], 0
    for start in range(0, samples, _DRAW_BLOCK):
        u = rng.uniform(size=2 * min(_DRAW_BLOCK, samples - start))
        r, theta = r_max * u[::2], (2 * math.pi * u[1::2]).tolist()
        x = r * np.fromiter(map(math.cos, theta), float, len(theta))
        y = r * np.fromiter(map(math.sin, theta), float, len(theta))
        lengths, nonlox = trace_translation_lengths(x, y)
        block = np.column_stack((x, y, bound - lengths)).compress(~nonlox, axis=0)
        if margin_rows is not None:
            margin_rows.append(block)
        ineqs.append(_worst(block[:, 2], block[:, 0], block[:, 1]))
        points += len(block)

    # The sharpness traces r*i, then the pinned trace as one more lane; a NaN length
    # (not loxodromic) never wins.
    r, pin = _spaced(np.geomspace, min(0.1, r_max), r_max, sharpness_points), (2 * math.pi) ** 2
    lengths, nonlox = trace_translation_lengths(np.append(0 * r, 2.0), np.append(r, pin))
    lam = np.fromiter(map(math.exp, (lengths[:-1] / 2).tolist()), float, len(r))
    expected = (r + np.sqrt(r * r + 4)) / 2
    pinned_len = float(lengths[-1])
    pin_m = min(math.log(bounds.adams_reid_trace_bound(2 * math.pi) ** 2 + 4) - pinned_len,
                1e-5 - abs(pinned_len - 7.35534))
    gates = [_worst(IDENTITY_REL_TOL - np.abs(lam - expected) / expected, 0 * r, r),
             (pin_m, (2.0, pin))]
    return _report(claim_id, points + int(np.count_nonzero(~nonlox)), ineqs, gates)


# ---------------------------------------------------------------------------
# Cubic and quadratic claims behind the cusp-volume trace bound (CLI "cubic")
# ---------------------------------------------------------------------------

def _cubic(x: float, vc: float) -> float:
    try:
        return 4 * x**3 - x**2 + 16 * x - 4 * vc * vc
    except OverflowError:  # x**3 raises where 4*x**3 would be inf
        return math.nan


def certify_cubic_claims(
    vc_grid: GridSpec,
    *,
    margin_rows: list | None = None,
) -> CertificateReport:
    """Certify the calculus facts behind the cusp-volume trace bound.

    The comparison cubic f(x) = 4x^3 - x^2 + 16x - 4*vc^2 has positive
    derivative everywhere (checked on 20001 points of [-1000, 1000] and via
    its negative discriminant); its unique positive root stays below
    sqrt(2)*vc^(2/3) (checked by evaluating f there and by bisection, per
    cusp volume); and the endpoint value x + 4*vc^2/x at x = 4*vc/sqrt(3)
    equals 7*vc/sqrt(3) (gate) and stays below 8*vc^(4/3) + 16 above the
    volume threshold.  A ValueError refuses a positive volume (outside about
    [7.5e-155, 4e153]) where 4*vc^2 is not normal or f overflows at the root bound.
    """
    if vc_grid.lo < 0:
        raise ValueError("cubic claims need nonnegative cusp volumes")
    # Python's pow, one volume at a time; every volume is checked before anything is swept.
    vc = vc_grid.values()
    x_star = np.array([math.sqrt(2) * v ** (2 / 3) for v in vc.tolist()])
    m_claim = np.array([_cubic(x, v) for x, v in zip(x_star.tolist(), vc.tolist())])
    for v, m in zip(vc.tolist(), m_claim.tolist()):
        if v > 0 and not (4 * v * v >= sys.float_info.min and math.isfinite(m)):
            raise ValueError(f"cubic claims need 4*vc^2 normal and the cubic finite, got vc = {v}")
    # Bisect the root, then compare 4x^2 + 16 values.  [0, x_star] is a bracket iff f(x_star)
    # > 0 (f(0) = -4*vc^2 < 0 but at vc = 0, where x_star = 0); without one the claim fails.
    bracket = m_claim > 0
    vb, xb = vc[bracket], x_star[bracket]
    x0 = _bisect(lambda x, lanes: np.fromiter(map(_cubic, x.tolist(), vb[lanes].tolist()), float,
                                              len(x)),
                 np.zeros(len(xb)), xb, 1.0)
    # The endpoint value t = 7*vc/sqrt(3) (a gate), and t < 8*vc^(4/3) + 16 above the threshold.
    endpoint = 4 * vb / math.sqrt(3)
    expected = 7 * vb / math.sqrt(3)
    gate = IDENTITY_REL_TOL - np.abs(endpoint + 4 * vb * vb / endpoint - expected) / expected
    above = vb >= bounds.CUSP_VOLUME_THRESHOLD
    pow43 = np.array([v ** (4 / 3) for v in vb[above].tolist()])
    # f'(x) = 12x^2 - 2x + 16 > 0: negative discriminant, and a direct sweep whose
    # points are counted.  (8 - 2*sqrt(2)) z^2 - sqrt(2) z + 16 > 0: negative discriminant.
    xs = np.linspace(-1e3, 1e3, 20001)
    kinds = [  # per kind of inequality: margins, then the coordinates of their points
        (12 * xs * xs - 2 * xs + 16, xs),
        (np.array([4 * (8 - 2 * math.sqrt(2)) * 16 - 2]), np.zeros(1)),
        (np.where(bracket, m_claim, -math.inf), vc, x_star),
        ((4 * xb * xb + 16) - (4 * x0 * x0 + 16), vb, x0),
        ((8 * pow43 + 16) - expected[above], vb[above], endpoint[above]),
    ]
    if margin_rows is not None:
        margin_rows.append(np.column_stack((vc, x_star, m_claim)))
    return _report("cubic", sum(len(kind[0]) for kind in kinds) + len(gate),
                   [(4 * 12 * 16 - (-2) ** 2, (0.0,)), *(_worst(*kind) for kind in kinds)],
                   [_worst(gate, vb, endpoint)])


# ---------------------------------------------------------------------------
# The claim table behind ``sysbound verify``
# ---------------------------------------------------------------------------

class Param(NamedTuple):
    """A sweep parameter: its CLI flag and config key, how to parse it, its
    default, and for a string its allowed values."""

    name: str
    cast: Callable
    default: object
    choices: tuple[str, ...] | None = None


class Claim(NamedTuple):
    """A verifiable claim: the header of its margin CSV, its parameters, and
    ``run(params, margin_rows)``, which takes the claim's parameters by name
    and no others.

    Runners call the ``certify_*`` sweeps through this module's globals at
    call time, so a wrapper installed on the module attribute sees the call.
    """

    header: tuple[str, ...]
    params: tuple[Param, ...]
    run: Callable[[dict, list | None], CertificateReport]


_VC_GRID = ("vc-min", "vc-max", "vc-points", "vc-scale")
_V_GRID = ("v-min", "v-max", "points", "scale")


def _grid_params(names, lo, points) -> tuple[Param, ...]:
    """Parameters of a grid from ``lo`` to 1e6, log-spaced by default."""
    return (
        Param(names[0], float, lo),
        Param(names[1], float, 1e6),
        Param(names[2], int, points),
        Param(names[3], str, "log", _SCALES),
    )


def _grid(p: dict, names) -> GridSpec:
    return GridSpec(*(p[name] for name in names))


CLAIMS = {
    "techlem2": Claim(
        ("vc", "worst_ell", "margin"),
        (*_grid_params(_VC_GRID, bounds.MIN_CUSP_VOLUME_AT_WAIST_2PI, 200),
         Param("ell-points", int, 10000)),
        lambda p, rows: certify_cusp_trace_bound(_grid(p, _VC_GRID), p["ell-points"],
                                                 margin_rows=rows),
    ),
    "crossing": Claim(
        ("v", "crossing_volume", "margin"),
        (*_grid_params(_V_GRID, 0.1, 100),
         Param("rel-tol", float, CROSSING_REL_TOL),
         Param("monotonic-samples", int, 1000)),
        lambda p, rows: certify_crossing(
            _grid(p, _V_GRID), rel_tol=p["rel-tol"],
            monotonic_samples=p["monotonic-samples"], margin_rows=rows,
        ),
    ),
    "length-lemma": Claim(
        ("trace_re", "trace_im", "margin"),
        (Param("samples", int, 100000),
         Param("r-max", float, 100.0),
         Param("sharpness-points", int, 1000),
         Param("seed", int, DEFAULT_SEED)),
        lambda p, rows: certify_length_lemma(
            p["samples"], p["r-max"], p["seed"],
            sharpness_points=p["sharpness-points"], margin_rows=rows,
        ),
    ),
    "cubic": Claim(
        ("vc", "x", "margin"),
        _grid_params(_VC_GRID, bounds.CUSP_VOLUME_THRESHOLD, 200),
        lambda p, rows: certify_cubic_claims(_grid(p, _VC_GRID), margin_rows=rows),
    ),
}
