"""Closed-form trace and length bounds for systoles, with frozen constants.

Two headline quantities are assembled here.  For a non-compact finite-volume
hyperbolic 3-manifold of volume V the systole length is at most
``cusped_systole_bound(V)``; for a hyperbolic link complement inside a closed
manifold of volume V it is at most ``link_systole_bound(V)``.  The remaining
functions are the individual trace bounds those results are built from, all
total over their stated domains with explicit ValueError domain guards (never
a silent NaN).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

from .cusp import max_waist_for_cusp_volume
from .mobius import _length

__all__ = [
    "IDEAL_TETRAHEDRON_VOLUME",
    "CUSP_DENSITY_BOUND",
    "ADAMS_REID_LENGTH",
    "CUSP_VOLUME_THRESHOLD",
    "MIN_CUSP_VOLUME_AT_WAIST_2PI",
    "lobachevsky",
    "adams_reid_trace_bound",
    "adams_reid_length_bound",
    "loxodromic_length_bound",
    "min_trace_bound",
    "cusp_volume_trace_bound",
    "cusped_systole_bound",
    "link_systole_bound",
    "drilled_trace_bound",
    "filling_slope_trace_bound",
    "crossing_volume",
    "BoundProfile",
]


def _require(condition: bool, message: str, *args) -> None:
    # The message is formatted only on failure: the scalar bounds run millions
    # of times per sweep, and building a float's repr on every passing call
    # cost more than the bound itself.
    if not condition:
        raise ValueError(message.format(*args))


@cache
def _zeta_ratios() -> tuple[float, ...]:
    # zeta(2n) / pi^(2n) = (-1)^(n+1) * B_(2n) * 2^(2n-1) / (2n)! for n = 1..30, each
    # rounded once; B_m by the defining recurrence, with B_1 = -1/2.
    from fractions import Fraction  # here, not at the top: no command needs it
    b = [Fraction(1)]
    for k in range(1, 61):
        b.append(-sum(math.comb(k + 1, j) * b[j] for j in range(k)) / (k + 1))
    return tuple(float((-1) ** (n + 1) * b[2 * n] * (2 ** (2 * n - 1)) / Fraction(math.factorial(2 * n)))
                 for n in range(1, 31))


def lobachevsky(theta: float) -> float:
    """Lobachevsky function  -integral_0^theta log|2 sin t| dt  for 0 < theta < pi.

    The function is odd and pi-periodic, so above pi/2 it is -lobachevsky(pi - theta),
    where pi - theta is exact (Sterbenz).  On (0, pi/2] it is the classical series
    theta*(1 - log(2*theta)) + sum_n zeta(2n)/(n*(2n+1)) * theta^(2n+1)/pi^(2n)
    to n = 30, where (theta/pi)^60 < 1e-18.  The error is within an absolute 5e-15
    on all of (0, pi): absolute, because the function is 0 at pi/2.
    """
    theta = float(theta)
    _require(0 < theta < math.pi, "theta must lie in (0, pi), got {}", theta)
    if theta > math.pi / 2:
        return -lobachevsky(math.pi - theta)
    total = theta * (1 - math.log(2 * theta))
    theta_sq = theta * theta
    power = theta_sq
    for n, ratio in enumerate(_zeta_ratios(), 1):
        total += ratio * power * theta / (n * (2 * n + 1))
        power *= theta_sq
    return total


# Volume of the regular ideal tetrahedron, 3 * lobachevsky(pi/3).  Frozen at
# double precision; scripts/compute_constants.py reproduces it to 30 digits.
IDEAL_TETRAHEDRON_VOLUME = 1.0149416064096537

# Upper bound sqrt(3)/(2 V0) for the cusp density of a hyperbolic 3-manifold
# (Meyerhoff, via Boroczky's horoball packing bound), about 0.853.
CUSP_DENSITY_BOUND = math.sqrt(3.0) / (2.0 * IDEAL_TETRAHEDRON_VOLUME)

# Smallest cusp volume for which the cusp-volume trace bound dominates the
# shifted-parabolic bound sqrt(ell^2 + 4) at the largest waist ell:
# 8/(3*sqrt(3)), about 1.5396.
CUSP_VOLUME_THRESHOLD = 8.0 / (3.0 * math.sqrt(3.0))

# Smallest volume of a maximal cusp whose waist size is at least 2*pi:
# (sqrt(3)/4) * (2*pi)^2, about 17.0946.
MIN_CUSP_VOLUME_AT_WAIST_2PI = math.sqrt(3.0) * math.pi**2


def adams_reid_trace_bound(w: float) -> float:
    """Adams-Reid bound sqrt(w^4 + 4) on the minimal loxodromic trace modulus
    of a cusped group with a slope of length w > 2."""
    w = float(w)
    _require(w > 2, "slope length must exceed 2, got {}", w)
    return math.sqrt(w**4 + 4)


def adams_reid_length_bound(w: float) -> float:
    """Adams-Reid systole bound Re(2*arccosh((2 + w^2 i)/2)) for a slope of
    length w > 2 (the exact translation length of the worst-case trace)."""
    w = float(w)
    _require(w > 2, "slope length must exceed 2, got {}", w)
    return _length(complex(2, w * w))


def loxodromic_length_bound(r: float) -> float:
    """log(r^2 + 4): translation-length bound for trace modulus at most r."""
    r = float(r)
    _require(r >= 0, "trace modulus bound must be nonnegative, got {}", r)
    return math.log(r * r + 4)


def min_trace_bound(ell: float, vc: float) -> float:
    """Pointwise best of the torus-diameter and Adams-Reid trace bounds.

    The torus term sqrt(ell^2/4 + vc^2/ell^2) bounds the trace through the
    diameter of a cusp torus of waist ell and area 2*vc (the half-diagonal of
    the extremal rectangle); where vc*vc overflows it is hypot(ell/2, vc/ell).
    The result equals, bit for bit and error for error, the minimum of that
    term, guarded by ell > 0 and vc > 0, and ``adams_reid_trace_bound(ell)``,
    evaluated in one frame because the techlem2 sweep calls it once per point.
    On the maximal cusp of Gamma(pi^n) it is below the exact least loxodromic
    |trace| at 12 of 13 measured levels (see the FOUND on it in CHANGES.md).

    The Adams-Reid power is skipped where the torus term is below
    ``ell*ell * (1 - 1e-15)``.  That skip is exact: with libm's ``pow`` and a
    correctly rounded ``sqrt``, each within about one ulp,
    ``sqrt(ell**4 + 4) >= ell^2 * (1 - 4.5e-16)``, while the rounded
    ``ell*ell * (1 - 1e-15)`` is at most ``ell^2 * (1 - 7e-16)``; so on a
    skipped point the Adams-Reid term could never be the minimum.  Below
    ``ell = 1e77`` the power cannot overflow, so no OverflowError is skipped
    either.  The rest is ``min()``'s rule: the first argument on a tie or NaN.
    """
    ell, vc = float(ell), float(vc)
    if not (ell > 2 and vc > 0):
        # A single test on the sweep's path; the guards name the first failure.
        _require(ell > 0, "waist size must be positive, got {}", ell)
        _require(vc > 0, "cusp volume must be positive, got {}", vc)
        _require(ell > 2, "slope length must exceed 2, got {}", ell)
    e2 = ell * ell
    torus = math.sqrt(e2 / 4 + vc * vc / e2)
    if torus < e2 * (1 - 1e-15) and ell < 1e77:
        return torus
    torus = torus if torus < math.inf else math.hypot(ell / 2, vc / ell)  # vc*vc overflows
    ar = math.sqrt(ell**4 + 4)
    return ar if ar < torus else torus


def cusp_volume_trace_bound(vc: float, enforce_domain: bool = True) -> float:
    """sqrt(2*vc^(4/3) + 4): trace bound depending only on the cusp volume.

    Dominates min_trace_bound over the whole waist interval once
    vc >= CUSP_VOLUME_THRESHOLD.  Pass enforce_domain=False to evaluate the
    bare formula at any positive volume (drilled_trace_bound and techlem2 do).
    Where 2*vc^(4/3) overflows (vc above about 9.2e230; the power raises from
    about 1.55e231), the 4 is swamped, and it is sqrt(2)*vc^(2/3).
    """
    vc = float(vc)
    _require(vc > 0, "cusp volume must be positive, got {}", vc)
    if enforce_domain:
        _require(
            vc >= CUSP_VOLUME_THRESHOLD,
            "cusp volume {} below threshold {}", vc, CUSP_VOLUME_THRESHOLD,
        )
    if vc < 1.5e231 and (bound := math.sqrt(2 * vc ** (4 / 3) + 4)) < math.inf:
        return bound
    return math.sqrt(2) * vc ** (2 / 3)


def cusped_systole_bound(v: float) -> float:
    """Systole bound max(ADAMS_REID_LENGTH, log(2*(C0*v)^(4/3) + 8)) for a
    non-compact finite-volume hyperbolic 3-manifold of volume v."""
    v = float(v)
    _require(v > 0, "volume must be positive, got {}", v)
    vc = CUSP_DENSITY_BOUND * v
    try:
        bound = math.log(2 * vc ** (4 / 3) + 8)
    except OverflowError:
        bound = math.inf
    if bound == math.inf:  # 2*vc^(4/3) overflows (v above about 1.8e231), and swamps the 8
        bound = math.log(2) + (4 / 3) * math.log(vc)
    return max(ADAMS_REID_LENGTH, bound)


def link_systole_bound(v: float) -> float:
    """Systole bound log((sqrt(2)*(C0*v)^(2/3) + 4*pi^2)^2 + 8) for a
    hyperbolic link complement in a closed manifold of volume v (v = 0
    encodes a non-hyperbolic closed manifold)."""
    v = float(v)
    _require(v >= 0, "volume must be nonnegative, got {}", v)
    vc = CUSP_DENSITY_BOUND * v
    w = math.sqrt(2) * vc ** (2 / 3) + 4 * math.pi**2
    try:
        return math.log(w**2 + 8)
    except OverflowError:  # w^2 overflows (v above about 1.1e231), and swamps the 8
        return 2 * math.log(w)


def drilled_trace_bound(x: float) -> float:
    """Trace bound sqrt(2*(C0*x)^(4/3) + 4) as a function of the drilled
    manifold's volume x (increasing in x)."""
    x = float(x)
    _require(x > 0, "volume must be positive, got {}", x)
    return cusp_volume_trace_bound(CUSP_DENSITY_BOUND * x, enforce_domain=False)


def filling_slope_trace_bound(x: float, v: float) -> float:
    """Trace bound sqrt(16*pi^4/(1 - (v/x)^(2/3))^2 + 4) via the filling-slope
    length (decreasing in x on (v, infinity))."""
    v, x = float(v), float(x)
    _require(v >= 0, "closed volume must be nonnegative, got {}", v)
    _require(x > v, "complement volume {} must exceed closed volume {}", x, v)
    denom = 1 - (v / x) ** (2 / 3)
    if denom <= 0:
        return math.inf
    return math.sqrt(16 * math.pi**4 / denom**2 + 4)


def crossing_volume(v: float) -> float:
    """Unique complement volume where the drilled and filling-slope trace
    bounds agree: (v^(2/3) + 4*pi^2/(sqrt(2)*C0^(2/3)))^(3/2)."""
    v = float(v)
    _require(v >= 0, "volume must be nonnegative, got {}", v)
    return (v ** (2 / 3) + 4 * math.pi**2 / (math.sqrt(2) * CUSP_DENSITY_BOUND ** (2 / 3))) ** 1.5


# Exact translation length of the worst-case Adams-Reid trace 2 + (2*pi)^2 i,
# the universal systole bound for slopes of length 2*pi.
ADAMS_REID_LENGTH = adams_reid_length_bound(2 * math.pi)


@dataclass(frozen=True)
class BoundProfile:
    """A closed-manifold volume with every derived bound quantity."""

    volume: float
    cusp_volume: float
    max_waist: float
    cusped_bound: float
    link_bound: float
    crossing: float

    @classmethod
    def from_volume(cls, v: float) -> "BoundProfile":
        v = float(v)
        _require(v >= 0, "volume must be nonnegative, got {}", v)
        vc = CUSP_DENSITY_BOUND * v
        return cls(
            volume=v,
            cusp_volume=vc,
            max_waist=max_waist_for_cusp_volume(vc) if vc > 0 else 0.0,
            # At v = 0 the formula's log 8 is below ADAMS_REID_LENGTH.
            cusped_bound=cusped_systole_bound(v) if v > 0 else ADAMS_REID_LENGTH,
            link_bound=link_systole_bound(v),
            crossing=crossing_volume(v),
        )
