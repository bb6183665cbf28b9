"""Orientation-preserving isometries of hyperbolic 3-space.

Elements are 2x2 complex matrices of determinant 1 considered up to global
sign.  Classification follows the usual trace conventions: elliptic for real
trace in (-2, 2), parabolic for real trace equal to +/-2, loxodromic
otherwise.  The translation length of a loxodromic element is the real part
of the complex length 2*arccosh(trace/2), taken on the principal branch and
forced nonnegative.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from enum import Enum

# Working tolerances on doubles.  Determinant deviation triggers
# renormalization; classification treats traces within TAU_CLASS of the
# real axis (resp. of +/-2) as real (resp. parabolic).
TAU_DET = 1e-12
TAU_CLASS = 1e-9

# The least normal double, and the part above which cmath.acosh changes formula.
_DBL_MIN = sys.float_info.min
_CM_LARGE_DOUBLE = sys.float_info.max / 4


class NonLoxodromicError(ValueError):
    """Translation length requested for an element that is not loxodromic."""


class ElementClass(Enum):
    IDENTITY = "identity"
    PARABOLIC = "parabolic"
    ELLIPTIC = "elliptic"
    LOXODROMIC = "loxodromic"


def _as_finite_complex(value, name: str) -> complex:
    z = complex(value)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"entry {name} must be finite, got {z!r}")
    return z


def _unit_scaled(entries) -> tuple[list[complex], int]:
    """The entries times the exact 2^-k that puts their largest part in [1/2, 1), and k."""
    k = math.frexp(max(max(abs(z.real), abs(z.imag)) for z in entries))[1]
    return [complex(math.ldexp(z.real, -k), math.ldexp(z.imag, -k)) for z in entries], k


def _normalized(a, b, c, d) -> list[complex]:
    """The finite entries of (a b; c d), rescaled to determinant 1 when off by more than TAU_DET."""
    entries = [_as_finite_complex(z, name) for z, name in zip((a, b, c, d), "abcd")]
    det = entries[0] * entries[3] - entries[1] * entries[2]
    if not (cmath.isfinite(det) and max(abs(det.real), abs(det.imag)) >= _DBL_MIN):
        entries = _unit_scaled(entries)[0]  # det over- or underflows: take it at unit scale
        det = entries[0] * entries[3] - entries[1] * entries[2]
    if det == 0:
        raise ValueError("matrix is singular")
    if abs(det - 1) > TAU_DET:
        root = cmath.sqrt(det)
        entries = [z / root for z in entries]
    return entries


def _classify(a, b, c, d) -> ElementClass:
    """Conjugacy type of the normalized matrix (a b; c d); see MoebiusElement.classify."""
    tol = TAU_CLASS
    for sign in (1, -1):
        if abs(a - sign) <= tol and abs(b) <= tol and abs(c) <= tol and abs(d - sign) <= tol:
            return ElementClass.IDENTITY
    t = a + d
    if abs(t.imag) <= tol:
        if abs(abs(t.real) - 2) <= tol:
            return ElementClass.PARABOLIC
        if abs(t.real) < 2:
            return ElementClass.ELLIPTIC
    return ElementClass.LOXODROMIC


def _eigenvalue(t: complex) -> complex:
    """A nonzero root lam of lam^2 - t*lam + 1: (t + root)/2, or (t - root)/2
    where the first is zero or cancels so far that its inverse is not finite."""
    root = cmath.sqrt(t * t - 4)
    lam = (t + root) / 2
    if lam == 0 or cmath.isfinite(lam) and not cmath.isfinite(1 / lam):
        return (t - root) / 2
    return lam


def _length(t: complex) -> float:
    """|Re(2*arccosh(t/2))|, the translation length of a loxodromic of trace t."""
    return abs((2 * cmath.acosh(t / 2)).real)


def _c_sqrt(np, re, im):
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

    Returns the lengths, NaN where not loxodromic, and that mask.  numpy
    replays CPython's complex steps with +, -, *, /, sqrt, abs, copysign and
    hypot (which c_sqrt and complex abs call); asinh goes through ``math``, as
    numpy's differs in the last bit on some lanes (3995 of 50 000 sweep
    traces).  Only a lane where lam or 1/lam has a part of DBL_MAX/4 or more
    (or NaN) goes through the element (which may raise the first such lane's
    error); below the bound abs() stays finite and acosh on its ordinary
    formula.  Where else CPython branches, the trace rules reach the element's
    verdict: a non-finite square-root argument makes an entry non-finite; one
    with both parts below DBL_MIN puts the trace within 1e-154 of +/-2; Smith's
    1/lam keeps the determinant within about 1e-16 of 1, far inside TAU_DET;
    and lam within TAU_CLASS of +/-1 puts the trace within 1e-18 of +/-2.
    """
    import numpy as np  # here, so that sysbound.certify stays the one module that loads numpy

    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # _eigenvalue: the root of t*t - (4 + 0j), then (t + root)/2 or (t - root)/2.
        root_re, root_im = _c_sqrt(np, x * x - y * y - 4.0, x * y + y * x - 0.0)
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
        # _classify, with b = c = 0: parabolic or elliptic (an identity is parabolic too).
        t_re, t_im = a_re + d_re, a_im + d_im
        nonlox = (np.abs(t_im) <= TAU_CLASS) & (
            (np.abs(np.abs(t_re) - 2.0) <= TAU_CLASS) | (np.abs(t_re) < 2.0))
        # _length: |2 Re acosh(h)| at h = t/2; Re acosh(h) = asinh(Re(conj(sqrt(h-1)) sqrt(h+1))).
        h_re, h_im = _halved(t_re, t_im)
        s1_re, s1_im = _c_sqrt(np, h_re - 1.0, h_im)
        s2_re, s2_im = _c_sqrt(np, 1.0 + h_re, h_im)
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


@dataclass(frozen=True, eq=False)
class IsometricSphere:
    """Euclidean hemisphere on which a matrix acts as a Euclidean isometry."""

    center: complex
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _as_finite_complex(self.center, "center"))
        object.__setattr__(self, "radius", float(self.radius))
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError(f"radius must be a positive finite real, got {self.radius}")


@dataclass(frozen=True, eq=False)
class MoebiusElement:
    """A matrix (a b; c d), normalized to determinant 1, modulo global sign.

    All predicates and derived quantities are invariant under negating all
    four entries at once.
    """

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        for name, z in zip("abcd", _normalized(self.a, self.b, self.c, self.d)):
            object.__setattr__(self, name, z)

    @classmethod
    def from_trace(cls, trace) -> "MoebiusElement":
        """Diagonal representative diag(lam, 1/lam) with lam + 1/lam = trace.

        The eigenvalue is one root of the characteristic quadratic; traces
        +/-2 therefore yield +/-identity, not a parabolic.
        """
        lam = _eigenvalue(_as_finite_complex(trace, "trace"))
        return cls(lam, 0, 0, 1 / lam)

    @property
    def trace(self) -> complex:
        """Trace a + d of the stored sign representative."""
        return self.a + self.d

    def classify(self) -> ElementClass:
        """Conjugacy type from the trace, up to sign.

        Traces within TAU_CLASS of the real axis are treated as real, and real
        traces within TAU_CLASS of +/-2 as parabolic.  Exact-arithmetic callers
        should classify with exact predicates instead of this.
        """
        return _classify(self.a, self.b, self.c, self.d)

    def translation_length(self) -> float:
        """Distance the element moves points on its axis.

        Computed as |Re(2*arccosh(trace/2))| on the principal branch, which
        equals 2*log|lam| for the eigenvalue with |lam| >= 1.  Raises
        NonLoxodromicError for any other conjugacy type, as classified with
        TAU_CLASS: the quantity is not defined for parabolics and would be 0
        for elliptics, so callers that want 0 must check the class first.
        """
        kind = self.classify()
        if kind is not ElementClass.LOXODROMIC:
            raise NonLoxodromicError(f"element is {kind.value}, not loxodromic")
        return _length(self.trace)

    def isometric_sphere(self) -> IsometricSphere:
        """Sphere with center -d/c and radius 1/|c|; undefined when c = 0."""
        if self.c == 0:
            raise ValueError("element fixes infinity (c = 0); no isometric sphere")
        center, radius = -self.d / self.c, 1 / abs(self.c)
        if not (cmath.isfinite(center) and math.isfinite(radius)):
            raise OverflowError("isometric sphere overflows floating point")
        return IsometricSphere(center, radius)
