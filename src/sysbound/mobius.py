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

# The least normal double.
_DBL_MIN = sys.float_info.min


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


def _length(t: complex) -> float:
    """|Re(2*arccosh(t/2))|, the translation length of a loxodromic of trace t."""
    return abs((2 * cmath.acosh(t / 2)).real)


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
        # The finite entries, rescaled to determinant 1 when off by more than TAU_DET.
        entries = [_as_finite_complex(getattr(self, name), name) for name in "abcd"]
        det = entries[0] * entries[3] - entries[1] * entries[2]
        if not (cmath.isfinite(det) and max(abs(det.real), abs(det.imag)) >= _DBL_MIN):
            entries = _unit_scaled(entries)[0]  # det over- or underflows: take it at unit scale
            det = entries[0] * entries[3] - entries[1] * entries[2]
        if det == 0:
            raise ValueError("matrix is singular")
        if abs(det - 1) > TAU_DET:
            root = cmath.sqrt(det)
            entries = [z / root for z in entries]
        for name, z in zip("abcd", entries):
            object.__setattr__(self, name, z)

    @classmethod
    def from_trace(cls, trace) -> "MoebiusElement":
        """Diagonal representative diag(lam, 1/lam) with lam + 1/lam = trace.

        The eigenvalue is the root (t + root)/2 of the characteristic quadratic,
        or (t - root)/2 where that is zero or cancels so far that its inverse
        is not finite; traces +/-2 therefore yield +/-identity, not a parabolic.
        """
        t = _as_finite_complex(trace, "trace")
        root = cmath.sqrt(t * t - 4)
        lam = (t + root) / 2
        if lam == 0 or cmath.isfinite(lam) and not cmath.isfinite(1 / lam):
            lam = (t - root) / 2
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
        a, b, c, d, tol = self.a, self.b, self.c, self.d, TAU_CLASS
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
