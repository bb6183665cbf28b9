"""Flat geometry of a maximal cusp cross-section.

A cusp cross-section torus is the quotient of C by a rank-2 lattice of
translations.  This module reduces such a lattice to a canonical basis,
and computes the quantities the trace bounds consume: the waist size
(shortest translation length), the torus area, and the flat-torus diameter
(covering radius of the lattice).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .mobius import _DBL_MIN, _as_finite_complex, _unit_scaled

# Relative area threshold below which a lattice is considered degenerate.
_TAU_AREA = 1e-12

# Validation slack for ReducedBasis invariants (relative).
_SLACK = 1e-9

# Window (relative to ell) in which Re(z) counts as a strip-boundary tie.
_TIE_TOL = 1e-12


def max_waist_for_cusp_volume(vc: float) -> float:
    """Largest waist size a maximal cusp of volume vc can have: sqrt(4*vc/sqrt(3)).

    Inverts the area bound 2*vc >= (sqrt(3)/2) * ell^2 for the reduced torus.
    """
    vc = float(vc)
    if not (vc > 0 and math.isfinite(vc)):
        raise ValueError(f"cusp volume must be positive, got {vc}")
    waist = math.sqrt(4 * vc / math.sqrt(3))
    return waist if waist < math.inf else 2 * math.sqrt(vc / math.sqrt(3))  # 4*vc overflows


@dataclass(frozen=True)
class ReducedBasis:
    """Canonical lattice basis: shortest vector rotated onto the positive
    real axis (length ell), second generator z in the strip
    |Re(z)| <= ell/2 with |z| >= ell and Im(z) > 0."""

    ell: float
    z: complex
    area: float

    def __post_init__(self):
        object.__setattr__(self, "ell", float(self.ell))
        object.__setattr__(self, "z", complex(self.z))
        object.__setattr__(self, "area", float(self.area))
        ell, z, area = self.ell, self.z, self.area
        if not (ell > 0 and math.isfinite(ell)):
            raise ValueError(f"ell must be positive, got {ell}")
        slack = _SLACK * ell
        if abs(z) < ell - slack:
            raise ValueError(f"second generator shorter than ell: |{z}| < {ell}")
        if abs(z.real) > ell / 2 + slack:
            raise ValueError(f"Re(z) = {z.real} outside [-ell/2, ell/2]")
        if z.imag < (math.sqrt(3) / 2) * ell - slack:
            raise ValueError(f"Im(z) = {z.imag} below (sqrt(3)/2)*ell")
        if abs(area - ell * z.imag) > _SLACK * area:
            raise ValueError("area inconsistent with ell * Im(z)")


@dataclass(frozen=True)
class CuspLattice:
    """Rank-2 translation lattice of C spanned by t1 and t2.  The constructor
    takes the area (``area``), decides its refusals and reduces the lattice
    once, on a copy scaled by an exact 2^-k to a largest coordinate in
    [1/2, 1), where |u|^2 and the diameter's product stay normal floats."""

    t1: complex
    t2: complex
    area: float = field(init=False, compare=False)
    _unit: tuple[float, complex, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "t1", _as_finite_complex(self.t1, "t1"))
        object.__setattr__(self, "t2", _as_finite_complex(self.t2, "t2"))
        (u, v), k = _unit_scaled((self.t1, self.t2))
        area = abs((u.conjugate() * v).imag)
        try:
            object.__setattr__(self, "area", math.ldexp(area, 2 * k))
        except OverflowError:
            raise OverflowError("lattice area overflows floating point") from None
        scale = max(abs(u), abs(v))
        if area <= _TAU_AREA * scale * scale:
            raise ValueError("degenerate lattice: generators are (nearly) dependent")
        if self.area < _DBL_MIN:  # where reduce's ell * Im(z) loses digits, or is 0
            raise FloatingPointError("lattice area underflows floating point")

        if abs(u) > abs(v):
            u, v = v, u
        while True:  # each swap shortens u, so this ends; in practice in two or three steps
            v = v - round((u.conjugate() * v).real / (abs(u) ** 2)) * u
            if abs(v) >= abs(u):
                break
            u, v = v, u
        ell = abs(u)
        z = v * (ell / u)
        z -= round(z.real / ell) * ell
        if z.imag < 0:
            z = -z
        if z.real <= -ell / 2 + _TIE_TOL * ell:
            z += ell
        object.__setattr__(self, "_unit", (ell, z, k))

    def reduce(self) -> ReducedBasis:
        """Gauss-Lagrange reduction to the canonical basis, at every accepted
        scale: that of the constructor's copy at unit size, scaled back.

        Ties on the strip boundary |Re(z)| = ell/2 are resolved toward
        positive real part, and z is negated if needed so Im(z) > 0.
        """
        ell, z, k = self._unit
        ell, z = math.ldexp(ell, k), complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))
        return ReducedBasis(ell=ell, z=z, area=ell * z.imag)

    def waist_size(self) -> float:
        """Length of a shortest nonzero lattice translation."""
        return self.reduce().ell

    def torus_diameter(self) -> float:
        """Covering radius of the lattice (diameter of the quotient torus).

        Equals the circumradius of the Voronoi cell.  With an obtuse
        superbasis (u, v, -u-v) both Delaunay triangles have side lengths
        |u|, |v|, |u+v| and are non-obtuse, so the covering radius is their
        common circumradius |u|*|v|*|u+v| / (2 * lattice area).
        Within 4 ulps (3.55 measured against mpmath) on a reduced basis, and
        4 + kappa/10 on any, kappa = max(|t1|, |t2|)^2 / area, at every scale
        that the constructor accepts: the product is taken on the basis at
        unit scale, as the constructor reduces it, and the quotient scaled back.
        """
        ell, z, k = self._unit
        u = complex(ell, 0.0)
        v = z if z.real <= 0.0 else -z
        w = u + v
        return math.ldexp(abs(u) * abs(v) * abs(w) / (2.0 * ell * z.imag), k)
