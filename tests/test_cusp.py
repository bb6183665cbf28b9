import math
import sys

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from sysbound.cusp import CuspLattice, ReducedBasis, max_waist_for_cusp_volume


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def brute_force_minima(t1, t2, n=10):
    """First and second lattice minima by direct enumeration."""
    best = None
    vectors = []
    for m in range(-n, n + 1):
        for k in range(-n, n + 1):
            if (m, k) == (0, 0):
                continue
            vectors.append((abs(m * t1 + k * t2), m, k))
    vectors.sort()
    _, m0, k0 = vectors[0]
    g = math.gcd(m0, k0)
    m0, k0 = m0 // g, k0 // g
    second = min(length for length, m, k in vectors if m * k0 - k * m0 != 0)
    return vectors[0][0], second


def sampled_covering_radius(lattice, n=301):
    rb = lattice.reduce()
    u, z = complex(rb.ell, 0.0), rb.z
    neighbors = [i * u + j * z for i in range(-2, 3) for j in range(-2, 3)]
    worst = 0.0
    for s in np.linspace(0, 1, n):
        for t in np.linspace(0, 1, n):
            p = s * u + t * z
            worst = max(worst, min(abs(p - v) for v in neighbors))
    return worst


def random_lattice(rng):
    while True:
        t1 = complex(*rng.uniform(-3, 3, 2))
        t2 = complex(*rng.uniform(-3, 3, 2))
        if abs((t1.conjugate() * t2).imag) > 0.1:
            return CuspLattice(t1, t2)


# Unimodular basis changes built from shears, so the determinant is +/-1.
def shear_unimodular(p, q, swap):
    a, b, c, d = 1, p, 0, 1
    a, b, c, d = a, b, c + q * a, d + q * b
    if swap:
        a, b, c, d = c, d, -a, -b
    return a, b, c, d


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------

def test_reduce_square_lattice():
    rb = CuspLattice(1, 1j).reduce()
    assert rb.ell == pytest.approx(1)
    assert rb.z == pytest.approx(1j)
    assert rb.area == pytest.approx(1)


def test_reduce_shifted_basis():
    lattice = CuspLattice(1, complex(3.5, 2))
    rb = lattice.reduce()
    lam1, lam2 = brute_force_minima(lattice.t1, lattice.t2)
    assert rb.ell == pytest.approx(lam1, abs=1e-12)
    assert abs(rb.z) == pytest.approx(lam2, abs=1e-12)
    assert rb.area == pytest.approx(2, abs=1e-12)
    # boundary tie |Re z| = ell/2 resolves toward positive real part
    assert rb.z == pytest.approx(complex(0.5, 2), abs=1e-12)


def test_reduce_hexagonal_lattice():
    side = 2 * math.pi
    lattice = CuspLattice(side, complex(math.pi, math.pi * math.sqrt(3)))
    rb = lattice.reduce()
    lam1, lam2 = brute_force_minima(lattice.t1, lattice.t2)
    assert rb.ell == pytest.approx(side, abs=1e-12)
    assert rb.ell == pytest.approx(lam1, abs=1e-12)
    assert abs(rb.z) == pytest.approx(lam2, abs=1e-12)
    assert rb.z == pytest.approx(complex(math.pi, math.pi * math.sqrt(3)), abs=1e-9)


def test_reduce_idempotent():
    rng = np.random.default_rng(3)
    for _ in range(50):
        rb = random_lattice(rng).reduce()
        rb2 = CuspLattice(rb.ell, rb.z).reduce()
        assert rb2.ell == pytest.approx(rb.ell, rel=1e-12)
        assert rb2.z == pytest.approx(rb.z, rel=1e-9)
        assert rb2.area == pytest.approx(rb.area, rel=1e-12)


@given(
    st.integers(-4, 4),
    st.integers(-4, 4),
    st.booleans(),
    st.integers(0, 40),
)
def test_reduce_unimodular_invariance(p, q, swap, seed):
    rng = np.random.default_rng(seed)
    lattice = random_lattice(rng)
    a, b, c, d = shear_unimodular(p, q, swap)
    changed = CuspLattice(a * lattice.t1 + b * lattice.t2, c * lattice.t1 + d * lattice.t2)
    rb, rb2 = lattice.reduce(), changed.reduce()
    assert rb2.ell == pytest.approx(rb.ell, rel=1e-9)
    assert rb2.area == pytest.approx(rb.area, rel=1e-9)
    # z agrees up to the symmetry of boundary ties
    assert abs(rb2.z) == pytest.approx(abs(rb.z), rel=1e-9)
    assert rb2.z.imag == pytest.approx(rb.z.imag, rel=1e-9)
    assert abs(rb2.z.real) == pytest.approx(abs(rb.z.real), rel=1e-9, abs=1e-9)


# Degeneracy is decided before underflow: the last three areas are below DBL_MIN.
@pytest.mark.parametrize("t1, t2", [
    (1, complex(2, 1e-15)),
    (1e-160, complex(1e-160, 1e-175)),  # area 1e-335: 1e-15 of its scale squared
    (1e-150, complex(2e-150, 1e-163)),  # area 1e-313: 2.5e-14 of it
    (1.1945981425742017e-176j, complex(9.400286187120127e-144, -1.4595503861569719e+61)),
])
def test_reduce_rejects_degenerate_lattice(t1, t2):
    with pytest.raises(ValueError, match="^degenerate lattice"):
        CuspLattice(t1, t2)


def test_lattice_area_below_the_normal_floats_is_refused():
    side = math.sqrt(sys.float_info.min)
    smallest = CuspLattice(side, complex(0, sys.float_info.min / side))
    assert smallest.area == smallest.reduce().area == sys.float_info.min
    # Areas 1e-308 and 5e-324; reduce's ell * Im(z) was 0 for the second.
    for t1, t2 in [(1e-154, 1e-154j), (complex(-2.6254598153157822e-167, 2.9370046320902637e-167),
                                       complex(8.550163244420337e-158, -3.272524829211388e-158))]:
        with pytest.raises(FloatingPointError, match="^lattice area underflows floating point$"):
            CuspLattice(t1, t2)


def test_reduced_basis_validates():
    with pytest.raises(ValueError):
        ReducedBasis(ell=1.0, z=complex(0.9, 0.1), area=0.1)


# ---------------------------------------------------------------------------
# waist size
# ---------------------------------------------------------------------------

def test_waist_square_lattice():
    side = 2 * math.pi
    assert CuspLattice(side, side * 1j).waist_size() == pytest.approx(side)


def test_waist_thin_lattice_matches_brute_force():
    lattice = CuspLattice(3, complex(1, 0.1))
    best = None
    for m in range(-50, 51):
        for k in range(-50, 51):
            if (m, k) == (0, 0):
                continue
            length = abs(m * lattice.t1 + k * lattice.t2)
            best = length if best is None else min(best, length)
    assert lattice.waist_size() == pytest.approx(best, abs=1e-12)


def test_waist_hexagonal_lattice():
    s = 2.5
    lattice = CuspLattice(s, s * complex(0.5, math.sqrt(3) / 2))
    assert lattice.waist_size() == pytest.approx(s, abs=1e-12)


# ---------------------------------------------------------------------------
# torus diameter
# ---------------------------------------------------------------------------

def test_diameter_rectangular_half_diagonal():
    vc = 4 * math.pi**2
    ell = 2 * math.pi
    h = 2 * vc / ell
    lattice = CuspLattice(ell, h * 1j)
    expected = 0.5 * math.sqrt(ell * ell + h * h)
    assert lattice.torus_diameter() == pytest.approx(expected, rel=1e-12)


def test_diameter_unit_square():
    assert CuspLattice(1, 1j).torus_diameter() == pytest.approx(math.sqrt(2) / 2, rel=1e-12)


def test_diameter_hexagonal():
    lattice = CuspLattice(1, complex(0.5, math.sqrt(3) / 2))
    assert lattice.torus_diameter() == pytest.approx(1 / math.sqrt(3), rel=1e-12)


def test_diameter_matches_dense_sampling():
    rng = np.random.default_rng(7)
    for _ in range(4):
        lattice = random_lattice(rng)
        rb = lattice.reduce()
        step = max(rb.ell, abs(rb.z)) / 300
        sampled = sampled_covering_radius(lattice)
        diameter = lattice.torus_diameter()
        assert sampled <= diameter + 1e-12
        assert diameter <= sampled + 3 * step


def test_diameter_bounded_by_rectangular_torus():
    # Among lattices of fixed waist and area the rectangle has the largest
    # diameter, so the trace bound built from it dominates.
    rng = np.random.default_rng(9)
    for _ in range(100):
        lattice = random_lattice(rng)
        rb = lattice.reduce()
        vc = lattice.area / 2
        assert lattice.torus_diameter() <= math.hypot(rb.ell / 2, vc / rb.ell) * (1 + 1e-12)


def test_rectangle_maximizes_diameter_at_fixed_waist_and_area():
    ell, height = 1.0, 2.0
    rect = CuspLattice(ell, height * 1j).torus_diameter()
    for x in np.linspace(0, 0.5, 40):
        skew = CuspLattice(ell, complex(x, height)).torus_diameter()
        assert skew <= rect * (1 + 1e-12)


# ---------------------------------------------------------------------------
# area relations and the volume bound
# ---------------------------------------------------------------------------

def test_reduced_area_relations():
    rng = np.random.default_rng(13)
    for _ in range(100):
        lattice = random_lattice(rng)
        rb = lattice.reduce()
        assert rb.area == pytest.approx(lattice.area, rel=1e-12)
        assert rb.area == pytest.approx(rb.ell * rb.z.imag, rel=1e-12)
        assert rb.area >= (math.sqrt(3) / 2) * rb.ell**2 * (1 - 1e-12)


def test_max_waist_for_cusp_volume():
    vc = (math.sqrt(3) / 4) * (2 * math.pi) ** 2
    assert max_waist_for_cusp_volume(vc) == pytest.approx(2 * math.pi, rel=1e-12)
    assert max_waist_for_cusp_volume(math.sqrt(3)) == pytest.approx(2, rel=1e-12)
    assert max_waist_for_cusp_volume(100) == pytest.approx(math.pow(400 / math.sqrt(3), 0.5), rel=1e-12)
    assert max_waist_for_cusp_volume(100) == pytest.approx(15.19671371, abs=1e-7)
    with pytest.raises(ValueError):
        max_waist_for_cusp_volume(0)
    with pytest.raises(ValueError):
        max_waist_for_cusp_volume(-1)
