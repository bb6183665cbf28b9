import copy
import dataclasses
import itertools
import math
import gc
import pickle
import re
import tracemalloc
from collections import Counter
from fractions import Fraction

import hypothesis.strategies as st
import mpmath as mp
import numpy as np
import pytest
from hypothesis import given

from sysbound import bianchi, bounds, cli, mobius
from sysbound.bianchi import (
    PSL2_O2_COVOLUME,
    _is_squarefree,
    CongruenceLevel,
    QuadInt,
    QuadMatrix,
    elements_of_bounded_modulus,
    enumerate_congruence_elements,
    min_loxodromic_trace_lower_bound,
    newman_index,
    split_prime,
    systole_growth_table,
)
from sysbound.cusp import CuspLattice
from sysbound.mobius import ElementClass

ints = st.integers(-50, 50)


def q2(a, b):
    return QuadInt(a, b, 2)


PI = q2(3, 1)


# References for what the census does without: ring addition, subtraction and
# exact division, and a matrix's entries, determinant and trace.
def _add(x, y):
    return QuadInt(x.a + y.a, x.b + y.b, x.d)


def _sub(x, y):
    return QuadInt(x.a - y.a, x.b - y.b, x.d)


def _divide(x, y):
    """x/y in the ring, or None where y does not divide x."""
    num, n = x * y.conjugate(), y.norm
    return None if num.a % n or num.b % n else QuadInt(num.a // n, num.b // n, x.d)


def _entries(m):
    return (m.m11, m.m12, m.m21, m.m22)


def _det(m):
    return _sub(m.m11 * m.m22, m.m12 * m.m21)


def _trace(m):
    return _add(m.m11, m.m22)


# ---------------------------------------------------------------------------
# ring arithmetic
# ---------------------------------------------------------------------------

def test_norm_examples():
    assert PI.norm == 11
    assert q2(0, 0).norm == 0
    square = PI * PI
    assert square == q2(7, 6)
    assert square.norm == 121


def test_str():
    assert str(PI) == "3+1√-2"
    assert str(q2(5, 0)) == "5"
    assert str(q2(0, -2)) == "0-2√-2"


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        QuadInt(1, 1, 4)  # not squarefree
    with pytest.raises(ValueError):
        QuadInt(1, 1, 0)
    with pytest.raises(TypeError):
        QuadInt(1.5, 0, 2)
    with pytest.raises(ValueError):
        q2(1, 0) * QuadInt(1, 0, 3)


def test_ring_arithmetic_equals_the_checked_constructor():
    # Ring arithmetic builds its results without the constructor's checks;
    # they must be indistinguishable from checked ones.
    rng = np.random.default_rng(7)
    for d in (1, 2, 3, 5, 7, 15):
        for _ in range(200):
            a1, b1, a2, b2 = (int(v) for v in rng.integers(-10**6, 10**6 + 1, 4))
            k = int(rng.integers(-50, 51))
            x, y = QuadInt(a1, b1, d), QuadInt(a2, b2, d)
            results = [x * y, x.conjugate(), x**3, x**0, x * k, k * x]
            for r in results:
                checked = QuadInt(r.a, r.b, d)
                assert type(r) is QuadInt
                assert r == checked
                assert hash(r) == hash(checked)
                assert repr(r) == repr(checked)
                assert type(r.a) is int and type(r.b) is int


@pytest.mark.parametrize(
    "args, error, message",
    [
        ((1.5, 0, 2), TypeError, "a must be an int, got 1.5"),
        ((1, True, 2), TypeError, "b must be an int, got True"),
        ((True, 0, 2), TypeError, "a must be an int, got True"),
        ((1, 0, 2.0), TypeError, "d must be an int, got 2.0"),
        ((1, 1, 4), ValueError, "d must be a positive squarefree integer, got 4"),
        ((1, 1, 0), ValueError, "d must be a positive squarefree integer, got 0"),
    ],
)
def test_public_constructor_keeps_every_check(args, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        QuadInt(*args)


def test_squarefree_matches_trial_division_by_squares():
    # Reference, as a sieve: n is squarefree unless k^2 divides it for some
    # k >= 2 with k^2 <= n.
    limit = 10**5
    squarefree = [True] * (limit + 1)
    for k in range(2, math.isqrt(limit) + 1):
        for m in range(k * k, limit + 1, k * k):
            squarefree[m] = False
    assert [n for n in range(1, limit + 1) if _is_squarefree(n) != squarefree[n]] == []


@pytest.mark.parametrize(
    "n, expected",
    [
        (2 * 1000003**2, False),  # a square of a prime above the cube root
        (1000003**2, False),
        (1000003 * 1000033, True),  # two primes above the cube root
        (2**61 - 1, True),  # a Mersenne prime
        (9223372036854775783, True),  # the largest prime below 2^63
        (8 * 1000003, False),
    ],
)
def test_squarefree_beyond_the_cube_root(n, expected):
    assert _is_squarefree(n) is expected


@given(ints, ints, ints, ints, ints, ints)
def test_ring_axioms(a1, b1, a2, b2, a3, b3):
    x, y, z = q2(a1, b1), q2(a2, b2), q2(a3, b3)
    assert (x * y) * z == x * (y * z)
    assert x * _add(y, z) == _add(x * y, x * z)
    assert x * y == y * x
    assert x * _sub(y, z) == _sub(x * y, x * z)


def test_norm_multiplicative_bulk():
    rng = np.random.default_rng(31)
    for _ in range(10000):
        a1, b1, a2, b2 = (int(v) for v in rng.integers(-1000, 1001, 4))
        x, y = q2(a1, b1), q2(a2, b2)
        assert (x * y).norm == x.norm * y.norm


def test_powers_are_exact():
    assert PI**0 == q2(1, 0)
    assert PI**2 == PI * PI
    assert (PI**7).norm == 11**7


# ---------------------------------------------------------------------------
# prime splitting
# ---------------------------------------------------------------------------

def test_split_eleven():
    result = split_prime(11, 2)
    assert result == PI
    assert result.norm == 11
    assert result * result.conjugate() == q2(11, 0)


def test_split_two_is_ramified():
    assert split_prime(2, 2) == q2(0, 1)


def test_split_five_fails():
    assert split_prime(5, 2) is None


def test_split_rejects_composite():
    with pytest.raises(ValueError):
        split_prime(4, 2)


def test_split_canonical_choice():
    # smallest nonnegative a with positive b
    result = split_prime(3, 2)
    assert result == q2(1, 1)


def _split_by_scan(p, d):
    """The canonical solution of a^2 + d*b^2 = p, found by scanning every a."""
    for a in range(math.isqrt(p) + 1):
        rest = p - a * a
        if rest <= 0 or rest % d:
            continue
        b = math.isqrt(rest // d)
        if d * b * b == rest:
            return QuadInt(a, b, d)
    return None


def test_split_agrees_with_a_full_scan():
    # Cornacchia's algorithm must give the scan's canonical answer, None
    # included, on 10 x 9592 (d, p) pairs.
    limit = 10**5
    composite = bytearray(limit)
    primes = []
    for n in range(2, limit):
        if not composite[n]:
            primes.append(n)
            composite[n * n::n] = b"\x01" * len(range(n * n, limit, n))
    assert len(primes) == 9592
    mismatches = [(d, p) for d in (1, 2, 3, 5, 6, 7, 10, 11, 15, 23) for p in primes
                  if split_prime(p, d) != _split_by_scan(p, d)]
    assert mismatches == []


def test_split_of_large_primes_has_the_norm():
    for p in (2**61 - 1, 9223372036854775643, 9223372036854775783):
        for d in (1, 2, 3, 5, 6, 7, 11):
            result = split_prime(p, d)
            assert result is None or (result.norm == p and result.a >= 0 and result.b > 0)


# ---------------------------------------------------------------------------
# congruence levels, index, volume
# ---------------------------------------------------------------------------

def test_level_properties():
    level = CongruenceLevel(PI, 2)
    assert level.level == PI * PI
    assert level.norm == 121


def test_newman_index_values():
    assert newman_index(CongruenceLevel(PI, 1)) == 660
    assert newman_index(CongruenceLevel(PI, 2)) == 878460
    assert newman_index(CongruenceLevel(PI, 2)) == 11**3 * 660


def test_newman_index_ratio_exact():
    previous = newman_index(CongruenceLevel(PI, 1))
    for n in range(2, 13):
        current = newman_index(CongruenceLevel(PI, n))
        assert current == previous * 1331
        previous = current


def test_newman_index_equals_the_printed_formula():
    # (N^(3n)/2) * (1 - 1/N^2) in exact rationals, with N = N(sqrt(-q)) = q.
    primes = [q for q in range(3, 400, 2) if all(q % p for p in range(3, q, 2))]
    assert len(primes) == 77
    for q in primes:
        pi = QuadInt(0, 1, q)
        for n in range(1, 61):
            value = Fraction(q ** (3 * n), 2) * (1 - Fraction(1, q * q))
            assert value.denominator == 1
            assert newman_index(CongruenceLevel(pi, n)) == value, (q, n)


@pytest.mark.parametrize("pi, norm", [(q2(0, 0), 0), (q2(1, 0), 1), (q2(0, 1), 2),
                                      (q2(2, 0), 4), (q2(3, 0), 9)])
def test_congruence_level_refuses_a_norm_that_is_not_an_odd_prime(pi, norm):
    message = f"index formula requires an odd prime norm, got N(pi) = {norm}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CongruenceLevel(pi, 1)


def test_growth_table_volume_is_the_base_covolume_times_the_index():
    assert systole_growth_table(PI, 1, 1.5)[0].volume == pytest.approx(990.0)
    rows = systole_growth_table(PI, 5, PSL2_O2_COVOLUME)
    assert rows[1].volume / rows[0].volume == pytest.approx(1331, rel=1e-12)
    assert [r.volume for r in rows] == [PSL2_O2_COVOLUME * r.index for r in rows]
    with pytest.raises(ValueError, match="^base covolume must be positive, got 0.0$"):
        systole_growth_table(PI, 1, 0)


@pytest.mark.parametrize("n_max, base", [(99, PSL2_O2_COVOLUME), (1, 1e308)])
def test_growth_table_past_the_doubles_has_one_message(n_max, base):
    # An index past the doubles and a product past them overflow alike.
    with pytest.raises(OverflowError, match="^level volume overflows floating point$"):
        systole_growth_table(PI, n_max, base)


@pytest.mark.parametrize("pi, n_max, base, message", [
    # the norm 6 is not an odd prime, and the base is negative
    (q2(2, 1), 1, -1.0, "index formula requires an odd prime norm, got N(pi) = 6"),
    # a norm past what _is_prime decides, and a negative base
    (QuadInt(531485733169, 190233470430, 1), 1, -1.0,
     f"primality is decided only below {bianchi._MR_BOUND}, got {bianchi._MR_BOUND}"),
    # a negative base, and a level volume past the doubles at n = 99
    (PI, 99, -1.0, "base covolume must be positive, got -1.0"),
    # the volume 0.6 at n = 1, and one past the doubles at a later level
    (q2(1, 1), 99, 0.05, "level n = 1 has volume 0.6000000000000001; the ratio "
     "to log(volume) needs a volume above 1"),
])
def test_growth_table_refuses_in_the_documented_order(pi, n_max, base, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        systole_growth_table(pi, n_max, base)


def test_growth_table_computes_each_index_once(monkeypatch):
    levels = []

    def counted(level):
        levels.append(level.n)
        return newman_index(level)

    monkeypatch.setattr(bianchi, "newman_index", counted)
    assert len(systole_growth_table(QuadInt(3, 1, 2), 60, PSL2_O2_COVOLUME)) == 60
    assert levels == list(range(1, 61))


def test_is_prime_matches_a_sieve_and_refuses_past_its_proof():
    limit = 10**5
    sieve = bytearray([0, 0]) + bytearray([1]) * (limit - 2)
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit, p)))
    assert [n for n in range(-5, limit) if bianchi._is_prime(n)] == \
        [n for n in range(limit) if sieve[n]]
    assert bianchi._is_prime(2**61 - 1) and not bianchi._is_prime(2**61 + 1)
    # The bound is the least strong pseudoprime to the first 12 prime bases.
    bound = bianchi._MR_BOUND
    assert bound == 399165290221 * 798330580441
    for n in (bound, bound + 1, bound + 2, 2**89 - 1, 10**40):
        with pytest.raises(ValueError, match=f"^primality is decided only below {bound}, got {n}$"):
            bianchi._is_prime(n)


def test_covolume_matches_humbert_formula():
    # |disc|^(3/2) * zeta_K(2) / (4 pi^2) for Q(sqrt(-2)), disc = -8, with
    # zeta_K(2) = zeta(2) * L(2, chi_(-8)) via Hurwitz zeta values
    mp.mp.dps = 30
    l_value = (
        mp.zeta(2, mp.mpf(1) / 8)
        + mp.zeta(2, mp.mpf(3) / 8)
        - mp.zeta(2, mp.mpf(5) / 8)
        - mp.zeta(2, mp.mpf(7) / 8)
    ) / 64
    oracle = mp.mpf(8) ** mp.mpf(1.5) * mp.zeta(2) * l_value / (4 * mp.pi**2)
    assert PSL2_O2_COVOLUME == pytest.approx(float(oracle), abs=1e-14)


def test_trace_lower_bound():
    assert min_loxodromic_trace_lower_bound(CongruenceLevel(PI, 1)) == 9
    assert min_loxodromic_trace_lower_bound(CongruenceLevel(PI, 2)) == 119
    # a candidate trace with s = -1: |-(7 + 6 sqrt(-2)) + 2| = sqrt(97) >= 9
    trace = _add(q2(-1, 0) * (PI * PI), q2(2, 0))
    assert trace == q2(-5, -6)
    assert trace.norm == 97
    assert trace.norm >= 9 * 9


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumeration_contains_identity():
    mats = enumerate_congruence_elements(CongruenceLevel(PI, 1), 0)
    assert len(mats) == 1
    assert mats[0].is_identity_up_to_sign()


def test_enumeration_exact_properties():
    level = CongruenceLevel(PI, 1)
    mats = enumerate_congruence_elements(level, 2)
    assert len(mats) > 1
    one = q2(1, 0)
    two = q2(2, 0)
    pi_n = level.level
    pi_2n = pi_n * pi_n
    lb = min_loxodromic_trace_lower_bound(level)
    seen_loxodromic = False
    for m in mats:
        assert _det(m) == one
        # parameters are recoverable from the congruence form
        a = _divide(_sub(m.m11, one), pi_n)
        b = _divide(m.m12, pi_n)
        c = _divide(m.m21, pi_n)
        d = _divide(_sub(m.m22, one), pi_n)
        assert None not in (a, b, c, d)
        # determinant identity: a + d = (bc - ad) * pi^n
        assert _add(a, d) == _sub(b * c, a * d) * pi_n
        # trace lies in 2 + (pi^(2n))
        trace = _trace(m)
        assert _divide(_sub(trace, two), pi_2n) is not None
        kind = m.classify_exact()
        if kind is ElementClass.PARABOLIC:
            assert trace in (two, q2(-2, 0))
        if kind is ElementClass.LOXODROMIC:
            seen_loxodromic = True
            assert trace.norm >= lb * lb
    assert seen_loxodromic


def test_enumeration_no_elliptics_at_level_eleven():
    mats = enumerate_congruence_elements(CongruenceLevel(PI, 1), 2)
    assert all(m.classify_exact() is not ElementClass.ELLIPTIC for m in mats)


# Levels at odd prime norms beyond the tower of PSL2(Z[sqrt(-2)]): the
# ramified sqrt(-3) at n = 2, whose quotient ring Z[sqrt(-3)]/(3) is not
# cyclic; the non-maximal orders Z[sqrt(-3)] and Z[sqrt(-7)]; and Z[i].
RAMIFIED_3 = QuadInt(0, 1, 3)
NON_MAXIMAL_3, NON_MAXIMAL_7 = QuadInt(2, 1, 3), QuadInt(2, 1, 7)
GAUSSIAN_5 = QuadInt(2, 1, 1)


@pytest.mark.parametrize("pi, n", [(PI, 1), (PI, 2), (RAMIFIED_3, 2), (NON_MAXIMAL_3, 1),
                                   (NON_MAXIMAL_7, 1), (GAUSSIAN_5, 1)])
def test_enumeration_lists_no_matrix_with_its_negative(pi, n):
    # -(a*pi^n + 1) = a'*pi^n + 1 would need pi^n to divide 2, which no odd
    # prime norm allows, so the negative of a listed matrix is never listed.
    mats = enumerate_congruence_elements(CongruenceLevel(pi, n), 2)
    coords = {tuple((e.a, e.b) for e in _entries(m)) for m in mats}
    assert len(coords) == len(mats) > 1
    assert not any(tuple((-a, -b) for a, b in c) in coords for c in coords)


def _brute_force_elements(level, height):
    # Every parameter vector in the box, checked against det == 1 directly.
    d, w = level.pi.d, level.level
    box = np.arange(-height, height + 1)
    params = np.stack(np.meshgrid(*[box] * 8, indexing="ij"), axis=-1).reshape(-1, 4, 2)
    re = params[..., 0] * w.a - d * params[..., 1] * w.b
    im = params[..., 0] * w.b + params[..., 1] * w.a
    re[:, [0, 3]] += 1
    det_re = (re[:, 0] * re[:, 3] - d * im[:, 0] * im[:, 3]
              - (re[:, 1] * re[:, 2] - d * im[:, 1] * im[:, 2]))
    det_im = (re[:, 0] * im[:, 3] + im[:, 0] * re[:, 3]
              - (re[:, 1] * im[:, 2] + im[:, 1] * re[:, 2]))
    keep = (det_re == 1) & (det_im == 0)
    return sorted(map(tuple, np.stack([re, im], axis=-1)[keep].reshape(-1, 8).tolist()))


@pytest.mark.parametrize(
    "pi, n, height",
    [
        *[(pi, n, h) for pi, n in [(PI, 1), (PI, 2), (q2(1, 1), 1), (RAMIFIED_3, 1),
                                   (GAUSSIAN_5, 1), (GAUSSIAN_5, 2),
                                   # a non-cyclic quotient and two non-maximal levels
                                   (RAMIFIED_3, 2), (NON_MAXIMAL_3, 1), (NON_MAXIMAL_7, 1)]
          for h in (0, 1)],
        (PI, 1, 2),
        (RAMIFIED_3, 2, 2),
    ],
    ids=lambda v: f"{v.a},{v.b},d={v.d}" if isinstance(v, QuadInt) else str(v),
)
def test_enumeration_is_complete(pi, n, height):
    level = CongruenceLevel(pi, n)
    got = [tuple(x for e in _entries(m) for x in (e.a, e.b))
           for m in enumerate_congruence_elements(level, height)]
    assert got == _brute_force_elements(level, height)


def _reference_enumeration(level: CongruenceLevel, height: int) -> list[QuadMatrix]:
    """The two-pass enumerator before residue grouping: it tests divisibility
    for every (a, d) in the box and builds every entry through the public
    constructors."""
    if not isinstance(height, int) or height < 0:
        raise ValueError(f"height must be a nonnegative int, got {height!r}")
    d = level.pi.d
    w = level.level
    w1, w2, nw = w.a, w.b, w.norm
    box = range(-height, height + 1)

    # forced b*c -> the diagonal entries (a*pi^n + 1, d*pi^n + 1) that force it
    index: dict[tuple[int, int], list[tuple[int, int, int, int]]] = {}
    for aa, ab, da, db in itertools.product(box, repeat=4):
        s1, s2 = aa + da, ab + db
        n1, n2 = s1 * w1 + d * s2 * w2, s2 * w1 - s1 * w2
        if n1 % nw or n2 % nw:
            continue
        bc = (aa * da - d * ab * db + n1 // nw, aa * db + ab * da + n2 // nw)
        index.setdefault(bc, []).append((aa * w1 - d * ab * w2 + 1, aa * w2 + ab * w1,
                                         da * w1 - d * db * w2 + 1, da * w2 + db * w1))

    found: list[tuple[int, ...]] = []
    for ba, bb, ca, cb in itertools.product(box, repeat=4):
        diagonals = index.get((ba * ca - d * bb * cb, ba * cb + bb * ca))
        if diagonals is None:
            continue
        m12 = (ba * w1 - d * bb * w2, ba * w2 + bb * w1)
        m21 = (ca * w1 - d * cb * w2, ca * w2 + cb * w1)
        off_a = m12[0] * m21[0] - d * m12[1] * m21[1]
        off_b = m12[0] * m21[1] + m12[1] * m21[0]
        for x1, x2, y1, y2 in diagonals:
            if x1 * y1 - d * x2 * y2 - off_a != 1 or x1 * y2 + x2 * y1 != off_b:
                raise RuntimeError("enumerated matrix failed the exact determinant check")
            found.append((x1, x2, *m12, *m21, y1, y2))
    del index

    matrices = []
    for coords in sorted(found):
        q = [QuadInt(coords[i], coords[i + 1], d) for i in range(0, 8, 2)]
        matrices.append(QuadMatrix(*q))
    return matrices


# pi, n, the top height: the tower of PSL2(Z[sqrt(-2)]), the ramified
# sqrt(-3) with its non-cyclic quotient at n = 2, the non-maximal orders, and
# levels in other rings.  The norm-3 levels, whose residue groups are the
# largest, go to height 5, and so does pi^3 = (3 + sqrt(-2))^3, whose residue
# groups are all singletons there: each a meets only d = -a.
REFERENCE_LEVELS = [
    (PI, 1, 4), (PI, 2, 4), (PI, 3, 5), (q2(1, 1), 1, 5), (RAMIFIED_3, 1, 5),
    (RAMIFIED_3, 2, 4), (GAUSSIAN_5, 1, 5), (GAUSSIAN_5, 2, 4), (GAUSSIAN_5, 3, 4),
    (NON_MAXIMAL_3, 1, 4), (NON_MAXIMAL_7, 1, 4), (NON_MAXIMAL_7, 2, 4),
    (QuadInt(3, 2, 5), 1, 4),
]


@pytest.mark.parametrize("pi, n, top", REFERENCE_LEVELS,
                         ids=[f"{pi.a},{pi.b},d={pi.d}^{n}" for pi, n, _ in REFERENCE_LEVELS])
def test_enumeration_equals_the_two_pass_reference(pi, n, top):
    level = CongruenceLevel(pi, n)
    for height in range(top + 1):
        got = enumerate_congruence_elements(level, height)
        want = _reference_enumeration(level, height)
        assert ([tuple(x for e in _entries(m) for x in (e.a, e.b)) for m in got]
                == [tuple(x for e in _entries(m) for x in (e.a, e.b)) for m in want])
        assert got == want


@pytest.mark.parametrize("n, elements, loxodromic, min_trace_norm",
                         [(1, 42457, 38216, 97), (2, 6089, 1848, 14553)])
def test_benchmark_size_census(n, elements, loxodromic, min_trace_norm):
    # The height-10 census of `bianchi census --height 10`, where the orbit
    # walk and the sort do far more work than at the reference heights 0-4.
    mats = enumerate_congruence_elements(CongruenceLevel(PI, n), 10)
    coords = [tuple(x for e in _entries(m) for x in (e.a, e.b)) for m in mats]
    assert coords == sorted(set(coords))
    lox = [m for m in mats if m.classify_exact() is ElementClass.LOXODROMIC]
    assert (len(mats), len(lox), min(_trace(m).norm for m in lox)) == (
        elements, loxodromic, min_trace_norm)


def test_enumeration_memory_peaks_at_its_matrices():
    # The enumeration's sorted list of packed ints gives way to its matrices one
    # by one, so it does not peak far above its result.  Measured: 1.15x,
    # against 1.03x with per-position buckets of 8-byte ints and 2.1x when it
    # sorted tuples.
    gc.collect()
    tracemalloc.start()
    try:
        mats = enumerate_congruence_elements(CongruenceLevel(PI, 1), 10)
        result, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(mats) == 42457
    assert peak <= 1.3 * result, (result, peak)


def test_census_height_check_peaks_below_the_matrices_it_counts(capsys):
    # The height check counts the matrices per trace and builds one per trace,
    # so it peaks at the search's index, below the matrices the enumeration
    # lists.  Measured: 0.64x of them at n = 1, h = 10, against 1.04x when the
    # check folded over the enumerated matrices.
    table = systole_growth_table(PI, 1, PSL2_O2_COVOLUME)
    gc.collect()
    tracemalloc.start()
    try:
        mats = enumerate_congruence_elements(CongruenceLevel(PI, 1), 10)
        listed = tracemalloc.get_traced_memory()[0]
        del mats
        gc.collect()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert cli._census_height_check(PI, table, 10)
        check = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert "n=1: 42457 elements in box, 38216 loxodromic" in capsys.readouterr().err
    assert check <= 0.8 * listed, (listed, check)


# The height check's levels beyond the goldens' d = 2, pi = 3 + sqrt(-2): the
# norm-3 torsion level, Z[i], the ramified sqrt(-3) and the non-maximal sqrt(-7).
HEIGHT_CHECK_LEVELS = [(pi, n) for pi, n, _ in REFERENCE_LEVELS
                       if pi in (q2(1, 1), GAUSSIAN_5, RAMIFIED_3, NON_MAXIMAL_7)]


def _reference_height_check(pi, row, height, kinds):
    """The lines and verdict of the height check at one level, from
    ``classify_exact()`` of every matrix; adds each matrix's class to kinds."""
    mats = enumerate_congruence_elements(CongruenceLevel(pi, row.n), height)
    classes = [m.classify_exact() for m in mats]
    kinds.update(classes)
    norms = [_trace(m).norm for m, kind in zip(mats, classes) if kind is ElementClass.LOXODROMIC]
    if not norms:
        return f"n={row.n}: {len(mats)} elements in box, no loxodromic\n", True
    holds = min(norms) >= row.trace_lb ** 2
    return (f"n={row.n}: {len(mats)} elements in box, {len(norms)} loxodromic, "
            f"min |trace| = {cli._fmt(math.sqrt(min(norms)), '.6g')} vs bound {row.trace_lb} "
            f"[{'ok' if holds else 'VIOLATION'}]\n", holds)


def test_height_check_counts_as_classify_exact_does_on_every_matrix(capsys):
    # The check classifies one matrix per distinct trace; a fold over every
    # matrix must give the same lines and verdict at every level and height.
    kinds = set()
    for pi, n in HEIGHT_CHECK_LEVELS:
        [row] = [r for r in systole_growth_table(pi, n, PSL2_O2_COVOLUME) if r.n == n]
        for height in range(5):
            ok = cli._census_height_check(pi, [row], height)
            assert (capsys.readouterr().err, ok) == _reference_height_check(pi, row, height, kinds)
    assert {ElementClass.ELLIPTIC, ElementClass.PARABOLIC, ElementClass.IDENTITY} <= kinds


def _check_trace_counts(level, height):
    """``congruence_trace_counts``, after checking that it counts the traces of
    the enumerated matrices and that each trace's matrix is one of them."""
    mats = enumerate_congruence_elements(level, height)
    counts = bianchi.congruence_trace_counts(level, height)
    want = Counter(map(_trace, mats))
    assert Counter({trace: count for trace, (count, _) in counts.items()}) == want
    listed = set(mats)
    for trace, (_, m) in counts.items():
        assert m in listed and _trace(m) == trace
    return counts


@pytest.mark.parametrize("pi, n", HEIGHT_CHECK_LEVELS,
                         ids=[f"{pi.a},{pi.b},d={pi.d}^{n}" for pi, n in HEIGHT_CHECK_LEVELS])
def test_trace_counts_count_the_enumerated_traces(pi, n):
    for height in range(5):
        _check_trace_counts(CongruenceLevel(pi, n), height)


@pytest.mark.parametrize("n, elements, traces", [(1, 42457, 127), (2, 6089, 10)])
def test_trace_counts_at_the_benchmark_size(n, elements, traces):
    counts = _check_trace_counts(CongruenceLevel(PI, n), 10)
    assert (sum(count for count, _ in counts.values()), len(counts)) == (elements, traces)


def test_enumeration_shares_one_entry_per_coordinate_pair():
    mats = enumerate_congruence_elements(CongruenceLevel(PI, 1), 3)
    entries = [e for m in mats for e in _entries(m)]
    assert len({id(e) for e in entries}) == len({(e.a, e.b) for e in entries}) <= 2 * 7**2


def test_census_matrices_are_slotted_values():
    # The census's matrices share entries that _quad builds without checks; they
    # must equal, hash, pickle and copy as those of publicly built entries do,
    # and carry no __dict__.
    mats = enumerate_congruence_elements(CongruenceLevel(PI, 1), 2)
    for m in mats:
        public = QuadMatrix(*(QuadInt(e.a, e.b, e.d) for e in _entries(m)))
        assert m == public and hash(m) == hash(public)
        assert pickle.loads(pickle.dumps(m)) == m and copy.deepcopy(m) == m
        assert not hasattr(m, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        mats[0].m11 = mats[0].m22


@pytest.mark.parametrize("pi, n", [(PI, 1), (q2(1, 1), 1), (RAMIFIED_3, 2), (GAUSSIAN_5, 1)])
def test_classify_exact_agrees_with_the_trace(pi, n):
    def by_trace(m):
        if m.is_identity_up_to_sign():
            return ElementClass.IDENTITY
        t = _trace(m)
        if t.b == 0 and abs(t.a) < 2:
            return ElementClass.ELLIPTIC
        if t.b == 0 and abs(t.a) == 2:
            return ElementClass.PARABOLIC
        return ElementClass.LOXODROMIC

    mats = enumerate_congruence_elements(CongruenceLevel(pi, n), 3)
    assert [m.classify_exact() for m in mats] == [by_trace(m) for m in mats]


@pytest.mark.parametrize("entries, kind", [
    # trace 0, trace 0 with entries off the real line, and trace 1
    (((0, 0), (-1, 0), (1, 0), (0, 0)), ElementClass.ELLIPTIC),
    (((0, 1), (1, 0), (1, 0), (0, -1)), ElementClass.ELLIPTIC),
    (((1, 0), (-1, 0), (1, 0), (0, 0)), ElementClass.ELLIPTIC),
    # trace 2 and -2, the first with entries off the real line
    (((1, 1), (1, 0), (2, 0), (1, -1)), ElementClass.PARABOLIC),
    (((-1, 0), (0, 1), (0, 0), (-1, 0)), ElementClass.PARABOLIC),
    # +I and -I
    (((1, 0), (0, 0), (0, 0), (1, 0)), ElementClass.IDENTITY),
    (((-1, 0), (0, 0), (0, 0), (-1, 0)), ElementClass.IDENTITY),
    # trace 3, and 2 + sqrt(-2) with real part 2
    (((2, 0), (1, 0), (1, 0), (1, 0)), ElementClass.LOXODROMIC),
    (((1, 1), (1, 0), (0, 1), (1, 0)), ElementClass.LOXODROMIC),
])
def test_classify_exact_on_hand_built_matrices(entries, kind):
    m = QuadMatrix(*(q2(a, b) for a, b in entries))
    assert _det(m) == q2(1, 0)
    assert m.classify_exact() is kind


def test_enumeration_deterministic():
    level = CongruenceLevel(PI, 1)
    assert enumerate_congruence_elements(level, 2) == enumerate_congruence_elements(level, 2)


def test_enumeration_rejects_bad_height():
    with pytest.raises(ValueError):
        enumerate_congruence_elements(CongruenceLevel(PI, 1), -1)


# ---------------------------------------------------------------------------
# growth table
# ---------------------------------------------------------------------------

def test_growth_table_first_row():
    rows = systole_growth_table(PI, 3, PSL2_O2_COVOLUME)
    first = rows[0]
    assert first.n == 1
    assert first.index == 660
    assert first.level_norm == 11
    assert first.trace_lb == 9
    assert first.systole_lb == pytest.approx(math.log(81 / 4), rel=1e-12)
    assert first.systole_lb == pytest.approx(3.008, abs=1e-3)


def test_growth_table_ratio_converges_to_two_thirds():
    rows = systole_growth_table(PI, 12, PSL2_O2_COVOLUME)
    deviations = [abs(r.ratio - 2 / 3) for r in rows]
    assert all(b < a for a, b in zip(deviations, deviations[1:]))
    assert deviations[9] < 0.05  # n = 10
    assert 0.60 < rows[9].ratio < 2 / 3


def test_growth_table_asymptotic_slopes():
    rows = systole_growth_table(PI, 12, PSL2_O2_COVOLUME)
    log_v = [math.log(r.volume) for r in rows]
    for a, b in zip(log_v, log_v[1:]):
        assert b - a == pytest.approx(3 * math.log(11), rel=1e-12)
    length_steps = [b.systole_lb - a.systole_lb for a, b in zip(rows, rows[1:])]
    assert length_steps[-1] == pytest.approx(2 * math.log(11), rel=1e-6)
    with pytest.raises(ValueError):
        systole_growth_table(PI, 0, 1.0)


@pytest.mark.parametrize("base", [0.08333333333333333, 0.08333333333333331])
def test_growth_table_refuses_a_level_volume_not_above_one(base):
    # pi = 1 + sqrt(-2) has norm 3, so index 12 at n = 1; 12 * base is
    # 1.0 and 0.9999999999999998, where log(volume) is not positive.
    with pytest.raises(ValueError, match=r"level n = 1 has volume .*above 1"):
        systole_growth_table(q2(1, 1), 1, base)
    assert systole_growth_table(q2(1, 1), 1, 0.0834)[0].volume > 1


def test_growth_table_bound_is_zero_where_the_trace_bound_is_at_most_two():
    # pi = 1 + sqrt(-2) has norm 3, so trace_lb = 1 at n = 1, where
    # log(1^2 / 4) < 0 bounds nothing; the trivial bound there is 0.
    first, second = systole_growth_table(q2(1, 1), 2, 0.0834)
    assert first.trace_lb == 1
    assert first.systole_lb == 0.0 == first.ratio
    assert second.trace_lb == 7
    assert second.systole_lb == math.log(7**2 / 4)
    assert second.ratio == second.systole_lb / math.log(second.volume)


def test_per_slope_trace_bound_is_below_the_least_loxodromic_trace_at_3_plus_sqrt_minus_2():
    # Pins a recorded finding (CHANGES.md, FOUND on Gamma(pi^n)): at pi = 3 + sqrt(-2),
    # n = 1, with the single maximal cusp at infinity, min_trace_bound(waist, vc) is
    # below the exact least loxodromic |trace|, while the links that the headline
    # bound rests on hold.  A change to either side shows here.
    lox_norms = [(m.m11.a + m.m22.a) ** 2 + 2 * (m.m11.b + m.m22.b) ** 2
                 for m in enumerate_congruence_elements(CongruenceLevel(PI, 1), 2)
                 if m.classify_exact() is ElementClass.LOXODROMIC]
    assert min(lox_norms) == 97
    pi = complex(3, math.sqrt(2))
    lattice = CuspLattice(pi * abs(pi), pi * complex(0, math.sqrt(2)) * abs(pi))
    vc = math.sqrt(2) * 121 / 2
    assert lattice.waist_size() == 11
    assert lattice.reduce().area == pytest.approx(2 * vc, rel=1e-15)
    assert lattice.torus_diameter() == bounds.min_trace_bound(11, vc) == 9.526279441628827
    assert bounds.min_trace_bound(11, vc) < math.sqrt(97)
    assert bounds.cusp_volume_trace_bound(vc) == pytest.approx(27.53, abs=5e-3)
    assert bounds.cusp_volume_trace_bound(vc) > math.sqrt(97)
    systole = mobius._length(complex(-5, -6 * math.sqrt(2)))
    assert systole == pytest.approx(4.5849, abs=5e-5)
    assert bounds.cusped_systole_bound(660 * PSL2_O2_COVOLUME) == pytest.approx(9.14, abs=5e-3)
    assert bounds.cusped_systole_bound(660 * PSL2_O2_COVOLUME) > systole


# ---------------------------------------------------------------------------
# bounded-modulus enumeration
# ---------------------------------------------------------------------------

def test_bounded_modulus_unit_ball():
    assert elements_of_bounded_modulus(2, 1) == [q2(-1, 0), q2(1, 0)]


def test_bounded_modulus_radius_two():
    elements = elements_of_bounded_modulus(2, 2)
    assert len(elements) == 10
    assert sorted({x.norm for x in elements}) == [1, 2, 3, 4]
    assert all(0 < x.norm <= 4 for x in elements)


def test_bounded_modulus_monotone_and_finite():
    counts = [len(elements_of_bounded_modulus(2, b)) for b in (1, 1.5, 2, 3, 5, 8)]
    assert counts == sorted(counts)
    with pytest.raises(ValueError):
        elements_of_bounded_modulus(2, 0.5)


LARGE_PRIME_D = 4611686018427388039  # _is_squarefree takes about 0.3 s on it


def test_ring_results_check_the_ring_once(monkeypatch):
    calls = []
    squarefree = bianchi._is_squarefree
    monkeypatch.setattr(bianchi, "_is_squarefree", lambda n: calls.append(n) or squarefree(n))
    d = LARGE_PRIME_D
    results = [elements_of_bounded_modulus(d, 3.0), [split_prime(d, d)],
               [split_prime(32 * 32 + d, d)]]
    assert calls == [d, d, d]
    # The same elements as the public constructor builds, its check waived.
    monkeypatch.setattr(bianchi, "_is_squarefree", lambda n: True)
    assert results == [[QuadInt(a, 0, d) for a in (-1, 1, -2, 2, -3, 3)], [QuadInt(0, 1, d)],
                       [QuadInt(32, 1, d)]]
    assert all(type(x) is QuadInt and vars(x) == {"a": x.a, "b": x.b, "d": d}
               for xs in results for x in xs)


def test_quad_matrix_validation():
    with pytest.raises(ValueError):
        QuadMatrix(q2(1, 0), q2(0, 0), q2(0, 0), QuadInt(1, 0, 3))
