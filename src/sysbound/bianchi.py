"""Exact arithmetic in imaginary quadratic orders Z[sqrt(-d)] and the
congruence-subgroup census of PSL2 over them.

Everything here is integer-exact: elements a + b*sqrt(-d) carry arbitrary-
precision coordinates, matrices are checked against the determinant
identity exactly, and classification of enumerated group elements uses
exact trace predicates rather than floating-point tolerances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .mobius import ElementClass

# Covolume of the quotient of hyperbolic 3-space by PSL2 of Z[sqrt(-2)],
# via Humbert's formula |disc|^(3/2) * zeta_K(2) / (4*pi^2) with disc = -8.
# Frozen at double precision; scripts/compute_constants.py gives 30 digits.
PSL2_O2_COVOLUME = 1.0038410033411982

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# The least strong pseudoprime to all of _MR_WITNESSES (Sorenson-Webster, Math. Comp. 2017).
_MR_BOUND = 318665857834031151167461


def _is_prime(n: int) -> bool:
    # Miller-Rabin on _MR_WITNESSES, a proof below _MR_BOUND; from there n is refused.
    if n < 2:
        return False
    if n >= _MR_BOUND:
        raise ValueError(f"primality is decided only below {_MR_BOUND}, got {n}")
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    s, t = n - 1, 0
    while s % 2 == 0:
        s //= 2
        t += 1
    for a in _MR_WITNESSES:
        x = pow(a, s, n)
        if x in (1, n - 1):
            continue
        for _ in range(t - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _is_squarefree(n: int) -> bool:
    # Divide out each p while p^3 <= n, so O(n^(1/3)) steps.  The cofactor
    # left has no prime factor below p and is less than p^3, so it has at most
    # two prime factors: it is squarefree unless it is the square of a prime.
    p = 2
    while p * p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return False
        p += 1
    return n == 1 or math.isqrt(n) ** 2 != n


def _check_d(d: int) -> int:
    if not isinstance(d, int) or isinstance(d, bool):
        raise TypeError(f"d must be an int, got {d!r}")
    if d < 1 or not _is_squarefree(d):
        raise ValueError(f"d must be a positive squarefree integer, got {d}")
    return d


@dataclass(frozen=True)
class QuadInt:
    """The element a + b*sqrt(-d) of Z[sqrt(-d)], with exact integers."""

    a: int
    b: int
    d: int

    def __post_init__(self):
        for name in ("a", "b"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an int, got {value!r}")
        _check_d(self.d)

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        return f"{self.a}{self.b:+}√-{self.d}"

    def _coerce(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            return _quad(other, 0, self.d)
        if isinstance(other, QuadInt):
            if other.d != self.d:
                raise ValueError(f"mixed rings: sqrt(-{self.d}) vs sqrt(-{other.d})")
            return other
        return None

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _quad(
            self.a * other.a - self.d * self.b * other.b,
            self.a * other.b + self.b * other.a,
            self.d,
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"exponent must be a nonnegative int, got {n!r}")
        result = _quad(1, 0, self.d)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    @property
    def norm(self) -> int:
        return self.a * self.a + self.d * self.b * self.b

    def conjugate(self) -> "QuadInt":
        return _quad(self.a, -self.b, self.d)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0


def _quad(a: int, b: int, d: int, _new=object.__new__, _cls=QuadInt) -> QuadInt:
    """``QuadInt(a, b, d)`` without the constructor's checks: for the ints that
    ring arithmetic yields in a ring whose ``d`` was checked when it was built."""
    x = _new(_cls)
    fields = x.__dict__
    fields["a"] = a
    fields["b"] = b
    fields["d"] = d
    return x


def _sqrt_mod(n: int, p: int) -> int | None:
    """A square root of n modulo the odd prime p, for n not divisible by p,
    or None when n is not a square (Euler's criterion); Tonelli-Shanks."""
    if pow(n, (p - 1) // 2, p) == p - 1:
        return None
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = q * 2^s with q odd
    q = (p - 1) >> s
    z = next(z for z in itertools.count(2) if pow(z, (p - 1) // 2, p) == p - 1)  # a non-residue
    c, t, r = pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    # Invariant: r^2 = n*t (mod p), and t has order dividing 2^s.
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def split_prime(p: int, d: int) -> QuadInt | None:
    """An element of norm p in Z[sqrt(-d)], or None when p has no such
    representation (the prime does not split or ramify this way).

    The canonical solution has the smallest a >= 0 and b > 0, unique up to
    signs (and the swap of a and b at d = 1).  Cornacchia's algorithm finds it
    in O(log^2 p) steps (Cohen, *A Course in Computational Algebraic Number
    Theory*, 1993, Algorithms 1.5.1 and 1.5.2).
    """
    _check_d(d)
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if p == 2 or d % p == 0:
        # Then b = 1: p | d forces p | a, so a = 0 and d = p; and at p = 2, d*b^2 <= 2.
        a = math.isqrt(max(p - d, 0))
        return _quad(a, 1, d) if a * a + d == p else None
    r = _sqrt_mod(-d % p, p)
    if r is None:
        return None
    # Euclid on (p, r) from the root r <= p/2; the first remainder below sqrt(p) is a.
    x, a, limit = p, min(r, p - r), math.isqrt(p)
    while a > limit:
        x, a = a, x % a
    rest = p - a * a
    b = math.isqrt(rest // d)
    if rest % d or d * b * b != rest:
        return None
    return _quad(min(a, b), max(a, b), d) if d == 1 else _quad(a, b, d)


@dataclass(frozen=True)
class CongruenceLevel:
    """Principal ideal (pi^n) defining the congruence subgroup at that level.

    The census is defined where Newman's index formula is: at an odd prime
    norm N(pi).  Any other pi is refused here, and every census function
    assumes it.
    """

    pi: QuadInt
    n: int

    def __post_init__(self):
        if not isinstance(self.pi, QuadInt):
            raise TypeError("pi must be a QuadInt")
        q = self.pi.norm
        if q == 2 or not _is_prime(q):
            raise ValueError(f"index formula requires an odd prime norm, got N(pi) = {q}")
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be a positive int, got {self.n!r}")

    @property
    def level(self) -> QuadInt:
        return self.pi**self.n

    @property
    def norm(self) -> int:
        return self.pi.norm**self.n


def newman_index(level: CongruenceLevel) -> int:
    """Index of the principal congruence subgroup at pi^n in PSL2 of the
    ring, by Newman's formula (N(pi)^(3n)/2) * (1 - 1/N(pi)^2), which holds
    as printed at the odd prime norms that ``CongruenceLevel`` admits."""
    q = level.pi.norm
    return q ** (3 * level.n - 2) * (q * q - 1) // 2


def min_loxodromic_trace_lower_bound(level: CongruenceLevel) -> int:
    """Lower bound N(pi)^n - 2 on the trace modulus of any loxodromic element
    of the congruence subgroup.

    Traces have the form s*pi^(2n) + 2 with s in (pi^n) nonzero for a
    loxodromic, so |trace| >= |pi^(2n)| - 2 by the triangle inequality.
    """
    return level.norm - 2


@dataclass(frozen=True, slots=True)
class QuadMatrix:
    """2x2 matrix over Z[sqrt(-d)], entries sharing one ring."""

    m11: QuadInt
    m12: QuadInt
    m21: QuadInt
    m22: QuadInt

    def __post_init__(self):
        entries = (self.m11, self.m12, self.m21, self.m22)
        if not all(isinstance(e, QuadInt) for e in entries):
            raise TypeError("matrix entries must be QuadInt")
        if len({e.d for e in entries}) != 1:
            raise ValueError("matrix entries must share one ring")

    def is_identity_up_to_sign(self) -> bool:
        m11 = self.m11
        return (self.m12.is_zero() and self.m21.is_zero() and m11 == self.m22
                and m11.b == 0 and abs(m11.a) == 1)

    def classify_exact(self) -> ElementClass:
        """Conjugacy type from the exact trace (determinant must be 1)."""
        m11, m22 = self.m11, self.m22
        if m11.b + m22.b == 0:  # the trace, read from coordinates
            t = abs(m11.a + m22.a)
            if t < 2:
                return ElementClass.ELLIPTIC
            if t == 2:  # the trace of +/-I
                return (ElementClass.IDENTITY if self.is_identity_up_to_sign()
                        else ElementClass.PARABOLIC)
        return ElementClass.LOXODROMIC


def _congruence_search(level: CongruenceLevel, height: int):
    """The box search behind ``enumerate_congruence_elements`` and
    ``congruence_trace_counts``: the matrices (a*pi^n + 1, b*pi^n; c*pi^n,
    d*pi^n + 1) of determinant 1 whose parameter coordinates lie in
    [-height, height]^8, each parameter x named by its position in the box's
    parameters sorted by their entry x*pi^n.

    Returns the entries x*pi^n and the diagonal entries x*pi^n + 1, as
    coordinate pairs in position order, and an iterator of the hits
    (pa, pd, orbit): the positions of a and d, and the set of the positions
    (p, q) of each distinct (b, c) of the orbit found with them.  The matrix
    of one pair is (pa, p, q, pd), and each is listed once.  Positions run
    over range(size), size the number of parameters.

    Positions compare as the entries' coordinates do, for the diagonal
    x*pi^n + 1 as well.  The box is symmetric, so negation reverses the
    order: -x sits at position last - k when x sits at k.  The determinant
    condition forces b*c = a*d + (a+d)/pi^n exactly.  Both parts of a product
    of parameters in the box lie within +/- reach = (d+1)*height^2, so a
    product is keyed by the one int bc1*span + bc2, span = 2*reach + 1.
    Pass 1 indexes every (a, d) pair whose trace part a+d is divisible by
    w = pi^n, as the int a*size + d, under the key of the product b*c it
    forces; a forced product with a part beyond reach is skipped, since no
    b*c in the box equals it (and its key could alias one that does).  It
    groups the box's pairs x by the residue of x*conj(w) mod N(w), taken
    componentwise: w divides a+d exactly when the residues of a and d sum to
    (0, 0), so each a meets only the d it admits, for any nonzero w.  Pass 2
    looks b*c up in that index once per orbit of (b, c) under swapping b and
    c and negating both, which leave b*c unchanged.  It forms b*c + 1 of each
    distinct (b, c) of the orbit and checks that they are equal, and for
    each (a, d) found it forms the diagonal product (a*pi^n + 1)(d*pi^n + 1)
    and compares it exactly with them, so the determinant of every matrix
    is checked before its hit is handed on.
    """
    if not isinstance(height, int) or height < 0:
        raise ValueError(f"height must be a nonnegative int, got {height!r}")
    d = level.pi.d
    w = level.level
    w1, w2, nw = w.a, w.b, w.norm
    box = range(-height, height + 1)
    # each parameter x as its entry x*w, x and x*conj(w), in the order of the entries
    params = sorted((xa * w1 - d * xb * w2, xa * w2 + xb * w1, xa, xb,
                     xa * w1 + d * xb * w2, xb * w1 - xa * w2) for xa in box for xb in box)
    entries = [x[:2] for x in params]
    diagonal = [(e1 + 1, e2) for e1, e2 in entries]

    def hits():
        size = len(params)
        last = size - 1
        # both parts of a product of box parameters lie within +/- reach
        reach = (d + 1) * height * height
        span = 2 * reach + 1

        groups: dict[tuple[int, int], list[tuple[int, ...]]] = {}
        for k, (_, _, xa, xb, u1, u2) in enumerate(params):
            groups.setdefault((u1 % nw, u2 % nw), []).append((k, xa, xb, u1, u2))
        # the key of a forced b*c -> the diagonals pa * size + pd that force it
        index: dict[int, list[int]] = {}
        for (k1, k2), admitted in groups.items():
            # the box is symmetric and -x has residue (-k1, -k2): the partner group exists
            partners = groups[-k1 % nw, -k2 % nw]
            for pa, aa, ab, ua1, ua2 in admitted:
                a_part = pa * size
                for pd, da, db, ud1, ud2 in partners:
                    bc1 = aa * da - d * ab * db + (ua1 + ud1) // nw
                    bc2 = aa * db + ab * da + (ua2 + ud2) // nw
                    if -reach <= bc1 <= reach and -reach <= bc2 <= reach:  # else no b*c equals it
                        index.setdefault(bc1 * span + bc2, []).append(a_part + pd)
        del groups

        # b*c has the key b1 * (c1*span + c2) + b2 * (c1 - d*span*c2)
        pairs = [x[2:4] for x in params]
        keyed = [(ca * span + cb, ca - d * span * cb) for ca, cb in pairs]
        # each orbit has one pair of positions with i <= j, i + j <= last
        for i in range(last // 2 + 1):
            ba, bb = pairs[i]
            products = [ba * u + bb * v for u, v in keyed[i:last - i + 1]]
            for j in itertools.compress(itertools.count(i), map(index.__contains__, products)):
                diagonals = index[products[j - i]]
                # each distinct (b, c) of the orbit has its b*c + 1 checked equal to that
                # of (i, j), so one comparison per (a, d) checks every determinant
                (b1, b2), (c1, c2) = entries[i], entries[j]
                bc_plus_one = (b1 * c1 - d * b2 * c2 + 1, b1 * c2 + b2 * c1)
                orbit = {(i, j), (j, i), (last - i, last - j), (last - j, last - i)}
                for p, q in orbit:
                    (b1, b2), (c1, c2) = entries[p], entries[q]
                    if (b1 * c1 - d * b2 * c2 + 1, b1 * c2 + b2 * c1) != bc_plus_one:
                        raise RuntimeError("enumerated matrix failed the exact determinant check")
                for key in diagonals:
                    pa, pd = divmod(key, size)
                    (x1, x2), (y1, y2) = diagonal[pa], diagonal[pd]
                    if (x1 * y1 - d * x2 * y2, x1 * y2 + x2 * y1) != bc_plus_one:
                        raise RuntimeError("enumerated matrix failed the exact determinant check")
                    yield pa, pd, orbit

    return entries, diagonal, hits()


def enumerate_congruence_elements(level: CongruenceLevel, height: int) -> list[QuadMatrix]:
    """All matrices (a*pi^n + 1, b*pi^n; c*pi^n, d*pi^n + 1) of determinant 1
    whose parameter coordinates lie in [-height, height]^8, sorted by their
    coordinates.  No two of them are negatives of each other:
    -(a*pi^n + 1) = a'*pi^n + 1 would make pi^n divide 2, so N(pi)^n divide
    4, which an odd prime norm rules out.

    The matrices are the hits of ``_congruence_search``, which checks each
    determinant exactly.  Representatives are kept in the congruence form
    (diagonal = 1 mod pi^n) so the exact trace s*pi^(2n) + 2 stays
    recoverable.  Each matrix is first the int ((pa*size + p)*size + q)*size
    + pd of its entries' positions.  Positions compare as the entries'
    coordinates do, so the sorted ints give the matrices in the order of
    their coordinate tuples, and each int is replaced in place by its matrix.
    The matrices share their entries: one ``QuadInt`` per distinct
    coordinate pair, built once.
    """
    entries, diagonal, hits = _congruence_search(level, height)
    size = len(entries)
    found = [((pa * size + p) * size + q) * size + pd for pa, pd, orbit in hits for p, q in orbit]
    found.sort()

    d = level.pi.d
    quads = {e: _quad(*e, d) for e in entries + diagonal}
    off = [quads[e] for e in entries]
    diag = [quads[e] for e in diagonal]
    for k, v in enumerate(found):
        v, pd = divmod(v, size)
        v, q = divmod(v, size)
        pa, p = divmod(v, size)
        found[k] = QuadMatrix(diag[pa], off[p], off[q], diag[pd])
    return found


def congruence_trace_counts(level: CongruenceLevel,
                            height: int) -> dict[QuadInt, tuple[int, QuadMatrix]]:
    """The exact traces of the matrices that ``enumerate_congruence_elements``
    lists, each with how many of them have it and one of them:
    {trace: (count, matrix)}.

    A matrix's trace (a*pi^n + 1) + (d*pi^n + 1) depends only on its
    diagonal, so the hits of ``_congruence_search``, which checks every
    determinant exactly, are summed by the trace of their (a, d), each
    adding the size of its orbit of (b, c).  No matrix is built but the
    first found with each trace, so the peak memory is about that of the
    search's index rather than of the matrices.
    """
    entries, diagonal, hits = _congruence_search(level, height)
    d = level.pi.d
    # per trace: [its matrices, the first of them]
    traces: dict[tuple[int, int], list] = {}
    for pa, pd, orbit in hits:
        (x1, x2), (y1, y2) = diagonal[pa], diagonal[pd]
        trace = traces.get((x1 + y1, x2 + y2))
        if trace is not None:
            trace[0] += len(orbit)
            continue
        p, q = next(iter(orbit))
        first = (diagonal[pa], entries[p], entries[q], diagonal[pd])
        traces[x1 + y1, x2 + y2] = [len(orbit), QuadMatrix(*(_quad(*e, d) for e in first))]
    return {_quad(t1, t2, d): (count, m) for (t1, t2), (count, m) in traces.items()}


@dataclass(frozen=True)
class GrowthRow:
    """One census row: congruence level n with volume and systole data."""

    n: int
    index: int
    volume: float
    level_norm: int
    trace_lb: int
    systole_lb: float
    ratio: float


def systole_growth_table(
    pi: QuadInt, n_max: int, base_covolume: float
) -> list[GrowthRow]:
    """Census of the congruence tower: per level n, the index, the cover
    volume base_covolume * index, the trace lower bound N(pi)^n - 2, the
    systole lower bound log(max(2, N(pi)^n - 2)^2 / 4) (the trivial 0 when
    N(pi)^n = 3), and its ratio to log(volume).

    After an ``n_max`` that is not a positive int, it refuses, in this order:
    a pi whose norm is not an odd prime or not below ``_MR_BOUND`` (ValueError),
    a base covolume that is not positive (ValueError), a level volume past the
    doubles (OverflowError), and one not above 1, where log(volume) is not
    positive (ValueError)."""
    if not isinstance(n_max, int) or n_max < 1:
        raise ValueError(f"n_max must be a positive int, got {n_max!r}")
    CongruenceLevel(pi, 1)  # the norm is refused before the base covolume
    base = float(base_covolume)
    if not base > 0:
        raise ValueError(f"base covolume must be positive, got {base}")
    rows = []
    for n in range(1, n_max + 1):
        level = CongruenceLevel(pi, n)
        index = newman_index(level)
        try:
            volume = base * index
        except OverflowError:  # an index past the doubles
            volume = math.inf
        if not math.isfinite(volume):
            raise OverflowError("level volume overflows floating point")
        if not volume > 1:
            raise ValueError(f"level n = {n} has volume {volume}; the ratio to "
                             "log(volume) needs a volume above 1")
        trace_lb = min_loxodromic_trace_lower_bound(level)
        systole_lb = math.log(max(2, trace_lb) ** 2 / 4)
        rows.append(GrowthRow(n=n, index=index, volume=volume, level_norm=level.norm,
                              trace_lb=trace_lb, systole_lb=systole_lb,
                              ratio=systole_lb / math.log(volume)))
    return rows


def elements_of_bounded_modulus(d: int, bound: float) -> list[QuadInt]:
    """All nonzero x in Z[sqrt(-d)] with |x| <= bound, sorted by norm then
    lexicographically by coordinates."""
    _check_d(d)
    bound = float(bound)
    if bound < 1:
        raise ValueError(f"bound must be at least 1, got {bound}")
    b2 = bound * bound
    amax = int(math.floor(bound))
    bmax = int(math.floor(bound / math.sqrt(d))) + 1
    out = []
    for a in range(-amax, amax + 1):
        for b in range(-bmax, bmax + 1):
            norm = a * a + d * b * b
            if 0 < norm <= b2:
                out.append(_quad(a, b, d))
    out.sort(key=lambda x: (x.norm, x.a, x.b))
    return out
