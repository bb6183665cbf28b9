"""Accuracy of the closed-form bounds and the torus diameter against mpmath
at 60 digits.

Each test draws seeded, log-spread inputs, evaluates the mathematical
function of those exact float inputs with exact constants in mpmath, and
bounds the float result's error in ulps of the true value.  The budgets are
the largest errors measured on x86-64 Linux (glibc libm), rounded up to the
next half ulp.  Five tests differ, at 160 bits: ``lobachevsky``'s budget is
absolute, since the function is 0 at pi/2, the length-lemma and techlem2
margin files' are in ulps of the claim's bound, the cubic margin file's is in
ulps of its largest term, and the crossing margin file's bisected gap is
relative to the crossing.
"""

import cmath
import math
import random
import sys

import mpmath as mp
import pytest

from sysbound import bounds, mobius
from sysbound.certify import CROSSING_REL_TOL
from sysbound.cli import main
from sysbound.cusp import CuspLattice

DIGITS = 60


def _ulps(got, exact):
    return float(abs(mp.mpf(got) - exact) / mp.mpf(math.ulp(float(exact))))


def _log_uniform(rng, lo, hi):
    return 10 ** rng.uniform(math.log10(lo), math.log10(hi))


def _exact_cusp_density():
    v0 = 3 * mp.clsin(2, 2 * mp.pi / 3) / 2
    return mp.sqrt(3) / (2 * v0)


def _worst_ulps(inputs, f, exact):
    """The largest error of ``f`` in ulps of ``exact`` over ``inputs``, tuples
    of float arguments."""
    with mp.workdps(DIGITS):
        return max(_ulps(f(*args), exact(*args)) for args in inputs)


def test_min_trace_bound_is_within_two_ulps_on_both_branches():
    """Budget: 2 ulps where the torus term wins and 1 ulp where the
    Adams-Reid term wins.  Measured: 1.62 and 0.87 ulps, over 1.5e5 draws.

    ell is log-uniform in (2, 1e70), and vc is ell^3 times a log-uniform
    factor in (1e-4, 1e4), which puts the crossing of the two terms
    (vc about ell^3) in the middle of the draw.  vc stays at or below 1e150,
    where vc * vc is finite; the next test records what happens above it.
    """
    rng = random.Random(16)
    worst = {"torus": 0.0, "adams-reid": 0.0}
    with mp.workdps(DIGITS):
        for _ in range(10000):
            ell = _log_uniform(rng, 2.0000001, 1e70)
            vc = min(ell**3 * _log_uniform(rng, 1e-4, 1e4), 1e150)
            ell_sq = mp.mpf(ell) ** 2
            torus = mp.sqrt(ell_sq / 4 + mp.mpf(vc) ** 2 / ell_sq)
            adams_reid = mp.sqrt(ell_sq**2 + 4)
            branch = "torus" if torus <= adams_reid else "adams-reid"
            err = _ulps(bounds.min_trace_bound(ell, vc), min(torus, adams_reid))
            worst[branch] = max(worst[branch], err)
    assert all(err > 0 for err in worst.values()), worst  # both branches drawn
    assert worst["torus"] <= 2 and worst["adams-reid"] <= 1, worst


def test_min_trace_bound_past_the_square_of_vc():
    """Budget: 1 ulp.  Measured: 0.84 ulps.

    vc is log-uniform in (1.4e154, 1.7e308), where vc * vc overflows and the
    torus term is hypot(ell/2, vc/ell); ell is log-uniform in (2, 1e77), and
    (1e60, 1e160) is drawn too, where the true minimum is the torus term,
    about 1e100.  The techlem2 sweep never gets here: it refuses vc above
    about 5.8e153.
    """
    rng = random.Random(19)
    draws = [(1e60, 1e160)] + [(_log_uniform(rng, 2.0000001, 1e77),
                                _log_uniform(rng, 1.4e154, 1.7e308)) for _ in range(3000)]

    def exact(ell, vc):
        ell_sq = mp.mpf(ell) ** 2
        return min(mp.sqrt(ell_sq / 4 + mp.mpf(vc) ** 2 / ell_sq), mp.sqrt(ell_sq**2 + 4))

    worst = _worst_ulps(draws, bounds.min_trace_bound, exact)
    assert worst <= 1, worst


def test_cusped_systole_bound_is_within_two_ulps():
    """Budget: 2 ulps.  Measured: 1.82 ulps.

    v is log-uniform in (1e-3, 1.7e308), with the largest float added, so
    both the Adams-Reid constant and the log branch are drawn.  From about
    v = 1.8e231 on, 2*vc^(4/3) overflows, and the bound is evaluated as
    log 2 + (4/3) log vc, which the 8 no longer moves.  The truth uses the
    exact cusp density sqrt(3)/(2 V0) and the exact Adams-Reid length at
    slope 2*pi.
    """
    rng = random.Random(17)
    draws = [(sys.float_info.max,)] + [(_log_uniform(rng, 1e-3, 1.7e308),) for _ in range(5000)]
    with mp.workdps(DIGITS):
        c0 = _exact_cusp_density()
        adams_reid = (2 * mp.acosh((2 + (2 * mp.pi) ** 2 * mp.mpc(0, 1)) / 2)).real

    def exact(v):
        return max(adams_reid, mp.log(2 * (c0 * v) ** (mp.mpf(4) / 3) + 8))

    worst = _worst_ulps(draws, bounds.cusped_systole_bound, exact)
    assert worst <= 2, worst


def test_link_systole_bound_is_within_one_and_a_half_ulps():
    """Budget: 1.5 ulps.  Measured: 1.02 ulps.

    v is log-uniform in (1e-3, 1.7e308), with v = 0 (a non-hyperbolic closed
    manifold) and the largest float added.  From about v = 1.1e231 on, the
    square overflows, and the bound is evaluated as 2 log(sqrt(2) vc^(2/3) +
    4 pi^2), which the 8 no longer moves.  The truth uses the exact cusp
    density and pi.
    """
    rng = random.Random(18)
    draws = [(0.0,), (sys.float_info.max,)] + [
        (_log_uniform(rng, 1e-3, 1.7e308),) for _ in range(5000)]
    with mp.workdps(DIGITS):
        c0 = _exact_cusp_density()

    def exact(v):
        return mp.log((mp.sqrt(2) * (c0 * v) ** (mp.mpf(2) / 3) + 4 * mp.pi**2) ** 2 + 8)

    worst = _worst_ulps(draws, bounds.link_systole_bound, exact)
    assert worst <= 1.5, worst


def test_min_trace_bound_torus_term_is_within_one_and_a_half_ulps():
    """Budget: 1.5 ulps.  Measured: 1.27 ulps.

    ``min_trace_bound`` on lanes where its torus term
    sqrt(ell^2/4 + vc^2/ell^2) is the minimum, which it returns bit for bit.
    ell is log-uniform in (2, 1e77), past which ell**4 raises, and vc in
    (1e-300, 1.7e308), keeping the draws with vc/ell below ell^2/2, where the
    torus term is below sqrt(ell^4 + 4).  Where vc*vc overflows, the term is
    hypot(ell/2, vc/ell).
    """
    rng = random.Random(20)
    draws = [(1e60, 1e160), (1e70, 1e200)]
    while len(draws) < 5000:
        ell, vc = _log_uniform(rng, 2.0000001, 1e77), _log_uniform(rng, 1e-300, 1.7e308)
        if vc / ell < ell * ell / 2:
            draws.append((ell, vc))

    def exact(ell, vc):
        ell_sq = mp.mpf(ell) ** 2
        torus = mp.sqrt(ell_sq / 4 + mp.mpf(vc) ** 2 / ell_sq)
        assert torus < mp.sqrt(ell_sq**2 + 4), (ell, vc)
        return torus

    worst = _worst_ulps(draws, bounds.min_trace_bound, exact)
    assert worst <= 1.5, worst


def test_adams_reid_bounds_are_within_one_ulp():
    """Budget: 1 ulp for the trace bound sqrt(w^4 + 4) and for the length
    bound Re(2 acosh((2 + w^2 i)/2)).  Measured: 0.93 and 0.98 ulps.

    w is log-uniform in (2, 1.1e77) for the trace bound, whose w**4 raises
    from about 1.16e77 on, and in (2, 1.3e154) for the length bound, whose
    w*w overflows from about 1.34e154 on.
    """
    rng = random.Random(21)
    traces = [(_log_uniform(rng, 2.0000001, 1.1e77),) for _ in range(3000)]
    lengths = [(_log_uniform(rng, 2.0000001, 1.3e154),) for _ in range(3000)]
    worst_trace = _worst_ulps(traces, bounds.adams_reid_trace_bound,
                              lambda w: mp.sqrt(mp.mpf(w) ** 4 + 4))
    worst_length = _worst_ulps(lengths, bounds.adams_reid_length_bound,
                               lambda w: (2 * mp.acosh(mp.mpc(2, mp.mpf(w) ** 2) / 2)).real)
    assert worst_trace <= 1 and worst_length <= 1, (worst_trace, worst_length)


def test_loxodromic_length_bound_is_within_one_ulp():
    """Budget: 1 ulp.  Measured: 0.89 ulps.

    r is 0 or log-uniform in (1e-300, 1.3e154); r*r overflows from about
    1.34e154 on.
    """
    rng = random.Random(22)
    draws = [(0.0,)] + [(_log_uniform(rng, 1e-300, 1.3e154),) for _ in range(5000)]
    worst = _worst_ulps(draws, bounds.loxodromic_length_bound, lambda r: mp.log(mp.mpf(r) ** 2 + 4))
    assert worst <= 1, worst


def test_lobachevsky_is_within_5e_15_on_its_whole_domain():
    """Budget: an absolute 5e-15.  Measured: 3.3e-16 up to theta = 3.1,
    7.4e-16 on (3.1, pi), and 4.2e-15 at the float just below pi, where the
    rounding of pi, scaled by |log|2 sin theta||, dominates.

    The budget is absolute, not in ulps, because the function is 0 at pi/2.
    The truth is Cl_2(2 theta)/2 at 160 bits.  theta is uniform in (0, pi),
    log-uniform in (1e-300, 1), and the floats next to pi/2 and pi.
    """
    rng = random.Random(27)
    draws = [rng.uniform(0, math.pi) for _ in range(2000)]
    draws += [_log_uniform(rng, 1e-300, 1.0) for _ in range(200)]
    draws += [math.pi / 2, math.nextafter(math.pi / 2, 0), math.nextafter(math.pi / 2, 4),
              math.nextafter(math.pi, 0)]
    with mp.workprec(160):
        worst = max(abs(bounds.lobachevsky(t) - mp.clsin(2, 2 * mp.mpf(t)) / 2) for t in draws)
    assert worst <= 5e-15, worst


def test_length_of_a_trace_is_within_two_ulps():
    """Budget: 2 ulps.  Measured: 1.98 ulps.

    ``mobius._length(t)``, |Re(2 acosh(t/2))|, at traces t of modulus
    log-uniform in (1e-300, 1e300) and uniform argument, and at traces
    within a log-uniform (1e-300, 1) of +2 or -2.  Near the imaginary axis
    and near +-2 the length is far below |acosh(t/2)|, about pi/2 or pi, so
    the truth is computed at 400 digits.
    """
    rng = random.Random(23)
    draws = []
    for _ in range(1000):
        m, a = _log_uniform(rng, 1e-300, 1e300), rng.uniform(0, 2 * math.pi)
        draws.append((complex(m * math.cos(a), m * math.sin(a)),))
        d, a = _log_uniform(rng, 1e-300, 1.0), rng.uniform(0, 2 * math.pi)
        draws.append((complex(rng.choice([2.0, -2.0]) + d * math.cos(a), d * math.sin(a)),))

    def exact(t):
        with mp.workdps(400):
            return +abs((2 * mp.acosh(mp.mpc(t.real, t.imag) / 2)).real)

    worst = _worst_ulps(draws, mobius._length, exact)
    assert worst <= 2, worst


def test_length_of_a_trace_whose_eigenvalue_cancels_is_within_two_ulps():
    """Budget: 2 ulps, that of ``mobius._length``, which computes it.
    Measured: 0.74 ulps, over 192 traces.

    Of 200 000 traces whose parts are drawn independently, of either sign
    and of magnitude log-uniform in (1e-320, 1e150), and -1e-292 + 1e24i, the
    ones where (t + root)/2 cancels so far that its inverse is not finite.
    There ``mobius._eigenvalue`` takes (t - root)/2, and the element's
    translation length is checked against mpmath at 400 digits.
    """
    rng = random.Random(7)
    draws = [complex(-1e-292, 1e24)]
    for _ in range(200_000):
        re, im = (rng.choice([-1, 1]) * 10 ** rng.uniform(-320, 150) for _ in range(2))
        draws.append(complex(re, im))
    cancelled = []
    for t in draws:
        first = (t + cmath.sqrt(t * t - 4)) / 2
        if first and not cmath.isfinite(1 / first):
            cancelled.append((t,))
    assert len(cancelled) > 100

    def exact(t):
        with mp.workdps(400):
            return +abs((2 * mp.acosh(mp.mpc(t.real, t.imag) / 2)).real)

    def length(t):
        return mobius.MoebiusElement.from_trace(t).translation_length()

    worst = _worst_ulps(cancelled, length, exact)
    assert worst <= 2, worst


def _margin_rows(tmp_path, *argv):
    """The rows of ``sysbound verify *argv --margins-csv``, three floats each.
    A failed run or a file of another shape fails the test outright, so that
    it never counts as a strict xfail's expected failure."""
    path = tmp_path / "margins.csv"
    if main(["verify", *argv, "--margins-csv", str(path)]) != 0:
        pytest.fail(f"verify {' '.join(argv)} --margins-csv did not exit 0")
    rows = [tuple(map(float, line.split(","))) for line in path.read_text().splitlines()[1:]]
    if any(len(row) != 3 for row in rows):
        pytest.fail("a margin row does not have three cells")
    return rows


_EIGENVALUE_CANCELLATION = (
    "the length kernel replays mobius._eigenvalue, which takes (t + root)/2 with the principal "
    "root and cancels when Re t < 0; lengths from the trace (ROADMAP item 7) mend it, but move "
    "the length-lemma margins")


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=_EIGENVALUE_CANCELLATION)
def test_length_lemma_margins_are_within_two_ulps_of_the_bound(tmp_path):
    """Budget: 2 ulps of the bound log 10004.  Measured: 935 ulps; margins
    computed as ``bound - mobius._length(t)`` measure 1.02.

    ``verify length-lemma --margins-csv`` at its defaults (seed 42, r_max
    100), and 2000 seeded rows of its file recomputed as
    log(100^2 + 4) - |Re(2 acosh(t/2))| at 160 bits.  Only the budget is an
    assertion: a failed run or a file of another shape fails the test
    outright instead of counting as the expected failure.
    """
    rows = random.Random(28).sample(_margin_rows(tmp_path, "length-lemma"), 2000)
    ulp = math.ulp(bounds.loxodromic_length_bound(100.0))
    with mp.workprec(160):
        bound = mp.log(10004)
        worst = max(
            float(abs(margin - (bound - abs((2 * mp.acosh(mp.mpc(x, y) / 2)).real)))) / ulp
            for x, y, margin in rows)
    assert worst <= 2, worst


def test_cubic_margins_are_within_two_ulps_of_the_leading_term(tmp_path):
    """Budget: each margin within 2 ulps of 4x^3 of f(x) = 4x^3 - x^2 + 16x -
    4vc^2, taken at the printed vc and x, and each x within 4 ulps of
    sqrt(2) vc^(2/3).  Measured: 1.36 and 3.46 ulps.

    ``verify cubic --margins-csv`` at its defaults, all 200 rows (vc, x,
    margin), recomputed at 160 bits.  The margin's budget is in ulps of 4x^3,
    not of f(x): f cancels, and x carries the error of ``v ** (2/3)``.
    """
    rows = _margin_rows(tmp_path, "cubic")
    assert len(rows) == 200
    with mp.workprec(160):
        margin = max(float(abs(m - (4 * x**3 - x**2 + 16 * x - 4 * vc**2)) / math.ulp(4 * x**3))
                     for vc, x, m in ((mp.mpf(vc), mp.mpf(x), m) for vc, x, m in rows))
        root = max(_ulps(x, mp.sqrt(2) * mp.mpf(vc) ** (mp.mpf(2) / 3)) for vc, x, _ in rows)
    assert margin <= 2 and root <= 4, (margin, root)


def test_crossing_margins_are_within_the_bisection_width_of_the_truth(tmp_path):
    """Budget: each closed-form crossing volume within 7.5 ulps of the true
    crossing, and each bisected gap ``rel_tol - margin`` within 5.5e-14 of the
    true gap |x* - closed| / closed.  Measured: 7.40 ulps and 4.59e-14.

    ``verify crossing --margins-csv`` at its defaults, all 100 rows (v,
    crossing_volume, margin), with the true crossing x* =
    (v^(2/3) + 4 pi^2 / (sqrt(2) C0^(2/3)))^(3/2) at 160 bits.  The gap's
    budget is half the bisection's stopping width, 1e-13 of hi, with 10% for
    the rounding of the two bounds near the root: the midpoint is within
    5e-14 of where their float difference changes sign.
    """
    rows = _margin_rows(tmp_path, "crossing")
    assert len(rows) == 100
    with mp.workprec(160):
        shift = 4 * mp.pi**2 / (mp.sqrt(2) * _exact_cusp_density() ** (mp.mpf(2) / 3))
        crossings = [(mp.mpf(v) ** (mp.mpf(2) / 3) + shift) ** mp.mpf(1.5) for v, _, _ in rows]
        closed = max(_ulps(c, x) for (_, c, _), x in zip(rows, crossings))
        gap = max(float(abs((CROSSING_REL_TOL - m) - abs(x - c) / c))
                  for (_, c, m), x in zip(rows, crossings))
    assert closed <= 7.5 and gap <= 5.5e-14, (closed, gap)


def test_techlem2_margins_err_by_the_rounded_exponent_of_the_bound(tmp_path):
    """Budget: 5 ulps of the bound against the truth, and 1.5 ulps against
    the same margins with the bound's exponent 4/3 rounded to a float.
    Measured: 4.65 and 1.27 ulps.

    ``verify techlem2 --ell-points 500 --margins-csv``, each volume's worst
    row (vc, worst_ell, margin), recomputed at 160 bits as
    sqrt(2 vc^(4/3) + 4) - min(sqrt(ell^2/4 + vc^2/ell^2), sqrt(ell^4 + 4)).
    ``vc ** (4/3)`` raises vc to 4/3 - 7.4e-17, a relative error of
    7.4e-17 log(vc) that sqrt halves: about 4 ulps of the bound near vc = 1e6.
    """
    rows = _margin_rows(tmp_path, "techlem2", "--ell-points", "500")
    assert len(rows) == 200
    errors = {}
    with mp.workprec(160):
        for exponent in (mp.mpf(4) / 3, mp.mpf(4 / 3)):
            errors[exponent == mp.mpf(4 / 3)] = max(
                float(abs(m - (mp.sqrt(2 * vc**exponent + 4)
                               - min(mp.sqrt(ell**2 / 4 + vc**2 / ell**2), mp.sqrt(ell**4 + 4)))))
                / math.ulp(bounds.cusp_volume_trace_bound(float(vc)))
                for vc, ell, m in ((mp.mpf(vc), mp.mpf(ell), m) for vc, ell, m in rows))
    assert errors[False] <= 5 and errors[True] <= 1.5, errors


def _exponent_errors(draws, f, formula):
    """The worst errors of ``f`` in ulps against ``formula(x, a, b)`` with the
    exact exponents a, b and with the float exponents that the code uses."""
    with mp.workdps(DIGITS):
        third = mp.mpf(1) / 3
    exact = _worst_ulps(draws, f, lambda x: formula(x, 4 * third, 2 * third))
    rounded = _worst_ulps(draws, f, lambda x: formula(x, mp.mpf(4 / 3), mp.mpf(2 / 3)))
    return exact, rounded


def test_cusp_volume_and_drilled_trace_bounds_err_by_their_rounded_exponent():
    """Budget: 229.5 ulps against the truth, and 2 ulps against the same
    formula with the exponent 4/3 rounded to a float, as the code computes
    it.  Measured: 229.4 and 1.60 ulps (cusp volume), 221.9 and 1.45
    (drilled).

    ``vc ** (4/3)`` raises vc to 4/3 - 7.4e-17.  That errs by a relative
    7.4e-17 * log(vc), which the square root halves: 2.6e-14 at the largest
    float, up to about 237 ulps.  So the error is the exponent's, not pow's.
    From about vc = 9.2e230 on, 2*vc^(4/3) overflows, and the bound is
    sqrt(2) * vc^(2/3), whose float exponent 2/3 is half the float 4/3; its
    three roundings give the 1.6 ulps.  vc and x are log-uniform in
    (1e-300, 1.7e308), with the largest float and the floats on either side
    of the overflow of 2*vc^(4/3) (cusp volume 9.23e230, drilled x 1.08e231)
    and of the power (cusp volume 1.55e231) added.
    """
    rng = random.Random(24)
    draws = [(sys.float_info.max,), (9.231327807672543e230,), (9.231327807672545e230,),
             (1.0818688035559484e231,), (1.0818688035559486e231,),
             (1.5525180923007544e231,), (1.5525180923007548e231,)]
    draws += [(_log_uniform(rng, 1e-300, 1.7e308),) for _ in range(3000)]
    with mp.workdps(DIGITS):
        c0 = _exact_cusp_density()
    cusp = _exponent_errors(draws, lambda vc: bounds.cusp_volume_trace_bound(vc, enforce_domain=False),
                            lambda vc, a, _: mp.sqrt(2 * mp.mpf(vc) ** a + 4))
    drilled = _exponent_errors(draws, bounds.drilled_trace_bound,
                               lambda x, a, _: mp.sqrt(2 * (c0 * x) ** a + 4))
    assert cusp[0] <= 229.5 and drilled[0] <= 229.5, (cusp, drilled)
    assert cusp[1] <= 2 and drilled[1] <= 2, (cusp, drilled)


def test_crossing_volume_errs_by_its_rounded_exponent():
    """Budget: 355 ulps against the truth, and 2.5 ulps against the same
    formula with the exponent 2/3 rounded to a float.  Measured: 355 and
    2.41 ulps.

    ``v ** (2/3)`` raises v to 2/3 - 3.7e-17, and the power 1.5 scales the
    relative error 3.7e-17 * log(v) by 1.5: 3.9e-14, about 355 ulps, at the
    largest float.  The true crossing exceeds v by a relative 47 v^(-2/3),
    which that error outweighs from about v = 1.9e24 on, where
    crossing_volume(v) comes out below v: ``bound closed-link --volume 1e230``
    prints a crossing volume below V.
    v is 0, the largest float, or log-uniform in (1e-300, 1.7e308).
    """
    rng = random.Random(25)
    draws = [(0.0,), (sys.float_info.max,)] + [
        (_log_uniform(rng, 1e-300, 1.7e308),) for _ in range(3000)]
    with mp.workdps(DIGITS):
        c0 = _exact_cusp_density()

    def formula(v, _, b):
        return (mp.mpf(v) ** b + 4 * mp.pi**2 / (mp.sqrt(2) * c0 ** b)) ** mp.mpf(1.5)

    exact, rounded = _exponent_errors(draws, bounds.crossing_volume, formula)
    assert exact <= 355 and rounded <= 2.5, (exact, rounded)
    assert bounds.crossing_volume(1e230) < 1e230


def _near_v(seed):
    """(x, v) pairs with v log-uniform in (1e-3, 1e20) and x/v - 1
    log-uniform in (1e-14, 1e2)."""
    rng = random.Random(seed)
    draws = []
    for _ in range(2000):
        v = _log_uniform(rng, 1e-3, 1e20)
        draws.append((v * (1 + _log_uniform(rng, 1e-14, 1e2)), v))
    return draws


_CANCELLATION = ("1 - (v/x)^(2/3) cancels as x nears v, so the rounding of (v/x)^(2/3) is "
                 "magnified by about 1/(1 - v/x); computing it as "
                 "-expm1((2/3) log1p(-(x - v)/x)) would mend it, but moves crossing's margins")


@pytest.mark.xfail(strict=True, reason=_CANCELLATION)
def test_filling_slope_trace_bound_near_its_pole():
    """Budget: 3 ulps, at complement volumes x near the closed volume v."""
    worst = _worst_ulps(_near_v(26), bounds.filling_slope_trace_bound,
                        lambda x, v: mp.sqrt(16 * mp.pi**4 / (1 - (mp.mpf(v) / x) ** (mp.mpf(2) / 3)) ** 2 + 4))
    assert worst <= 3, worst


def _exact_torus_diameter(t1, t2):
    """The covering radius of the lattice of the float generators t1, t2, and
    its area: Lagrange reduction in mpmath, then the circumradius of the
    triangle of an obtuse superbasis."""
    u, v = mp.mpc(t1.real, t1.imag), mp.mpc(t2.real, t2.imag)
    if abs(u) > abs(v):
        u, v = v, u
    while True:
        v -= mp.nint(mp.re(mp.conj(u) * v) / abs(u) ** 2) * u
        if abs(v) >= abs(u):
            break
        u, v = v, u
    if mp.re(mp.conj(u) * v) > 0:
        v = -v
    area = abs(mp.im(mp.conj(u) * v))
    return abs(u) * abs(v) * abs(u + v) / (2 * area), area


def _lattice_draws(seed, count):
    """(t1, t2, k): the basis (1, z) of a reduced torus, with Re z uniform in
    [-1/2, 1/2] and |z| log-uniform in (1, 1e4), changed by the determinant-1
    matrix (1 + mn, m; n, 1) with m, n drawn from [-k, k], rotated uniformly
    and scaled by a log-uniform (1e-95, 1e95)."""
    rng = random.Random(seed)
    draws = []
    for i in range(count):
        k = (0, 1, 3, 100, 1000)[i % 5]
        m, n = rng.randint(-k, k), rng.randint(-k, k)
        x = rng.uniform(-0.5, 0.5)
        z = complex(x, math.sqrt(1 - x * x) * _log_uniform(rng, 1, 1e4))
        theta = rng.uniform(0, 2 * math.pi)
        rot = complex(math.cos(theta), math.sin(theta)) * _log_uniform(rng, 1e-95, 1e95)
        draws.append(((1 + m * n + m * z) * rot, (n + z) * rot, k))
    return draws


def test_torus_diameter_errs_by_the_conditioning_of_its_basis():
    """Budget: 4 ulps on a reduced basis (k = 0), and 4 + kappa/10 ulps on
    any basis, where kappa = max(|t1|, |t2|)^2 / area, which CuspLattice
    keeps below 1e12.  Measured: 3.55 ulps, and 4 + 0.060 kappa.

    The float reduction's steps v - m*u cancel by up to a factor of kappa;
    a reduced basis takes none.  Draws whose generators CuspLattice refuses
    as (nearly) dependent are skipped; the scale keeps |u| |v| |u+v| of the
    reduced basis a normal float (the next test is past it).
    """
    reduced, excess, kept = 0.0, 0.0, 0
    with mp.workdps(DIGITS):
        for t1, t2, k in _lattice_draws(29, 3000):
            try:
                lattice = CuspLattice(t1, t2)
            except ValueError:
                continue
            kept += 1
            err = _ulps(lattice.torus_diameter(), _exact_torus_diameter(t1, t2)[0])
            kappa = max(abs(t1), abs(t2)) ** 2 / lattice.area
            if k == 0:
                reduced = max(reduced, err)
            excess = max(excess, (err - 4) / kappa)
    assert kept >= 2500, kept
    assert reduced <= 4 and excess <= 0.1, (reduced, excess)


@pytest.mark.parametrize("t1, t2", [(1e120, 1e120j), (1e-150, 1e-150j), (1.5e-154, 1.5e-154j),
                                    (1e155, 1e153j)])
def test_torus_diameter_past_the_range_of_its_product(t1, t2):
    """Budget: 4 ulps, as on a reduced basis at moderate scales.  Unscaled,
    |u| |v| |u+v| would be inf, 0, 0 and inf/inf = NaN.  The third has area
    2.25e-308, about the least that the constructor accepts."""
    with mp.workdps(DIGITS):
        assert _ulps(CuspLattice(t1, t2).torus_diameter(), _exact_torus_diameter(t1, t2)[0]) <= 4
