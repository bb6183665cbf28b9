import ast
import cmath
import inspect
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import sysbound
from sysbound import bounds, certify
from sysbound.cusp import CuspLattice, max_waist_for_cusp_volume
from sysbound.mobius import MoebiusElement


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def test_tetrahedron_volume_matches_series():
    assert 3 * bounds.lobachevsky(math.pi / 3) == bounds.IDEAL_TETRAHEDRON_VOLUME


def test_tetrahedron_volume_matches_quadrature():
    mp.mp.dps = 30
    oracle = -3 * mp.quad(lambda t: mp.log(abs(2 * mp.sin(t))), [0, mp.pi / 3])
    assert bounds.IDEAL_TETRAHEDRON_VOLUME == pytest.approx(float(oracle), abs=1e-15)


def test_lobachevsky_domain():
    with pytest.raises(ValueError):
        bounds.lobachevsky(0)
    with pytest.raises(ValueError):
        bounds.lobachevsky(math.pi)


def _lobachevsky_series(theta):
    # Reference: the 30-term series, with each zeta(2n)/pi^(2n) rebuilt from
    # Bernoulli numbers by the Akiyama-Tanigawa algorithm (B_1 = +1/2; the even
    # ones agree with every convention).
    a, bernoulli = [], []
    for m in range(61):
        a.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        bernoulli.append(a[0])
    total = theta * (1 - math.log(2 * theta))
    theta_sq = theta * theta
    power = theta_sq
    for n in range(1, 31):
        coeff = (-1) ** (n + 1) * bernoulli[2 * n] * (2 ** (2 * n - 1)) / Fraction(math.factorial(2 * n))
        total += float(coeff) * power * theta / (n * (2 * n + 1))
        power *= theta_sq
    return total


@pytest.mark.parametrize("theta", [1e-300, 1e-3, 0.5, 1.0, math.pi / 3, math.pi / 2,
                                   math.nextafter(math.pi / 2, 4), 2.0, 3.0, 3.1,
                                   math.nextafter(math.pi, 0)])
def test_lobachevsky_is_the_series_on_half_its_domain_reflected_on_the_rest(theta):
    expected = _lobachevsky_series(theta) if theta <= math.pi / 2 else -_lobachevsky_series(math.pi - theta)
    assert bounds.lobachevsky(theta) == expected


@pytest.mark.parametrize("n", range(1, 31))
def test_lobachevsky_coefficient_is_zeta_over_pi_power_rounded_once(n):
    # An independent reference for the table: mpmath's zeta at 200 bits, not
    # Bernoulli numbers, rounded to the nearest double.
    with mp.workprec(200):
        expected = float(mp.zeta(2 * n) / mp.pi ** (2 * n))
    assert bounds._zeta_ratios()[n - 1] == expected


def test_cusp_density_bound():
    assert 0.8528 < bounds.CUSP_DENSITY_BOUND < 0.8536
    assert abs(
        bounds.CUSP_DENSITY_BOUND - math.sqrt(3) / (2 * bounds.IDEAL_TETRAHEDRON_VOLUME)
    ) < 1e-12


def test_adams_reid_length_constant():
    assert 7.35533 < bounds.ADAMS_REID_LENGTH < 7.35535
    assert bounds.ADAMS_REID_LENGTH == pytest.approx(
        bounds.adams_reid_length_bound(2 * math.pi), abs=1e-15
    )


def test_thresholds():
    assert bounds.CUSP_VOLUME_THRESHOLD == pytest.approx(1.5396, abs=1e-4)
    assert bounds.MIN_CUSP_VOLUME_AT_WAIST_2PI == pytest.approx(17.0946, abs=1e-4)


# ---------------------------------------------------------------------------
# trace bounds
# ---------------------------------------------------------------------------

def test_adams_reid_trace_bound_values():
    w = 2 * math.pi
    assert bounds.adams_reid_trace_bound(w) == pytest.approx(math.sqrt(w**4 + 4), rel=1e-15)
    assert bounds.adams_reid_trace_bound(w) == pytest.approx(39.529, abs=1e-3)


def test_adams_reid_trace_bound_identity():
    for w in np.linspace(2.01, 50, 100):
        ar = bounds.adams_reid_trace_bound(float(w))
        assert ar * ar - w**4 == pytest.approx(4, rel=1e-9)


def test_adams_reid_trace_bound_domain():
    with pytest.raises(ValueError):
        bounds.adams_reid_trace_bound(math.sqrt(2))
    with pytest.raises(ValueError):
        bounds.adams_reid_trace_bound(2.0)


def test_adams_reid_length_is_weaker_than_log_form():
    for w in np.linspace(2.01, 30, 50):
        assert bounds.adams_reid_length_bound(float(w)) <= math.log(w**4 + 8) + 1e-12


def _product(g, h):
    """The matrix product g h."""
    return MoebiusElement(g.a * h.a + g.b * h.c, g.a * h.b + g.b * h.d,
                          g.c * h.a + g.d * h.c, g.c * h.b + g.d * h.d)


def test_adams_reid_length_matches_constructed_element():
    # an explicit loxodromic with the worst-case trace 2 + 9i, conjugated off
    # the diagonal, must realize the bound exactly
    w = 3.0
    t = complex(2, w * w)
    g = MoebiusElement.from_trace(t)
    h = MoebiusElement(complex(1, 0.5), complex(-0.25, 1), complex(2, -1), complex(1.4, -0.3))
    h_inv = MoebiusElement(h.d, -h.b, -h.c, h.a)
    conj = _product(_product(h, g), h_inv)
    assert conj.trace == pytest.approx(t, abs=1e-9)
    assert bounds.adams_reid_length_bound(w) == pytest.approx(conj.translation_length(), abs=1e-9)


def test_loxodromic_length_bound_values():
    assert bounds.loxodromic_length_bound(0) == pytest.approx(math.log(4), rel=1e-15)
    vc = 7.3
    r = math.sqrt(2 * vc ** (4 / 3) + 4)
    assert bounds.loxodromic_length_bound(r) == pytest.approx(math.log(2 * vc ** (4 / 3) + 8), rel=1e-15)
    with pytest.raises(ValueError):
        bounds.loxodromic_length_bound(-1)


def test_loxodromic_length_bound_dominates_sample():
    rng = np.random.default_rng(29)
    r = 17.0
    bound = bounds.loxodromic_length_bound(r)
    for _ in range(1000):
        theta = rng.uniform(0, 2 * math.pi)
        g = MoebiusElement.from_trace(r * cmath.exp(1j * theta))
        assert g.translation_length() <= bound + 1e-9


def _torus_diameter_trace_bound(ell, vc):
    """The spec of min_trace_bound's torus term, with its guards: the trace
    bound sqrt(ell^2/4 + vc^2/ell^2) via the diameter of a cusp torus of waist
    ell and area 2*vc, or hypot(ell/2, vc/ell) where a square is not a normal
    float or the term overflows."""
    ell, vc = float(ell), float(vc)
    bounds._require(ell > 0, "waist size must be positive, got {}", ell)
    bounds._require(vc > 0, "cusp volume must be positive, got {}", vc)
    e2, v2 = ell * ell, vc * vc
    if min(e2, v2) >= sys.float_info.min and (torus := math.sqrt(e2 / 4 + v2 / e2)) < math.inf:
        return torus
    return math.hypot(ell / 2, vc / ell)


def test_min_trace_bound_is_the_diameter_of_the_rectangular_torus():
    # Where the torus term wins, it is the diameter of the rectangular torus
    # of waist ell and area 2*vc.
    ell, vc = 2 * math.pi, 17.1
    rect = CuspLattice(ell, (2 * vc / ell) * 1j)
    assert bounds.min_trace_bound(ell, vc) == pytest.approx(rect.torus_diameter(), rel=1e-12)
    assert bounds.min_trace_bound(ell, vc) == pytest.approx(
        math.sqrt(ell**2 / 4 + vc**2 / ell**2), rel=1e-15
    )


def test_min_trace_bound_branches():
    # huge cusp volume: the torus-diameter bound is useless, Adams-Reid wins
    ell, vc = 6.3, 1e6
    assert bounds.min_trace_bound(ell, vc) == bounds.adams_reid_trace_bound(ell)
    # at the top of the waist range the torus-diameter bound wins
    vc = 100.0
    ell = max_waist_for_cusp_volume(vc)
    assert bounds.min_trace_bound(ell, vc) == _torus_diameter_trace_bound(ell, vc)
    for ell in np.linspace(2 * math.pi, max_waist_for_cusp_volume(50.0), 50):
        s = bounds.min_trace_bound(float(ell), 50.0)
        assert s <= bounds.adams_reid_trace_bound(float(ell))
        assert s <= _torus_diameter_trace_bound(float(ell), 50.0)


def _composed_min_trace_bound(ell, vc):
    return min(_torus_diameter_trace_bound(ell, vc), bounds.adams_reid_trace_bound(ell))


def _same(a, b):
    # Bit for bit: equal values with equal signs, or both NaN.
    return a == b and math.copysign(1, a) == math.copysign(1, b) or (a != a and b != b)


def test_min_trace_bound_is_bit_identical_to_the_composition():
    # The first grid-sweep slice of the benchmark (the default techlem2 grid's
    # first 10 cusp volumes), where the Adams-Reid term never wins, and every
    # 10th volume of the default grid, where it wins on some lanes; each
    # volume on its default 10 000-point waist grid.
    vc_min = bounds.MIN_CUSP_VOLUME_AT_WAIST_2PI
    step = math.log(1e6 / vc_min) / 199
    first_slice = np.geomspace(vc_min, vc_min * math.exp(9 * step), 10).tolist()
    every_10th = np.geomspace(vc_min, 1e6, 200)[::10].tolist()
    adams_reid_wins = 0
    for vc in first_slice + every_10th:
        for ell in np.linspace(2 * math.pi, math.sqrt(4 * vc / math.sqrt(3)), 10000).tolist():
            got = bounds.min_trace_bound(ell, vc)
            assert _same(got, _composed_min_trace_bound(ell, vc)), (ell, vc)
            adams_reid_wins += got < _torus_diameter_trace_bound(ell, vc)
    assert adams_reid_wins > 0


def _near_tie_lanes():
    # vc = ell * sqrt(ell^4 - ell^2/4) puts the torus term at ell^2, the edge
    # of min_trace_bound's skip, with vc moved by up to 6 ulps either way.
    for ell in np.geomspace(2.001, 1e70, 4000).tolist():
        vc = ell * math.sqrt(ell**4 - ell * ell / 4)
        for k in range(-6, 7):
            yield ell, vc + k * math.ulp(vc)


def test_min_trace_bound_matches_the_composition_at_the_skip_edge():
    lanes = list(_near_tie_lanes())
    for ell, vc in lanes:
        assert _same(bounds.min_trace_bound(ell, vc), _composed_min_trace_bound(ell, vc)), (ell, vc)
    assert any(
        bounds.adams_reid_trace_bound(ell) < _torus_diameter_trace_bound(ell, vc) for ell, vc in lanes
    )


def _min_trace_bound_with_loose_skip(ell, vc):
    # min_trace_bound with its skip moved from e2 * (1 - 1e-15) to e2 * (1 + 1e-12).
    e2 = ell * ell
    torus = math.sqrt(e2 / 4 + vc * vc / e2)
    if torus < e2 * (1 + 1e-12) and ell < 1e77:
        return torus
    return min(torus, math.sqrt(ell**4 + 4))


def test_a_looser_skip_changes_results_on_the_near_tie_lanes():
    # The skip is exact because sqrt(fl(ell**4) + 4) is within about one ulp
    # of sqrt(ell^4 + 4) >= ell^2, so at least ell^2 * (1 - 4.5e-16), while
    # the rounded e2 * (1 - 1e-15) is at most ell^2 * (1 - 7e-16).  Past
    # ell^2 there is no such margin: once ell is large, sqrt(ell**4 + 4)
    # rounds to within an ulp of ell^2, and a torus term a few ulps above it
    # loses to it.  A filter that skips up to e2 * (1 + 1e-12) returns the
    # torus term there, so the near-tie lanes must catch it.
    differ = sum(
        not _same(_min_trace_bound_with_loose_skip(ell, vc), _composed_min_trace_bound(ell, vc))
        for ell, vc in _near_tie_lanes()
    )
    assert differ > 0


def test_min_trace_bound_overflows_like_the_composition():
    with pytest.raises(OverflowError) as composed:
        _composed_min_trace_bound(1e78, 5.0)
    with pytest.raises(OverflowError) as fused:
        bounds.min_trace_bound(1e78, 5.0)
    assert str(fused.value) == str(composed.value)


@pytest.mark.parametrize(
    "ell, vc",
    [(math.inf, 5.0), (math.inf, math.inf), (5.0, math.inf), (9.9e76, 5.0), (1.1e77, 5.0), (1.1e77, 1e150)],
)
def test_min_trace_bound_at_the_edges_of_its_domain_is_the_composition(ell, vc):
    assert _same(bounds.min_trace_bound(ell, vc), _composed_min_trace_bound(ell, vc))


@pytest.mark.parametrize("vc", [math.nan, -1.0, 0.0, 5.0])
@pytest.mark.parametrize("ell", [math.nan, -1.0, 0.0, 1.5, 2.0])
def test_min_trace_bound_fails_like_the_composition(ell, vc):
    with pytest.raises(ValueError) as composed:
        _composed_min_trace_bound(ell, vc)
    with pytest.raises(ValueError) as fused:
        bounds.min_trace_bound(ell, vc)
    assert str(fused.value) == str(composed.value)


def test_cusp_volume_trace_bound():
    vc0 = bounds.CUSP_VOLUME_THRESHOLD
    # equality exactly at the threshold with the shifted-parabolic bound
    # sqrt(ell^2 + 4) at the largest waist
    ell = max_waist_for_cusp_volume(vc0)
    assert bounds.cusp_volume_trace_bound(vc0) == pytest.approx(math.sqrt(ell * ell + 4), rel=1e-12)
    assert bounds.cusp_volume_trace_bound(1.0, enforce_domain=False) == pytest.approx(
        math.sqrt(6), rel=1e-15
    )
    with pytest.raises(ValueError):
        bounds.cusp_volume_trace_bound(1.0)


def test_cusp_volume_trace_bound_dominates_shifted_parabolic():
    for vc in np.geomspace(bounds.CUSP_VOLUME_THRESHOLD, 1e6, 200):
        vc = float(vc)
        ell = max_waist_for_cusp_volume(vc)
        assert bounds.cusp_volume_trace_bound(vc) >= math.sqrt(ell * ell + 4) * (1 - 1e-12)


def test_cusp_volume_trace_bound_dominates_min_trace_bound():
    vc = 17.094
    top = max_waist_for_cusp_volume(vc)
    bound = bounds.cusp_volume_trace_bound(vc)
    for ell in np.linspace(2 * math.pi, top, 500):
        if ell < 2 * math.pi:
            continue
        assert bound >= bounds.min_trace_bound(float(ell), vc)


# ---------------------------------------------------------------------------
# headline bounds
# ---------------------------------------------------------------------------

def test_cusped_systole_bound_small_volume_uses_constant():
    v = 1.0
    vc = bounds.CUSP_DENSITY_BOUND * v
    assert math.log(2 * vc ** (4 / 3) + 8) < bounds.ADAMS_REID_LENGTH
    assert bounds.cusped_systole_bound(v) == bounds.ADAMS_REID_LENGTH


def test_cusped_systole_bound_large_volume_uses_log():
    v = 1e6
    vc = bounds.CUSP_DENSITY_BOUND * v
    assert bounds.cusped_systole_bound(v) == pytest.approx(math.log(2 * vc ** (4 / 3) + 8), rel=1e-15)
    assert bounds.cusped_systole_bound(v) > bounds.ADAMS_REID_LENGTH


def test_cusped_systole_bound_asymptotic_slope():
    for v in (1e6, 1e8, 1e10):
        slope = (bounds.cusped_systole_bound(10 * v) - bounds.cusped_systole_bound(v)) / math.log(10)
        assert slope == pytest.approx(4 / 3, abs=1e-4)


def test_cusped_systole_bound_monotone():
    values = [bounds.cusped_systole_bound(float(v)) for v in np.geomspace(0.01, 1e9, 300)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        bounds.cusped_systole_bound(0)


def test_link_systole_bound_at_zero():
    assert bounds.link_systole_bound(0) == pytest.approx(7.35663, abs=1e-4)
    assert bounds.link_systole_bound(0) > bounds.ADAMS_REID_LENGTH
    with pytest.raises(ValueError):
        bounds.link_systole_bound(-1)


def test_filling_slope_trace_bound_inverts_the_volume_inequality():
    # The filling bound is sqrt(ell^4 + 4) at the shortest filling slope ell;
    # plugging ell back into the Futer-Kalfagianni-Purcell inequality gives equality.
    for v, x in ((1.0, 2.0), (5.0, 7.0), (0.3, 100.0)):
        f = bounds.filling_slope_trace_bound(x, v)
        ell = (f * f - 4) ** 0.25
        assert (1 - (2 * math.pi / ell) ** 2) ** 1.5 * x == pytest.approx(v, rel=1e-12)


def test_filling_slope_trace_bound_limit():
    # As the complement volume grows, the shortest filling slope falls to 2*pi,
    # and the bound to the Adams-Reid trace bound there.
    v = 3.0
    assert bounds.filling_slope_trace_bound(1e15 * v, v) == pytest.approx(
        bounds.adams_reid_trace_bound(2 * math.pi), rel=1e-9)


def test_filling_slope_trace_bound_matches_bisection():
    v, x = 1.0, 2.0
    # independent root-finder for the slope that makes the inequality tight

    def residual(ell):
        return (1 - (2 * math.pi / ell) ** 2) ** 1.5 * x - v

    lo, hi = 2 * math.pi * (1 + 1e-12), 1e3
    assert residual(lo) < 0 < residual(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual(mid) > 0:
            hi = mid
        else:
            lo = mid
    ell = 0.5 * (lo + hi)
    assert bounds.filling_slope_trace_bound(x, v) == pytest.approx(math.sqrt(ell**4 + 4), rel=1e-10)
    with pytest.raises(ValueError):
        bounds.filling_slope_trace_bound(2.0, 2.0)


def test_drilled_and_filling_bounds_monotone():
    v = 2.0
    xs = np.geomspace(v * 1.001, 1e8, 300)
    f1 = [bounds.drilled_trace_bound(float(x)) for x in xs]
    f2 = [bounds.filling_slope_trace_bound(float(x), v) for x in xs]
    assert all(b >= a for a, b in zip(f1, f1[1:]))
    assert all(b <= a for a, b in zip(f2, f2[1:]))


def test_filling_bound_limit_is_adams_reid_at_two_pi():
    assert bounds.filling_slope_trace_bound(1e18, 2.0) == pytest.approx(
        bounds.adams_reid_trace_bound(2 * math.pi), rel=1e-9
    )


def test_crossing_point_equalizes_bounds():
    for v in (0.1, 1.0, 50.0, 1e6):
        x_star = bounds.crossing_volume(v)
        assert x_star > v
        assert bounds.drilled_trace_bound(x_star) == pytest.approx(
            bounds.filling_slope_trace_bound(x_star, v), rel=1e-9
        )


def test_link_bound_agrees_with_crossing_chain():
    # the link bound is the loxodromic length bound at the crossing trace
    for v in (0.0, 0.1, 1.0, 17.0, 1e6):
        x_star = bounds.crossing_volume(v)
        f1 = bounds.drilled_trace_bound(x_star)
        assert math.log(f1 * f1 + 4) == pytest.approx(bounds.link_systole_bound(v), abs=1e-9)


# ---------------------------------------------------------------------------
# cubic and quadratic facts behind the cusp-volume trace bound
# ---------------------------------------------------------------------------

def test_comparison_cubic_derivative_positive():
    assert (-2) ** 2 - 4 * 12 * 16 < 0
    for x in np.linspace(-100, 100, 1000):
        assert 12 * x * x - 2 * x + 16 > 0


def test_comparison_cubic_root_below_peak():
    for vc in np.geomspace(1.6, 1e6, 50):
        x_star = math.sqrt(2) * vc ** (2 / 3)
        assert 4 * x_star**3 - x_star**2 + 16 * x_star - 4 * vc * vc > 0


def test_quadratic_discriminant_negative():
    assert 2 - 4 * (8 - 2 * math.sqrt(2)) * 16 < 0


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------

def test_bound_profile_reproducible_from_volume():
    profile = bounds.BoundProfile.from_volume(10.0)
    assert profile.cusp_volume == pytest.approx(bounds.CUSP_DENSITY_BOUND * 10.0, rel=1e-15)
    assert profile.max_waist == pytest.approx(max_waist_for_cusp_volume(profile.cusp_volume), rel=1e-15)
    assert profile.cusped_bound == bounds.cusped_systole_bound(10.0)
    assert profile.link_bound == bounds.link_systole_bound(10.0)
    assert profile.crossing == bounds.crossing_volume(10.0)


def _inline_cusped_bound(v):
    # The profile's cusped bound as it was written inline before it called
    # cusped_systole_bound: the reference for the call.
    vc = bounds.CUSP_DENSITY_BOUND * v
    return max(bounds.ADAMS_REID_LENGTH, math.log(2 * vc ** (4 / 3) + 8))


def test_bound_profile_cusped_bound_is_the_inline_formula():
    # Where the inline formula overflows, the bound is log 2 + (4/3) log vc.
    overflows = 0
    for v in [0.0, 5e-324, *np.logspace(-300, 300, 2001).tolist(), 1.7e308]:
        try:
            expected = _inline_cusped_bound(v)
        except OverflowError:
            expected = math.inf
        if expected == math.inf:
            overflows += 1
            expected = math.log(2) + (4 / 3) * math.log(bounds.CUSP_DENSITY_BOUND * v)
        assert bounds.BoundProfile.from_volume(v).cusped_bound == expected, v
    assert 0 < overflows < 2001


def test_bound_profile_zero_volume():
    profile = bounds.BoundProfile.from_volume(0.0)
    assert profile.cusp_volume == 0
    assert profile.max_waist == 0
    assert profile.cusped_bound == bounds.ADAMS_REID_LENGTH
    assert profile.link_bound == pytest.approx(7.35663, abs=1e-4)
    with pytest.raises(ValueError):
        bounds.BoundProfile.from_volume(-1)


# ---------------------------------------------------------------------------
# domain guards
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "fn, args, message",
    [
        (bounds.lobachevsky, (0,), "theta must lie in (0, pi), got 0.0"),
        (bounds.adams_reid_trace_bound, (0.1 + 0.2,), "slope length must exceed 2, got 0.30000000000000004"),
        (bounds.adams_reid_length_bound, (2,), "slope length must exceed 2, got 2.0"),
        (bounds.loxodromic_length_bound, (-1e-320,), "trace modulus bound must be nonnegative, got -1e-320"),
        (bounds.min_trace_bound, (math.nan, 5), "waist size must be positive, got nan"),
        (bounds.min_trace_bound, (3, -math.inf), "cusp volume must be positive, got -inf"),
        (bounds.min_trace_bound, (1.5, 5), "slope length must exceed 2, got 1.5"),
        (bounds.cusp_volume_trace_bound, (0,), "cusp volume must be positive, got 0.0"),
        (bounds.cusp_volume_trace_bound, (1,), "cusp volume 1.0 below threshold 1.539600717839002"),
        (bounds.cusped_systole_bound, (0,), "volume must be positive, got 0.0"),
        (bounds.link_systole_bound, (-1e300,), "volume must be nonnegative, got -1e+300"),
        (bounds.drilled_trace_bound, (-2,), "volume must be positive, got -2.0"),
        (bounds.filling_slope_trace_bound, (1, -1), "closed volume must be nonnegative, got -1.0"),
        (bounds.filling_slope_trace_bound, (1e-320, 1e-320),
         "complement volume 1e-320 must exceed closed volume 1e-320"),
        (bounds.crossing_volume, (-1,), "volume must be nonnegative, got -1.0"),
        (bounds.BoundProfile.from_volume, (-1,), "volume must be nonnegative, got -1.0"),
        # the open end of an interval, and NaN, which fails every comparison
        (bounds.lobachevsky, (math.pi,), "theta must lie in (0, pi), got 3.141592653589793"),
        (bounds.drilled_trace_bound, (math.nan,), "volume must be positive, got nan"),
        (bounds.filling_slope_trace_bound, (math.nan, 1), "complement volume nan must exceed closed volume 1.0"),
        (bounds.crossing_volume, (math.nan,), "volume must be nonnegative, got nan"),
    ],
)
def test_guard_messages(fn, args, message):
    with pytest.raises(ValueError) as exc:
        fn(*args)
    assert str(exc.value) == message


def test_guard_messages_are_formatted_only_on_failure():
    # An f-string message is built on every call, passing or not; the hot
    # bounds run millions of times per sweep, so each guard passes a template
    # and its arguments, and _require formats them only when it raises.  The
    # crossing sweep's array twin in certify calls bounds._require as well.
    calls = [(module.__name__, node) for module in (bounds, certify)
             for node in ast.walk(ast.parse(inspect.getsource(module)))
             if isinstance(node, ast.Call)
             and ast.unparse(node.func) in ("_require", "bounds._require")]
    assert len(calls) >= 17
    eager = [(name, node.lineno) for name, node in calls if isinstance(node.args[1], ast.JoinedStr)]
    assert eager == [], f"_require calls with an f-string message at (module, line) {eager}"


def test_the_package_reexports_every_public_bound():
    for name in bounds.__all__:
        assert getattr(sysbound, name) is getattr(bounds, name), name


def test_compute_constants_runs_from_a_bare_checkout(tmp_path):
    pytest.importorskip("mpmath")
    script = Path(__file__).resolve().parent.parent / "scripts" / "compute_constants.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.endswith("all frozen constants agree with the high-precision oracles\n")
