"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.  Every tolerance is pinned here.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from sysbound import bianchi, bounds, certify
from sysbound.mobius import ElementClass, MoebiusElement


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d}: FAIL - {description}")
        raise
    print(f"criterion {num:2d}: PASS - {description}")


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def test_criterion_1_adams_reid_constant():
    with criterion(1, "Adams-Reid length at slope 2*pi is 7.35534 within 1e-5, under 1 ms"):
        bounds.adams_reid_length_bound(2 * math.pi)  # warm up
        value, elapsed = timed(bounds.adams_reid_length_bound, 2 * math.pi)
        assert abs(value - 7.35534) < 1e-5
        assert elapsed < 1e-3


def test_criterion_2_link_bound_constant():
    with criterion(2, "link bound at volume 0 is 7.35663 within 1e-4 and exceeds the Adams-Reid length"):
        bounds.link_systole_bound(0)
        value, elapsed = timed(bounds.link_systole_bound, 0)
        assert abs(value - 7.35663) < 1e-4
        assert value > bounds.adams_reid_length_bound(2 * math.pi)
        assert elapsed < 1e-3


def test_criterion_3_cusp_density_constant():
    with criterion(3, "cusp density bound in (0.8528, 0.8536), derived from the tetrahedron volume"):
        assert 0.8528 < bounds.CUSP_DENSITY_BOUND < 0.8536
        assert abs(
            bounds.CUSP_DENSITY_BOUND
            - math.sqrt(3) / (2 * bounds.IDEAL_TETRAHEDRON_VOLUME)
        ) < 1e-12


def test_criterion_4_length_lemma_property_suite():
    with criterion(4, "1e5 seeded loxodromics obey the length bound; imaginary-trace family sharp to 1e-9"):
        report, elapsed = timed(certify.certify_length_lemma, 100000, 100.0, 42)
        assert report.passed
        assert report.worst_margin >= -1e-9
        assert report.points_checked >= 100000
        assert elapsed < 5.0
        # sharpness family checked explicitly at the stated tolerance
        for r in np.geomspace(0.1, 100.0, 200):
            g = MoebiusElement.from_trace(complex(0, float(r)))
            lam = math.exp(g.translation_length() / 2)
            assert abs(lam - (r + math.sqrt(r * r + 4)) / 2) < 1e-9


def test_criterion_5_cusp_trace_bound_certification():
    with criterion(5, "trace-bound sweep over [17.094, 1e6] passes; 0.99 perturbation flips to fail; under 60 s"):
        grid = certify.GridSpec(17.094, 1e6, 200, "log")
        report, elapsed_1 = timed(certify.certify_cusp_trace_bound, grid, 10000)
        assert report.passed
        assert report.worst_margin > 0
        perturbed, elapsed_2 = timed(
            certify.certify_cusp_trace_bound, grid, 10000, bound_scale=0.99
        )
        assert not perturbed.passed
        assert elapsed_1 + elapsed_2 < 60.0


def test_criterion_6_crossing_certification():
    with criterion(6, "bisection crossing matches the closed form to 1e-10; chain equality to 1e-9; under 10 s"):
        grid = certify.GridSpec(0.1, 1e6, 100, "log")
        report, elapsed = timed(certify.certify_crossing, grid, rel_tol=1e-10)
        assert report.passed
        assert elapsed < 10.0
        for v in grid.values():
            v = float(v)
            x_star = bounds.crossing_volume(v)
            f1 = bounds.drilled_trace_bound(x_star)
            assert abs(math.log(f1 * f1 + 4) - bounds.link_systole_bound(v)) < 1e-9


def test_criterion_7_asymptotic_slope():
    with criterion(7, "decade slope of the cusped bound in [1.30, 1.3334] at large volume"):
        for v in (1e6, 1e8, 1e10):
            slope = (
                bounds.cusped_systole_bound(10 * v) - bounds.cusped_systole_bound(v)
            ) / math.log(10)
            assert 1.30 <= slope <= 1.3334


def test_criterion_8_bianchi_exact_values():
    with criterion(8, "norm 11 splits as 3+sqrt(-2); index 660 at level one with exact ratio 1331; under 1 s"):
        start = time.perf_counter()
        pi = bianchi.QuadInt(3, 1, 2)
        assert pi.norm == 11
        assert bianchi.split_prime(11, 2) == pi
        indices = [bianchi.newman_index(bianchi.CongruenceLevel(pi, n)) for n in range(1, 6)]
        assert indices[0] == 660
        for a, b in zip(indices, indices[1:]):
            assert b == a * 1331
        assert time.perf_counter() - start < 1.0


def test_criterion_9_congruence_trace_oracle():
    with criterion(9, "height-8 enumeration confirms the exact trace bound; census ratio at n=10 in (0.60, 0.6667)"):
        start = time.perf_counter()
        pi = bianchi.QuadInt(3, 1, 2)
        level = bianchi.CongruenceLevel(pi, 1)
        mats = bianchi.enumerate_congruence_elements(level, 8)
        assert len(mats) > 1
        pi_sq = pi * pi
        lb = bianchi.min_loxodromic_trace_lower_bound(level)
        assert lb == 9
        saw_loxodromic = False
        for m in mats:
            trace = bianchi.QuadInt(m.m11.a + m.m22.a, m.m11.b + m.m22.b, 2)
            # pi^2 divides trace - 2: N(pi^2) divides (trace - 2) * conj(pi^2)
            rest = bianchi.QuadInt(trace.a - 2, trace.b, 2) * pi_sq.conjugate()
            assert rest.a % pi_sq.norm == 0 == rest.b % pi_sq.norm
            if m.classify_exact() is ElementClass.LOXODROMIC:
                saw_loxodromic = True
                assert trace.norm >= lb * lb
        assert saw_loxodromic
        rows = bianchi.systole_growth_table(pi, 10, bianchi.PSL2_O2_COVOLUME)
        assert 0.60 < rows[9].ratio < 2 / 3
        assert time.perf_counter() - start < 120.0


def test_criterion_10_scope():
    with criterion(10, "acceptance rests on formula, constant, and oracle reproductions; no hyperbolic-structure engine"):
        # the surfaces criteria 1-9 rely on all exist...
        for name in (
            "adams_reid_length_bound",
            "link_systole_bound",
            "cusped_systole_bound",
            "CUSP_DENSITY_BOUND",
            "crossing_volume",
        ):
            assert hasattr(bounds, name)
        for name in (
            "certify_length_lemma",
            "certify_cusp_trace_bound",
            "certify_crossing",
            "certify_cubic_claims",
        ):
            assert hasattr(certify, name)
        for name in ("split_prime", "newman_index", "enumerate_congruence_elements"):
            assert hasattr(bianchi, name)
        # ...and nothing here builds hyperbolic structures or Dehn fillings
        import sysbound

        assert not any("dehn" in name.lower() or "triangulat" in name.lower() for name in dir(sysbound))
