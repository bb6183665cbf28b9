import cmath
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, example, given

from sysbound.certify import trace_translation_lengths
from sysbound.mobius import ElementClass, MoebiusElement, NonLoxodromicError

finite = st.floats(-30, 30, allow_nan=False, allow_infinity=False)
complexes = st.builds(complex, finite, finite)


def random_trace(rng, r_max):
    r = r_max * rng.uniform()
    theta = 2 * math.pi * rng.uniform()
    return complex(r * math.cos(theta), r * math.sin(theta))


def _product(g, h):
    """The matrix product g h."""
    return MoebiusElement(g.a * h.a + g.b * h.c, g.a * h.b + g.b * h.d,
                          g.c * h.a + g.d * h.c, g.c * h.b + g.d * h.d)


def _inverse(g):
    """(d -b; -c a), the inverse of the determinant-1 element g."""
    return MoebiusElement(g.d, -g.b, -g.c, g.a)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_determinant_normalized_on_construction():
    g = MoebiusElement(2, 0, 0, 2)
    assert g.a * g.d - g.b * g.c == pytest.approx(1)
    assert g.a == pytest.approx(1)


def test_large_entries_are_normalized_by_their_determinant():
    # det is 1e8 * (d - 1e8) = 50.66..., computed as 50 or 52 at this scale:
    # far from 1, so the entries are divided by its root.
    d = 1e8 + 5e-7
    g = MoebiusElement(1e8, 1e8, 1e8, d)
    assert g.trace == pytest.approx((1e8 + d) / math.sqrt(50.66394805908203), rel=0.03)


def test_rejects_nonfinite_entries():
    with pytest.raises(ValueError):
        MoebiusElement(math.inf, 0, 0, 1)
    with pytest.raises(ValueError):
        MoebiusElement(complex(0, math.nan), 0, 0, 1)


def test_rejects_singular_matrix():
    with pytest.raises(ValueError):
        MoebiusElement(1, 1, 1, 1)


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

def test_trace_of_identity():
    assert MoebiusElement(1, 0, 0, 1).trace == 2


def test_trace_of_diagonal():
    g = MoebiusElement(2, 0, 0, 0.5)
    assert g.trace == pytest.approx(2.5)


def test_worst_case_trace_modulus():
    w = 2 * math.pi
    assert abs(complex(2, w * w)) == pytest.approx(math.sqrt(4 + w**8 / w**4))
    assert abs(complex(2, w * w)) == pytest.approx(math.sqrt(4 + (2 * math.pi) ** 4))


def test_from_trace_reproduces_trace():
    for t in (complex(2, 39.48), complex(0, 3), complex(5, -1)):
        assert MoebiusElement.from_trace(t).trace == pytest.approx(t)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_standard_parabolic():
    assert MoebiusElement(1, 1, 0, 1).classify() is ElementClass.PARABOLIC


def test_classify_worst_case_trace_is_loxodromic():
    g = MoebiusElement.from_trace(complex(2, (2 * math.pi) ** 2))
    assert g.classify() is ElementClass.LOXODROMIC


def test_classify_order_two_rotation():
    assert MoebiusElement(0, -1, 1, 0).classify() is ElementClass.ELLIPTIC


def test_classify_identity_both_signs():
    assert MoebiusElement(1, 0, 0, 1).classify() is ElementClass.IDENTITY
    assert MoebiusElement(-1, 0, 0, -1).classify() is ElementClass.IDENTITY


def test_classify_real_trace_above_two():
    assert MoebiusElement(2, 0, 0, 0.5).classify() is ElementClass.LOXODROMIC


@given(complexes, complexes, complexes, complexes)
def test_classify_invariant_under_sign_flip(a, b, c, d):
    assume(abs(a * d - b * c) > 1e-2)
    g = MoebiusElement(a, b, c, d)
    h = MoebiusElement(-g.a, -g.b, -g.c, -g.d)
    assert g.classify() is h.classify()
    assert (h.a, h.b, h.c, h.d) == (-g.a, -g.b, -g.c, -g.d)


def _sphere_or_refusal(g):
    """(center, radius) of g's isometric sphere, or the type of its refusal."""
    try:
        sphere = g.isometric_sphere()
    except (ValueError, OverflowError) as exc:
        return type(exc)
    return sphere.center, sphere.radius


@given(complexes, complexes, complexes, complexes)
# A subnormal c: 1/|c| or -d/c overflows, so the sphere is refused for g and -g alike.
@example(4j, 0j, 1.1125369292536007e-308j, 1j)
@example(1j, 0j, 1.1125369292536007e-308j, 2j)
def test_element_invariant_under_sign_flip(a, b, c, d):
    # g and -g are one element of PSL(2, C): one length, one isometric sphere.
    assume(abs(a * d - b * c) > 1e-2)
    g = MoebiusElement(a, b, c, d)
    h = MoebiusElement(-g.a, -g.b, -g.c, -g.d)
    assert h.trace == -g.trace
    if g.classify() is ElementClass.LOXODROMIC:
        assert h.translation_length() == pytest.approx(g.translation_length(), rel=1e-12, abs=1e-12)
    sphere = _sphere_or_refusal(g)
    if isinstance(sphere, type):
        assert _sphere_or_refusal(h) is sphere
    else:
        assert _sphere_or_refusal(h) == pytest.approx(sphere, rel=1e-12)


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="MoebiusElement normalization is not idempotent (the open FOUND on it in "
    "CHANGES.md): g's normalized determinant is off from 1 by 3.6e-12, more than TAU_DET, "
    "so -g rebuilt from g's entries is renormalized")
def test_sign_flip_of_an_ill_conditioned_element_is_exact():
    # An input that the two sign-flip tests above admit (|det| = 0.0103) and on
    # which their exactness fails, pinned here so that it is checked every run.
    g = MoebiusElement(22, 22, 22, 22 + 0.000468j)
    h = MoebiusElement(-g.a, -g.b, -g.c, -g.d)
    assert (h.a, h.b, h.c, h.d) == (-g.a, -g.b, -g.c, -g.d)


def test_translation_length_invariant_under_conjugation():
    rng = np.random.default_rng(29)
    h = MoebiusElement(complex(1, 1), 2, complex(0, -1), complex(0.5, -0.5))
    h_inv = _inverse(h)
    for _ in range(50):
        g = MoebiusElement.from_trace(random_trace(rng, 40))
        if g.classify() is not ElementClass.LOXODROMIC:
            continue
        conj = _product(_product(h, g), h_inv)
        assert conj.trace == pytest.approx(g.trace, abs=1e-9)
        assert conj.translation_length() == pytest.approx(g.translation_length(), rel=1e-9)


# ---------------------------------------------------------------------------
# translation length
# ---------------------------------------------------------------------------

def test_translation_length_diagonal():
    g = MoebiusElement(2, 0, 0, 0.5)
    assert g.translation_length() == pytest.approx(2 * math.log(2), abs=1e-12)


def test_translation_length_worst_case_trace():
    g = MoebiusElement.from_trace(complex(2, (2 * math.pi) ** 2))
    assert g.translation_length() == pytest.approx(7.35534, abs=1e-5)


def test_translation_length_purely_imaginary_trace():
    # lam + 1/lam = 3i has roots lam = (3 +/- sqrt(13)) i / 2, so the larger
    # eigenvalue has modulus (3 + sqrt(13))/2.
    r = 3.0
    lam = (complex(0, r) + cmath.sqrt(complex(0, r) ** 2 - 4)) / 2
    assert abs(lam) == pytest.approx((r + math.sqrt(r * r + 4)) / 2, abs=1e-12)
    g = MoebiusElement.from_trace(complex(0, r))
    assert g.translation_length() == pytest.approx(2 * math.log((3 + math.sqrt(13)) / 2), abs=1e-12)


def test_translation_length_refused_for_non_loxodromic():
    with pytest.raises(NonLoxodromicError):
        MoebiusElement(1, 1, 0, 1).translation_length()
    with pytest.raises(NonLoxodromicError):
        MoebiusElement(0, -1, 1, 0).translation_length()
    with pytest.raises(NonLoxodromicError):
        MoebiusElement(1, 0, 0, 1).translation_length()


def _element_length(trace):
    try:
        return MoebiusElement.from_trace(trace).translation_length()
    except NonLoxodromicError:
        return None


def _kernel_lengths(traces):
    """The kernel's lengths of ``traces`` in one call, None where not loxodromic."""
    lengths, nonlox = trace_translation_lengths([t.real for t in traces], [t.imag for t in traces])
    return [None if skip else length for length, skip in zip(lengths.tolist(), nonlox.tolist())]


# Parabolic and identity traces, the real-axis and +/-2 tolerances on either
# side, tiny and huge moduli, and eigenvalues within 1e-9 of +/-1 or of the
# unit circle; signed zeros, and traces on which CPython's complex square root
# scales subnormal parts or meets zero.
EDGE_TRACES = [
    2, -2, 2 + 1e-10, 2 - 1e-10, -2 + 1e-10, -2 - 1e-10, complex(2, 2e-9), complex(2, 5e-10),
    0, complex(0, 1e-300), 1.5, -1.99999999995, complex(1e150, 1e150), complex(-1e150, 1e150),
    *(sign * (lam + 1 / lam)
      for sign in (1, -1)
      for lam in (1 + 1e-9, 1 + 5e-10, 1 - 1e-9, complex(1, 1e-9), complex(1, 4e-10),
                  cmath.exp(complex(1e-9, 1e-9)), cmath.exp(complex(3e-10, 1.0)))),
    *(complex(re, im) for re in (0.0, -0.0, 3.0, -3.0, 2.0, -2.0) for im in (0.0, -0.0)),
    *(complex(re, im) for re in (0.0, -0.0) for im in (1e-320, -1e-320, 3.0, -3.0)),
    complex(2, 1e-320), complex(-2, -1e-320), complex(2, 2e-308), complex(1e-320, 1e-320),
    complex(-1e-320, 1e150), complex(1e150, -1e-320), complex(-1e150, 0.0), complex(0.0, -1e150),
    # (t + root)/2 cancels to a subnormal, so the element takes (t - root)/2
    complex(-1e-292, 1e24),
]


@pytest.mark.parametrize("trace", EDGE_TRACES)
def test_trace_translation_lengths_is_the_elements_at_edge_traces(trace):
    trace = complex(trace)
    assert repr(_kernel_lengths([trace])) == repr([_element_length(trace)])


def test_trace_translation_lengths_is_the_elements_on_seeded_traces():
    rng = np.random.default_rng(2024)
    n = 50_000
    # Uniform in the disc of radius 100, as the length-lemma sweep draws, and
    # near the real segment [-3, 3], where the classification tolerances bite.
    moduli = 100 * rng.uniform(size=n)
    args = 2 * math.pi * rng.uniform(size=n)
    real = rng.uniform(-3, 3, size=n)
    imag = rng.choice([-1, 1], size=n) * 10 ** rng.uniform(-12, -6, size=n)
    traces = [complex(r * math.cos(t), r * math.sin(t))
              for r, t in zip(moduli.tolist(), args.tolist())]
    traces += [complex(x, y) for x, y in zip(real.tolist(), imag.tolist())]
    # Moduli from 1e-320 to 1e150 at every argument, and parts of either sign
    # or a signed zero.  The element measures every one of them, including
    # those where (t + root)/2 cancels to a subnormal, as at -1e-292 + 1e24i.
    moduli = 10 ** rng.uniform(-320, 150, size=n)
    args = 2 * math.pi * rng.uniform(size=n)
    traces += [complex(r * math.cos(t), r * math.sin(t))
               for r, t in zip(moduli.tolist(), args.tolist())]
    signs = rng.choice([-1.0, -0.0, 0.0, 1.0], size=(2, n))
    parts = signs * 10 ** rng.uniform(-320, 150, size=(2, n))
    traces += [complex(x, y) for x, y in zip(*parts.tolist())]
    # Where CPython's square roots scale parts below DBL_MIN and where the identity
    # test meets the parabolic rule: traces within 1e-300 to 1e-5 of +/-2 with parts
    # down to 1e-320, and lam + 1/lam for lam within 1e-12 to 1e-6 of +/-1 or of the
    # unit circle.
    m = n // 5
    signs = rng.choice([-1.0, -0.0, 0.0, 1.0], size=(2, m))
    near = rng.choice([-2.0, 2.0], size=m) + signs[0] * 10 ** rng.uniform(-300, -5, size=m)
    tiny = signs[1] * 10 ** rng.uniform(-320, -5, size=m)
    traces += [complex(x, y) for x, y in zip(near.tolist(), tiny.tolist())]
    eps = (10 ** rng.uniform(-12, -6, size=(2, m))).tolist()
    angles = (2 * math.pi * rng.uniform(size=(2, m))).tolist()
    lams = [sign * (1 + cmath.rect(e, a))
            for sign, e, a in zip(rng.choice([-1, 1], size=m).tolist(), eps[0], angles[0])]
    lams += [cmath.exp(complex(sign * e, a))
             for sign, e, a in zip(rng.choice([-1, 1], size=m).tolist(), eps[1], angles[1])]
    traces += [lam + 1 / lam for lam in lams]
    got = _kernel_lengths(traces)
    for trace, length in zip(traces, got):
        assert repr(length) == repr(_element_length(trace)), trace
    nones = got.count(None)
    assert n < nones < len(traces) - n


@pytest.mark.parametrize("trace", [math.nan, complex(0, math.inf), 1e300])
def test_trace_translation_lengths_raises_as_the_element_does(trace):
    # At 1e300 the eigenvalue overflows, and the element refuses it.  The
    # first refused lane is reported.
    trace = complex(trace)
    with pytest.raises(ValueError) as element_error:
        MoebiusElement.from_trace(trace)
    with pytest.raises(ValueError) as error:
        _kernel_lengths([complex(3, 1), trace, complex(0, 5), complex(math.nan, 1)])
    assert str(error.value) == str(element_error.value)


def test_translation_length_bounded_by_trace_modulus():
    rng = np.random.default_rng(11)
    r_max = 50.0
    bound = math.log(r_max * r_max + 4)
    checked = 0
    for _ in range(2000):
        g = MoebiusElement.from_trace(random_trace(rng, r_max))
        if g.classify() is not ElementClass.LOXODROMIC:
            continue
        assert g.translation_length() <= bound + 1e-9
        checked += 1
    assert checked > 1900


def test_eigenvalue_bound_sharp_for_imaginary_traces():
    for r in np.geomspace(0.1, 100, 200):
        g = MoebiusElement.from_trace(complex(0, float(r)))
        lam = math.exp(g.translation_length() / 2)
        assert abs(lam - (r + math.sqrt(r * r + 4)) / 2) < 1e-9


# ---------------------------------------------------------------------------
# isometric spheres
# ---------------------------------------------------------------------------

def test_isometric_sphere_standard_position():
    g = MoebiusElement(complex(2, 1), -1, 1, 0)
    sphere = g.isometric_sphere()
    assert sphere.center == 0
    assert sphere.radius == pytest.approx(1)


def test_isometric_sphere_rotation():
    sphere = MoebiusElement(0, -1, 1, 0).isometric_sphere()
    assert sphere.center == 0
    assert sphere.radius == pytest.approx(1)


def test_isometric_sphere_direct_formula():
    sphere = MoebiusElement(1, 0, 2, 1).isometric_sphere()
    assert sphere.center == pytest.approx(-0.5)
    assert sphere.radius == pytest.approx(0.5)


def test_isometric_sphere_refused_when_fixing_infinity():
    with pytest.raises(ValueError):
        MoebiusElement(1, 1, 0, 1).isometric_sphere()


def test_isometric_sphere_covariance():
    # The action maps the sphere of g onto the sphere of its inverse, which
    # has the same radius and center g(infinity).
    rng = np.random.default_rng(17)
    for _ in range(50):
        a, b, c = (complex(*rng.uniform(-3, 3, 2)) for _ in range(3))
        if abs(a) < 0.2 or abs(c) < 0.2:
            continue
        d = (1 + b * c) / a
        g = MoebiusElement(a, b, c, d)
        s_g = g.isometric_sphere()
        s_inv = _inverse(g).isometric_sphere()
        assert s_inv.center == pytest.approx(g.a / g.c, abs=1e-9)
        assert s_inv.radius == pytest.approx(s_g.radius, abs=1e-9)
        for theta in np.linspace(0, 2 * math.pi, 12, endpoint=False):
            p = s_g.center + s_g.radius * cmath.exp(1j * theta)
            image = (g.a * p + g.b) / (g.c * p + g.d)
            assert abs(abs(image - s_inv.center) - s_inv.radius) < 1e-9


def test_center_distance_equals_trace_for_unit_c():
    rng = np.random.default_rng(23)
    for _ in range(50):
        a, b = (complex(*rng.uniform(-3, 3, 2)) for _ in range(2))
        c = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        if abs(a) < 0.2:
            continue
        d = (1 + b * c) / a
        g = MoebiusElement(a, b, c, d)
        centers = abs(_inverse(g).isometric_sphere().center - g.isometric_sphere().center)
        assert centers == pytest.approx(abs(g.trace), abs=1e-9)
