import ast
import math
import re
import sys
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from sysbound import bounds, certify
from sysbound.certify import (
    IDENTITY_REL_TOL,
    GridSpec,
    _report,
    _worst,
    certify_crossing,
    certify_cubic_claims,
    certify_cusp_trace_bound,
    certify_length_lemma,
)
from sysbound.mobius import MoebiusElement, NonLoxodromicError

SMALL_VC_GRID = GridSpec(17.1, 1e4, 30, "log")


# ---------------------------------------------------------------------------
# grid and report plumbing
# ---------------------------------------------------------------------------

def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(2, 1, 10)
    with pytest.raises(ValueError):
        GridSpec(1, 2, 1)
    with pytest.raises(ValueError):
        GridSpec(1, 2, 10, "cubic")
    with pytest.raises(ValueError):
        GridSpec(0, 2, 10, "log")
    for lo, hi in [(1, math.inf), (-math.inf, 1), (math.nan, 1), (1, math.nan)]:
        with pytest.raises(ValueError, match="finite"):
            GridSpec(lo, hi, 10)


def test_grid_spec_values():
    lin = GridSpec(0, 1, 5).values()
    assert list(lin) == pytest.approx([0, 0.25, 0.5, 0.75, 1.0])
    log = GridSpec(1, 100, 3, "log").values()
    assert list(log) == pytest.approx([1, 10, 100])


def _fold(candidates):
    """The reference rule: a strict-< fold from inf, so the first of equal
    margins is kept and neither NaN nor inf ever wins."""
    worst = (math.inf, ())
    for margin, point in candidates:
        if margin < worst[0]:
            worst = (margin, point)
    return worst


def test_report_passes_on_the_points_it_is_given():
    assert _report("c", 7, [], []).points_checked == 7
    report = _report("c", 0, [], [])
    assert (report.status, report.worst_margin, report.worst_point) == ("pass", math.inf, ())


def test_cubic_counts_every_point_it_checks():
    # 20001 derivative points and one discriminant, then per volume the claim,
    # and where the root is bracketed the bisection and the endpoint gate, and
    # above the threshold the endpoint bound.  vc = 0 has no bracket.
    grid = GridSpec(0.0, 10.0, 6, "linear")
    vcs = grid.values().tolist()
    expected = 20001 + 1 + sum(1 + (2 + (vc >= bounds.CUSP_VOLUME_THRESHOLD) if vc > 0 else 0)
                               for vc in vcs)
    assert certify_cubic_claims(grid).points_checked == expected


CLAIM_RUNS = {
    "techlem2": (lambda rows: certify_cusp_trace_bound(SMALL_VC_GRID, 40, margin_rows=rows), [30]),
    "crossing": (lambda rows: certify_crossing(GridSpec(0.5, 50, 7, "log"), monotonic_samples=20,
                                               margin_rows=rows), [7]),
    "length-lemma": (lambda rows: certify_length_lemma(5000, 20.0, seed=4, sharpness_points=5,
                                                       margin_rows=rows), [4096, 904]),
    "cubic": (lambda rows: certify_cubic_claims(GridSpec(2.0, 100.0, 9, "log"), margin_rows=rows),
              [9]),
}


@pytest.mark.parametrize("claim", CLAIM_RUNS)
def test_claims_keep_rows_only_when_given_a_list(claim):
    run, sizes = CLAIM_RUNS[claim]
    rows = []
    report = run(rows)
    # One float block per claim, and one per draw block for length-lemma; a
    # lane of length-lemma that is not loxodromic has no row.
    assert all(block.dtype == float and block.shape[1] == 3 for block in rows)
    assert len(rows) == len(sizes)
    assert all(0 < len(block) <= size for block, size in zip(rows, sizes))
    assert run(None) == report
    # Each row's margin is an inequality candidate, so none is below the
    # reported margin of a passing claim, and the first smallest is reported.
    margins = np.vstack(rows)[:, 2]
    assert report.passed and report.worst_margin <= margins.min()


def test_report_keeps_the_first_of_equal_margins_and_never_takes_nan_or_inf():
    report = _report("c", 3, [(0.5, (1.0,)), (0.5, (2.0,)), (math.nan, (3.0,))], [])
    assert (report.worst_margin, report.worst_point) == (0.5, (1.0,))
    report = _report("c", 2, [(math.nan, (1.0,)), (math.inf, (2.0,)), (0.25, (3.0,))], [])
    assert report.worst_point == (3.0,)
    report = _report("c", 2, [(math.nan, (1.0,)), (math.inf, (2.0,))], [])
    assert (report.worst_margin, report.worst_point) == (math.inf, ())


def test_worst_keeps_the_first_of_equal_margins_and_never_takes_nan_or_inf():
    xs = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    assert _worst(np.array([math.nan, 0.5, 0.25, 0.25, math.inf]), xs) == (0.25, (3.0,))
    assert _worst(np.array([0.0, -0.0]), xs[:2]) == (0.0, (1.0,))
    assert math.copysign(1, _worst(np.array([-0.0, 0.0]), xs[:2])[0]) == -1
    assert _worst(np.array([math.nan, math.inf, math.nan]), xs[:3]) == (math.inf, ())
    assert _worst(np.array([]), np.array([])) == (math.inf, ())
    assert _worst(np.array([math.nan, -math.inf, -math.inf]), xs[:3], -xs[:3]) == (
        -math.inf, (2.0, -2.0))
    # Across blocks, through _report: the first 0.25, in the first block.
    blocks = [np.array([math.nan, 0.5, 0.25]), np.array([0.25, math.nan]), np.array([math.nan])]
    points = [np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0]), np.array([6.0])]
    report = _report("c", 6, [_worst(m, x) for m, x in zip(blocks, points)], [])
    assert (report.worst_margin, report.worst_point) == (0.25, (3.0,))


def test_worst_blocks_agree_with_one_margin_at_a_time():
    # Ties, NaNs, infinities and -0 over blocks of uneven sizes, two coordinates each.
    rng = np.random.default_rng(3)
    margins = rng.choice([math.nan, -math.inf, -1.0, -0.0, 0.0, 0.5, 2.0, math.inf], size=500)
    xs, ys = rng.uniform(size=500), rng.uniform(size=500)
    cuts = [0, 1, 1, 7, 64, 65, 300, 500]
    blocks = [_worst(margins[lo:hi], xs[lo:hi], ys[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
    scalar = list(zip(margins.tolist(), zip(xs.tolist(), ys.tolist())))
    report = _report("c", 500, scalar, [])
    assert repr(_report("c", 500, blocks, [])) == repr(report)
    assert (report.worst_margin, report.worst_point) == _fold(scalar)


def test_report_surfaces_a_gate_only_when_negative():
    ineqs = [(2.0, (1.0,))]
    report = _report("c", 2, ineqs, [(0.0, (2.0,)), (math.nan, (4.0,))])
    assert (report.status, report.worst_margin, report.worst_point) == ("pass", 2.0, (1.0,))
    report = _report("c", 3, ineqs, [(0.0, (2.0,)), (-1e-3, (3.0,)), (-1e-3, (5.0,))])
    assert (report.status, report.worst_margin, report.worst_point) == ("fail", -1e-3, (3.0,))


_MARGINS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@given(ineqs=st.lists(_MARGINS, max_size=40), gates=st.lists(_MARGINS, max_size=8),
       cuts=st.lists(st.integers(0, 40), max_size=6))
def test_report_is_a_strict_fold_over_blocks_and_candidates(ineqs, gates, cuts):
    ineq_points = [(float(i), -float(i)) for i in range(len(ineqs))]
    gate_points = [(float(i),) for i in range(len(gates))]
    # The inequalities arrive as _worst of arbitrary blocks, the gates one at a time.
    bounds_ = sorted({0, len(ineqs), *(c for c in cuts if c <= len(ineqs))})
    margins, coords = np.array(ineqs, dtype=float), np.array(ineq_points).reshape(-1, 2)
    blocks = [_worst(margins[lo:hi], coords[lo:hi, 0], coords[lo:hi, 1])
              for lo, hi in zip(bounds_, bounds_[1:])]
    report = _report("c", len(ineqs), blocks, list(zip(gates, gate_points)))
    gate = _fold(zip(gates, gate_points))
    margin, point = gate if gate[0] < 0 else _fold(zip(ineqs, ineq_points))
    assert (repr(report.worst_margin), report.worst_point) == (repr(float(margin)), point)
    assert report.status == ("pass" if margin >= 0 else "fail")


def test_report_status_matches_margin_sign():
    report = certify_cubic_claims(GridSpec(2, 100, 10, "log"))
    assert report.passed == (report.worst_margin >= 0)
    assert report.status in ("pass", "fail")


def test_numpy_is_imported_only_at_the_top_of_certify_and_cli():
    # certify is the one array layer and cli renders; bianchi, bounds, cusp and
    # mobius are scalar references, and no function imports numpy.
    importers = {}
    for path in sorted(Path(certify.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name.partition(".")[0] == "numpy" for name in names):
                importers.setdefault(path.name, []).append(node in tree.body)
    assert importers == {"certify.py": [True], "cli.py": [True]}


def test_counts_past_the_float64_lanes_of_one_array_are_refused():
    limit = certify.MAX_LANES
    assert limit == sys.maxsize // 8
    past = sys.maxsize
    with pytest.raises(ValueError, match=f"^grid needs at most {limit} points, got {past}$"):
        GridSpec(1, 2, past)
    assert GridSpec(1, 2, limit).points == limit
    for sweep, message in [
        (lambda n: certify_cusp_trace_bound(SMALL_VC_GRID, n), "slope points"),
        (lambda n: certify_crossing(GridSpec(1, 2, 2), monotonic_samples=n), "monotonic samples"),
        (lambda n: certify_length_lemma(1, sharpness_points=n), "sharpness points"),
    ]:
        with pytest.raises(ValueError, match=f"^need at most {limit} {message}, got {past}$"):
            sweep(past)


def test_sample_counts_past_the_time_budget_are_refused_before_any_draw(monkeypatch):
    limit = certify.MAX_SAMPLES
    assert limit == 20_000_000

    class Drawn(Exception):
        pass

    def no_draws(seed):
        raise Drawn

    monkeypatch.setattr(certify.np.random, "default_rng", no_draws)
    with pytest.raises(Drawn):
        certify_length_lemma(limit)
    for past in (limit + 1, sys.maxsize):
        with pytest.raises(ValueError, match=f"^need at most {limit} samples, got {past}$"):
            certify_length_lemma(past)


# ---------------------------------------------------------------------------
# bisection
# ---------------------------------------------------------------------------

def _scalar_bisect(f, lo, hi, floor):
    """The scalar loop that certify._bisect runs on every lane: the midpoint of
    [lo, hi] after the bisection, and the number of steps it took."""
    for step in range(1, 201):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-13 * max(hi, floor):
            break
    return 0.5 * (lo + hi), step


def _line(x, root, slope):
    """f of one lane: slope * (x - root), NaN above the root where slope is NaN."""
    if math.isnan(slope):
        return math.nan if x > root else x - root
    return slope * (x - root)


def _assert_bisect_is_the_scalar_loop(lanes, floor):
    """lanes: (lo, hi, root, slope) per lane; the array bisection equals the
    scalar loop bit for bit on each, and f sees at most 8192 lanes per call."""
    lo, hi, root, slope = (np.array(column, dtype=float).reshape(-1) for column in zip(*lanes))
    calls = []

    def f(x, live):
        calls.append(len(live))
        return np.array([_line(*args) for args in zip(x.tolist(), root[live].tolist(),
                                                      slope[live].tolist())], dtype=float)

    got = certify._bisect(f, lo, hi, floor)
    want = [_scalar_bisect(lambda x, r=r, s=s: _line(x, r, s), a, b, floor)
            for a, b, r, s in lanes]
    assert got.tobytes() == np.array([w for w, _ in want], dtype=float).tobytes()
    assert max(calls, default=0) <= 8192
    return [steps for _, steps in want]


_BISECT_LANE = st.tuples(
    st.floats(-1e6, 1e6), st.floats(0, 1e6), st.floats(-1e6, 1e6),
    st.sampled_from([1.0, -1.0, 0.5, 3.0, math.nan]),
).map(lambda t: (t[0], t[0] + t[1], t[2], t[3]))


@given(lanes=st.lists(_BISECT_LANE, min_size=1, max_size=12),
       floor=st.one_of(st.sampled_from([0.0, 1.0, 1e7]), st.floats(0, 1e7)))
def test_array_bisection_is_the_scalar_loop_on_every_lane(lanes, floor):
    _assert_bisect_is_the_scalar_loop(lanes, floor)


def test_array_bisection_on_fixed_lanes():
    # One lane each: a root at 0 from [-1, 1], whose width stays above 1e-13 * hi
    # (lo sticks at 0) to the 200-step cap; NaN above its root; lo == hi; a floor
    # above hi that stops early; and a wide bracket that stops later than a narrow one.
    cap, nan, point, floored = (-1.0, 1.0, 0.0, 1.0), (0.0, 8.0, 3.0, math.nan), \
        (2.5, 2.5, 0.0, 1.0), (0.0, 1.0, 0.3, 1.0)
    wide, narrow = (0.0, 1e6, 12345.678, 1.0), (0.0, 1e-3, 2e-4, 1.0)
    assert _assert_bisect_is_the_scalar_loop([cap], 0.0) == [200]
    assert _assert_bisect_is_the_scalar_loop([nan], 0.0)[0] < 200
    assert _assert_bisect_is_the_scalar_loop([point], 0.0) == [1]
    floored_steps = _assert_bisect_is_the_scalar_loop([floored], 1e9)[0]
    assert floored_steps < _assert_bisect_is_the_scalar_loop([floored], 0.0)[0]
    steps = _assert_bisect_is_the_scalar_loop([cap, nan, point, floored, wide, narrow], 0.0)
    assert len(set(steps)) == len(steps)
    # More lanes than one block; each stops after its first step.
    _assert_bisect_is_the_scalar_loop([(float(i), i + 1e-3, i + 0.4, 1.0) for i in range(9000)],
                                      1e12)
    assert certify._bisect(lambda x, live: x, np.zeros(0), np.zeros(0), 0.0).shape == (0,)


# ---------------------------------------------------------------------------
# cusp-volume trace bound sweep
# ---------------------------------------------------------------------------

def test_cusp_trace_bound_passes_on_small_grid():
    rows = []
    report = certify_cusp_trace_bound(SMALL_VC_GRID, 400, margin_rows=rows)
    rows = np.vstack(rows)
    assert report.passed
    assert report.worst_margin > 0
    assert report.points_checked == 30 * 400
    assert len(rows) == 30
    vc, worst_ell, margin = rows[0]
    assert margin >= report.worst_margin
    assert 2 * math.pi <= worst_ell <= math.sqrt(4 * vc / math.sqrt(3)) * (1 + 1e-12)


def test_cusp_trace_bound_perturbation_flips_to_fail():
    report = certify_cusp_trace_bound(SMALL_VC_GRID, 100, bound_scale=0.99)
    assert not report.passed
    assert report.worst_margin < 0


def test_cusp_trace_bound_rejects_grid_below_threshold():
    with pytest.raises(ValueError):
        certify_cusp_trace_bound(GridSpec(1.0, 100, 10, "log"), 100)


def test_cusp_trace_bound_single_volume():
    vc = bounds.MIN_CUSP_VOLUME_AT_WAIST_2PI
    report = certify_cusp_trace_bound(GridSpec(vc, vc * (1 + 1e-9), 2, "linear"), 50)
    assert report.passed


def test_cusp_trace_bound_deterministic():
    rows1, rows2 = [], []
    r1 = certify_cusp_trace_bound(SMALL_VC_GRID, 200, margin_rows=rows1)
    r2 = certify_cusp_trace_bound(SMALL_VC_GRID, 200, margin_rows=rows2)
    assert r1 == r2
    assert np.vstack(rows1).tolist() == np.vstack(rows2).tolist()


# ---------------------------------------------------------------------------
# crossing
# ---------------------------------------------------------------------------

def test_crossing_passes():
    rows = []
    report = certify_crossing(GridSpec(0.1, 1e3, 20, "log"), monotonic_samples=200, margin_rows=rows)
    rows = np.vstack(rows)
    assert report.passed
    assert len(rows) == 20
    for v, closed, margin in rows:
        assert closed == pytest.approx(bounds.crossing_volume(v), rel=1e-12)
        assert margin >= 0


def test_crossing_detects_tolerance_violation():
    report = certify_crossing(GridSpec(1.0, 10.0, 3, "log"), rel_tol=1e-18, monotonic_samples=50)
    assert not report.passed


def test_crossing_deterministic():
    grid = GridSpec(0.5, 100, 8, "log")
    rows1, rows2 = [], []
    r1 = certify_crossing(grid, monotonic_samples=100, margin_rows=rows1)
    r2 = certify_crossing(grid, monotonic_samples=100, margin_rows=rows2)
    assert r1 == r2
    assert np.vstack(rows1).tolist() == np.vstack(rows2).tolist()


def test_crossing_rejects_nonpositive_volumes():
    with pytest.raises(ValueError):
        certify_crossing(GridSpec(0.0, 1.0, 5, "linear"))


def _trace_bound_calls(monkeypatch, grid, samples):
    """Each (xs, v) at which certify_crossing evaluates the bounds: the bracket
    search and bisection steps (1-d xs), then the monotonicity gate (2-d)."""
    calls = []
    original = certify._crossing_trace_bounds

    def recording(xs, v):
        calls.append((xs.copy(), np.array(v, dtype=float)))
        return original(xs, v)

    with monkeypatch.context() as patch:
        patch.setattr(certify, "_crossing_trace_bounds", recording)
        certify_crossing(grid, monotonic_samples=samples)
    return calls


@pytest.mark.parametrize(
    "grid, samples",
    [
        (GridSpec(0.1, 1e6, 100, "log"), 1000),  # the CLI's default crossing grid
        (GridSpec(1e-320, 1e-300, 3, "log"), 3),
        (GridSpec(1e-320, 1e-300, 3, "log"), 1000),
        (GridSpec(1e17, 2e17, 2, "log"), 3),
        (GridSpec(1e20, 2e20, 2, "log"), 3),
        (GridSpec(1e24, 1.5e24, 2, "log"), 3),
        (GridSpec(1e24, 1.5e24, 2, "log"), 1000),
    ],
)
def test_crossing_gate_arrays_equal_the_scalar_bounds_bit_for_bit(grid, samples, monkeypatch):
    calls = _trace_bound_calls(monkeypatch, grid, samples)
    gate = [(xs, np.broadcast_to(v, xs.shape)) for xs, v in calls if xs.ndim == 2]
    assert len(gate) < len(calls)  # the bracket search and the bisection call it too
    # The gate's calls cover each grid volume's whole sample once, in grid order,
    # at most max(samples, 8192) lanes per call.
    rows = [(x, v[0]) for xs, vs in gate for x, v in zip(xs, vs)]
    assert [float(v) for _, v in rows] == grid.values().tolist()
    for x, v in rows:
        start = max(v * (1 + 1e-6), math.nextafter(v, math.inf))
        assert x.tobytes() == np.geomspace(start, 100 * bounds.crossing_volume(v), samples).tobytes()
    assert all(xs.size <= max(samples, 8192) for xs, _ in gate)
    for xs, v in calls:
        xs, v = (a.ravel() for a in np.broadcast_arrays(xs, v))
        # The smallest complement volumes there are: one and two ulps above each v.
        once = np.nextafter(np.unique(v), math.inf)
        xs = np.concatenate([once, np.nextafter(once, math.inf), xs])
        v = np.concatenate([np.unique(v), np.unique(v), v])
        drilled, filling = certify._crossing_trace_bounds(xs, v)
        lanes = list(zip(xs.tolist(), v.tolist()))
        assert np.array_equal(drilled, [bounds.drilled_trace_bound(x) for x, _ in lanes])
        # inf == inf, so lanes where the scalar bound is inf count as equal.
        assert np.array_equal(filling, [bounds.filling_slope_trace_bound(x, w) for x, w in lanes])


def test_crossing_gate_arrays_keep_the_scalar_domain_guards():
    with pytest.raises(ValueError, match="complement volume 2.0 must exceed closed volume 2.0"):
        certify._crossing_trace_bounds(np.array([3.0, 2.0]), 2.0)
    with pytest.raises(ValueError, match="closed volume must be nonnegative, got -1.0"):
        certify._crossing_trace_bounds(np.array([3.0]), -1.0)


def test_crossing_gate_arrays_stop_where_the_drilled_bound_leaves_its_direct_formula():
    """Below 1e231 the drilled arrays equal the scalar bound bit for bit; from
    1e231 on they are refused by name, though the scalar bound is finite
    there (from about 1.08e231 it is sqrt(2)*vc^(2/3))."""
    xs = np.geomspace(1e200, math.nextafter(1e231, 0), 1000)
    drilled, _ = certify._crossing_trace_bounds(xs, 1.0)
    assert np.array_equal(drilled, [bounds.drilled_trace_bound(x) for x in xs.tolist()])
    for x in (1e231, 1.0818688035559486e231, 2e231, sys.float_info.max):
        assert math.isfinite(bounds.drilled_trace_bound(x))
        with pytest.raises(ValueError, match=re.escape(f"complement volume {x} must be below 1e231")):
            certify._crossing_trace_bounds(np.array([2.0, x]), 1.0)


def test_crossing_gate_fails_on_a_filling_bound_that_is_not_monotone(monkeypatch):
    grid = GridSpec(0.5, 100, 5, "log")
    bad_v = grid.values().tolist()[2]
    original = certify._crossing_trace_bounds

    def rising_filling(xs, v):
        drilled, filling = original(xs, v)
        if xs.ndim == 2:  # a gate call: reverse the bad volume's row only
            bad = np.broadcast_to(v, xs.shape)[:, 0] == bad_v
            filling[bad] = filling[bad, ::-1]
        return drilled, filling

    monkeypatch.setattr(certify, "_crossing_trace_bounds", rising_filling)
    report = certify_crossing(grid, monotonic_samples=50)
    assert report.status == "fail"
    assert report.worst_margin < 0
    assert report.worst_point == (bad_v,)
    assert report.points_checked == 5 * (1 + 2 * 50)


@pytest.mark.parametrize(
    "sweep, good_grid, bad_grid, message, swept",
    [
        (lambda grid: certify_cusp_trace_bound(grid, 3),
         GridSpec(1e150, 2e150, 2, "log"), GridSpec(1e150, 1e160, 200, "log"),
         "techlem2 needs every slope's ell^4 finite, got vc = 5.8727866131894406e+153",
         (bounds, "min_trace_bound")),
        (lambda grid: certify_crossing(grid, monotonic_samples=3),
         GridSpec(1.0, 10.0, 2, "log"), GridSpec(1.0, 1e30, 5, "log"),
         "crossing needs crossing_volume(v) > v in doubles, got v = 1e+30",
         (certify, "_crossing_trace_bounds")),
        (lambda grid: certify_crossing(grid, monotonic_samples=3),
         GridSpec(1.0, 10.0, 2, "log"), GridSpec(1.0, 1e30, 5, "log"),
         "crossing needs crossing_volume(v) > v in doubles, got v = 1e+30",
         (certify, "_bisect")),
        (certify_cubic_claims,
         GridSpec(2.0, 10.0, 2, "log"), GridSpec(2.0, 6.9e153, 5, "log"),
         "cubic claims need 4*vc^2 normal and the cubic finite, got vc = 6.9e+153",
         (certify, "_bisect")),
    ],
    ids=["techlem2", "crossing-gate", "crossing-bisection", "cubic"],
)
def test_refusal_comes_before_any_volume_is_swept(sweep, good_grid, bad_grid, message, swept,
                                                  monkeypatch):
    counts = {"swept": 0, "margins": 0}

    def counted(key, original):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return wrapper

    module, name = swept
    monkeypatch.setattr(module, name, counted("swept", getattr(module, name)))
    monkeypatch.setattr(certify, "_worst", counted("margins", certify._worst))
    sweep(good_grid)
    assert counts["swept"] > 0 and counts["margins"] > 0  # the counters see a sweep
    counts.update(swept=0, margins=0)
    with pytest.raises(ValueError) as exc:
        sweep(bad_grid)
    assert str(exc.value) == message
    assert counts == {"swept": 0, "margins": 0}


# ---------------------------------------------------------------------------
# length lemma
# ---------------------------------------------------------------------------

def test_length_lemma_passes_and_is_deterministic():
    r1 = certify_length_lemma(3000, 50.0, seed=7, sharpness_points=100)
    r2 = certify_length_lemma(3000, 50.0, seed=7, sharpness_points=100)
    assert r1.passed
    assert r1 == r2
    assert r1.claim_id == "length-lemma:seed=7"
    assert r1.worst_margin >= 0


def test_length_lemma_seed_changes_report():
    r1 = certify_length_lemma(500, 50.0, seed=1, sharpness_points=50)
    r2 = certify_length_lemma(500, 50.0, seed=2, sharpness_points=50)
    assert r1.worst_point != r2.worst_point


def test_length_lemma_vacuous_at_zero_radius():
    report = certify_length_lemma(100, 0.0, seed=3)
    assert report.passed
    assert report.points_checked == 0


def test_length_lemma_sharpness_gate_is_relative(monkeypatch):
    # An eigenvalue near 1e154 is exact to about 1e-14 relative, which an
    # absolute tolerance of 1e-9 reported as a failure.
    assert certify_length_lemma(3, 1e154, sharpness_points=2).passed
    # A relative error of 5e-12 in the eigenvalue must fail the gate, also
    # where the absolute error (about 2.5e-10 at r = 50) is small.
    original = certify.trace_translation_lengths

    def longer(x, y):
        lengths, nonlox = original(x, y)
        return lengths + 1e-11, nonlox

    monkeypatch.setattr(certify, "trace_translation_lengths", longer)
    report = certify_length_lemma(3, 50.0, sharpness_points=10)
    assert not report.passed
    assert -1e-11 < report.worst_margin < 0
    assert report.worst_point[0] == 0.0  # a purely imaginary sharpness trace


@pytest.mark.parametrize("sharpness_points", [0, 1, 2, 1000])
@pytest.mark.parametrize("r_max", [1e-12, 1e-3, 0.05, 100.0, 1e6, 1e150, 1.3e154])
def test_length_lemma_gates_are_those_of_elements(r_max, sharpness_points, monkeypatch):
    # The reference measures each gate trace through MoebiusElement and skips
    # the traces that are not loxodromic (every one at r_max = 1e-12).
    sharpness, count = (math.inf, ()), 0
    for r in np.geomspace(min(0.1, r_max), r_max, sharpness_points).tolist():
        try:
            lam = math.exp(MoebiusElement.from_trace(complex(0, r)).translation_length() / 2)
        except NonLoxodromicError:
            continue
        count += 1
        expected = (r + math.sqrt(r * r + 4)) / 2
        m = certify.IDENTITY_REL_TOL - abs(lam - expected) / expected
        if m < sharpness[0]:
            sharpness = (m, (0.0, r))
    pin = (2 * math.pi) ** 2
    pinned = MoebiusElement.from_trace(complex(2, pin)).translation_length()
    pin_m = min(math.log(bounds.adams_reid_trace_bound(2 * math.pi) ** 2 + 4) - pinned,
                1e-5 - abs(pinned - 7.35534))
    seen = []
    monkeypatch.setattr(certify, "_report", lambda *args: seen.append(args))
    rows = []
    certify_length_lemma(3, r_max, sharpness_points=sharpness_points, margin_rows=rows)
    (_, points, _, gates), = seen
    assert gates == [sharpness, (pin_m, (2.0, pin))]
    assert points == len(np.vstack(rows)) + count + 1


@pytest.mark.parametrize("samples", [1, 4096, 4097, 10_000])
def test_length_lemma_rows_are_those_of_scalar_draws_and_elements(samples):
    # The reference draws each uniform with a scalar call and measures each
    # trace through MoebiusElement: the sweep's blocks of 4096 pairs must not show.
    rng = np.random.default_rng(9)
    bound = bounds.loxodromic_length_bound(40.0)
    expected = []
    for _ in range(samples):
        r = 40.0 * rng.uniform()
        theta = 2 * math.pi * rng.uniform()
        trace = complex(r * math.cos(theta), r * math.sin(theta))
        try:
            m = bound - MoebiusElement.from_trace(trace).translation_length()
        except NonLoxodromicError:
            continue
        expected.append((trace.real, trace.imag, m))
    rows = []
    certify_length_lemma(samples, 40.0, seed=9, sharpness_points=2, margin_rows=rows)
    assert [tuple(row) for row in np.vstack(rows).tolist()] == expected


def test_length_lemma_margin_rows():
    rows = []
    report = certify_length_lemma(200, 30.0, seed=5, sharpness_points=50, margin_rows=rows)
    rows = np.vstack(rows)
    assert report.passed
    assert len(rows) > 150
    for re, im, margin in rows:
        assert margin >= 0
        assert abs(complex(re, im)) <= 30.0


# ---------------------------------------------------------------------------
# cubic claims
# ---------------------------------------------------------------------------

def test_cubic_claims_pass():
    report = certify_cubic_claims(GridSpec(bounds.CUSP_VOLUME_THRESHOLD, 1e6, 100, "log"))
    assert report.passed
    assert report.worst_margin > 0


def _cubic_oracle(vc_grid):
    """The report and margin rows of the cubic claims by a per-volume fold:
    (margin, point) candidates in the order the volumes are checked, and the
    points counted as they are appended."""
    claims = []
    for vc in vc_grid.values().tolist():
        x_star = math.sqrt(2) * vc ** (2 / 3)
        claims.append((vc, x_star, 4 * x_star**3 - x_star**2 + 16 * x_star - 4 * vc * vc))
    xs = np.linspace(-1e3, 1e3, 20001)
    ineqs = [(4 * 12 * 16 - (-2) ** 2, (0.0,)), _worst(12 * xs * xs - 2 * xs + 16, xs),
             (4 * (8 - 2 * math.sqrt(2)) * 16 - 2, (0.0,))]
    gates = []
    points = len(xs) + 1 + len(claims)
    for vc, x_star, m_claim in claims:
        ineqs.append((m_claim, (vc, x_star)))
        if not m_claim > 0:
            ineqs.append((-math.inf, (vc, x_star)))
            continue
        x0, _ = _scalar_bisect(lambda x: 4 * x**3 - x**2 + 16 * x - 4 * vc * vc, 0.0, x_star, 1.0)
        ineqs.append(((4 * x_star * x_star + 16) - (4 * x0 * x0 + 16), (vc, x0)))
        endpoint = 4 * vc / math.sqrt(3)
        t_end = endpoint + 4 * vc * vc / endpoint
        expected = 7 * vc / math.sqrt(3)
        gates.append((IDENTITY_REL_TOL - abs(t_end - expected) / expected, (vc, endpoint)))
        points += 2
        if vc >= bounds.CUSP_VOLUME_THRESHOLD:
            ineqs.append(((8 * vc ** (4 / 3) + 16) - expected, (vc, endpoint)))
            points += 1
    return _report("cubic", points, ineqs, gates), np.array(claims, dtype=float)


@pytest.mark.parametrize("seed", range(40))
def test_cubic_claims_match_the_per_volume_fold(seed):
    rng = np.random.default_rng(seed)
    grids = [GridSpec(0.0, 10 ** rng.uniform(-2, 6), int(rng.integers(2, 60)), "linear"),
             GridSpec(*sorted(10 ** rng.uniform(-150, 150, 2)), int(rng.integers(2, 60)), "log")]
    reports = []
    for grid in grids:
        rows = []
        reports.append(certify_cubic_claims(grid, margin_rows=rows))
        want, want_rows = _cubic_oracle(grid)
        assert reports[-1] == want
        assert [block.tobytes() for block in rows] == [want_rows.tobytes()]
    # vc = 0 has no bracket, so there the claim fails at -inf.
    assert reports[0].worst_margin == -math.inf and reports[0].worst_point == (0.0, 0.0)
    assert reports[1].passed


def test_cubic_claims_reject_negative_cusp_volumes():
    with pytest.raises(ValueError, match="nonnegative"):
        certify_cubic_claims(GridSpec(-5, 5, 3, "linear"))


def test_cubic_claims_boundary_identity():
    vc = bounds.CUSP_VOLUME_THRESHOLD
    assert 2 * vc ** (4 / 3) == pytest.approx(4 * vc / math.sqrt(3), rel=1e-12)
