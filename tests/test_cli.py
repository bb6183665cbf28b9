import argparse
import cmath
import contextlib
import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

import sysbound
from sysbound import bianchi, bounds, certify, cli
from sysbound.cli import _fmt, _write_csv, main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def matrix_json(a, b, c, d):
    return json.dumps([[z.real, z.imag] for z in (complex(a), complex(b), complex(c), complex(d))])


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

def test_bound_closed_link_zero(capsys):
    code, out, _ = run(capsys, ["bound", "closed-link", "--volume", "0", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert float(payload["bound"]) == pytest.approx(7.35663, abs=1e-4)
    assert float(payload["profile"]["Vc"]) == 0
    assert "crossing" in payload["profile"]


def test_bound_cusped_small_volume(capsys):
    code, out, _ = run(capsys, ["bound", "cusped", "--volume", "1", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["bound"] == "7.3553436809554675"
    assert float(payload["profile"]["Vc"]) == pytest.approx(bounds.CUSP_DENSITY_BOUND)
    assert "crossing" not in payload["profile"]


def test_bound_cusped_large_volume(capsys):
    code, out, _ = run(capsys, ["bound", "cusped", "--volume", "1e6", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert float(payload["bound"]) == pytest.approx(
        math.log(2 * (bounds.CUSP_DENSITY_BOUND * 1e6) ** (4 / 3) + 8), rel=1e-12
    )


def test_bound_cusped_rejects_zero_volume(capsys):
    code, _, err = run(capsys, ["bound", "cusped", "--volume", "0"])
    assert code == 2
    assert "usage error" in err


def test_bound_csv_and_human(capsys):
    code, out, _ = run(capsys, ["bound", "closed-link", "--volume", "2", "--format", "csv"])
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("kind,bound,V,Vc")
    assert row.startswith("closed-link,")
    code, out, _ = run(capsys, ["bound", "closed-link", "--volume", "2"])
    assert code == 0
    assert "systole bound (closed-link)" in out


@pytest.mark.parametrize("fmt", ["json", "csv", "human"])
@pytest.mark.parametrize("volume, cusped, link", [
    # The direct formulas overflow from about 1.1e231 on; the bounds are near 900.
    ("1e300", "921.51562155626641", "921.51562155626641"),
    ("1.7976931348623157e308", "946.85853488316013", "946.85853488316013"),
])
@pytest.mark.parametrize("kind", ["cusped", "closed-link"])
def test_bound_at_volumes_past_the_overflow_of_the_direct_formula(kind, volume, cusped, link,
                                                                  fmt, capsys):
    code, out, err = run(capsys, ["bound", kind, "--volume", volume, "--format", fmt])
    assert (code, err) == (0, "")
    bound = cusped if kind == "cusped" else link
    if fmt == "json":
        payload = json.loads(out)
        assert payload["bound"] == bound
        assert all(math.isfinite(float(x)) for x in payload["profile"].values())
    elif fmt == "csv":
        row = next(csv.DictReader(io.StringIO(out)))
        assert (row["bound"], row["cusped_bound"], row["link_bound"]) == (bound, cusped, link)
        assert all(math.isfinite(float(x)) for name, x in row.items() if name != "kind")
    else:
        assert out.splitlines()[0] == f"systole bound ({kind}): {float(bound):.6g}"
        assert "inf" not in out


# ---------------------------------------------------------------------------
# element
# ---------------------------------------------------------------------------

def test_element_classify_parabolic(capsys):
    code, out, _ = run(capsys, ["element", "classify", "--matrix", matrix_json(1, 1, 0, 1)])
    assert code == 0
    assert out.strip() == "parabolic"


def test_element_length_of_worst_case_trace(capsys):
    t = complex(2, (2 * math.pi) ** 2)
    lam = (t + cmath.sqrt(t * t - 4)) / 2
    code, out, _ = run(
        capsys,
        ["element", "length", "--matrix", matrix_json(lam, 0, 0, 1 / lam), "--format", "json"],
    )
    assert code == 0
    assert float(json.loads(out)["length"]) == pytest.approx(7.35534, abs=1e-5)


def test_element_length_rejects_parabolic(capsys):
    code, _, err = run(capsys, ["element", "length", "--matrix", matrix_json(1, 1, 0, 1)])
    assert code == 1
    assert "parabolic" in err


# Matrices whose determinant a*d - b*c overflows or underflows in doubles.
@pytest.mark.parametrize("matrix, kind, length", [
    ("[[3e200,0],[1e200,0],[0,0],[1e200,0]]", "loxodromic", math.log(3)),
    ("[[1e200,0],[0,0],[0,0],[1e200,0]]", "identity", None),
    ("[[1e-200,0],[0,0],[0,0],[1e-200,0]]", "identity", None),
])
def test_element_whose_determinant_leaves_the_doubles(matrix, kind, length, capsys):
    assert run(capsys, ["element", "classify", "--matrix", matrix]) == (0, kind + "\n", "")
    code, out, err = run(capsys, ["element", "length", "--matrix", matrix, "--format", "json"])
    if length is None:
        assert (code, out, err) == (1, "", f"error: element is {kind}, not loxodromic\n")
    else:
        assert (code, err) == (0, "")
        assert float(json.loads(out)["length"]) == pytest.approx(length, rel=1e-15)


def test_element_sphere(capsys):
    code, out, _ = run(
        capsys, ["element", "sphere", "--matrix", matrix_json(0, -1, 1, 0), "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["center"] == ["0", "0"]
    assert payload["radius"] == "1"


def test_element_sphere_rejects_upper_triangular(capsys):
    code, _, err = run(capsys, ["element", "sphere", "--matrix", matrix_json(1, 1, 0, 1)])
    assert code == 1
    assert "infinity" in err


# A subnormal c: the isometric sphere's radius 1/|c|, or its center -d/c, overflows.
@pytest.mark.parametrize("matrix", [
    "[[1,0],[0,0],[1e-310,0],[1,0]]",
    "[[0,4],[0,0],[0,1.1125369292536007e-308],[0,1]]",
])
def test_element_sphere_that_overflows_is_a_usage_error(matrix, capsys):
    assert run(capsys, ["element", "sphere", "--matrix", matrix]) == (
        2, "", "usage error: sphere overflows at these parameters: "
               "isometric sphere overflows floating point\n")


def test_element_malformed_matrix(capsys):
    code, _, err = run(capsys, ["element", "classify", "--matrix", "[[1,0],[1,0]]"])
    assert code == 2
    code, _, err = run(capsys, ["element", "classify", "--matrix", "not json"])
    assert code == 2
    code, _, err = run(capsys, ["element", "classify", "--matrix", matrix_json(1, 1, 1, 1)])
    assert code == 2  # singular


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bogus"])
    assert excinfo.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------

def test_lattice_reduce(capsys):
    code, out, _ = run(capsys, ["lattice", "reduce", "--lattice", "[[1,0],[3.5,2]]", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ell"] == "1"
    assert payload["z"] == ["0.5", "2"]
    assert payload["area"] == "2"


def test_lattice_waist_and_diameter(capsys):
    code, out, _ = run(capsys, ["lattice", "waist", "--lattice", "[[1,0],[0,1]]", "--format", "json"])
    assert code == 0
    assert json.loads(out)["waist"] == "1"
    code, out, _ = run(capsys, ["lattice", "diameter", "--lattice", "[[1,0],[0,1]]", "--format", "json"])
    assert code == 0
    assert float(json.loads(out)["diameter"]) == pytest.approx(math.sqrt(2) / 2)


@pytest.mark.parametrize("lattice, waist, diameter", [
    ("[[1e120,0],[0,1e120]]", 1e120, 1e120 / math.sqrt(2)),  # the product overflows
    ("[[1e-150,0],[0,1e-150]]", 1e-150, 1e-150 / math.sqrt(2)),  # the product underflows
    ("[[1.5e-154,0],[0,1.5e-154]]", 1.5e-154, 1.5e-154 / math.sqrt(2)),  # about the least area accepted
    ("[[1e155,0],[0,1e153]]", 1e153, 5.0002499937503125e154),  # inf/inf unscaled
])
def test_lattice_at_every_accepted_scale(lattice, waist, diameter, capsys):
    for action, value in [("waist", waist), ("diameter", diameter), ("reduce", waist)]:
        code, out, err = run(capsys, ["lattice", action, "--lattice", lattice, "--format", "json"])
        assert (code, err) == (0, "")
        got = json.loads(out)["ell" if action == "reduce" else action]
        assert float(got) == pytest.approx(value, rel=1e-15)


# The last two have areas 1e-335 and 1e-313, below DBL_MIN: degeneracy is decided first.
@pytest.mark.parametrize("lattice", [
    "[[1,0],[2,0]]", "[[1e-160,0],[1e-160,1e-175]]", "[[1e-150,0],[2e-150,1e-163]]"])
def test_lattice_degenerate(lattice, capsys):
    assert run(capsys, ["lattice", "waist", "--lattice", lattice]) == (
        1, "", "error: degenerate lattice: generators are (nearly) dependent\n")


# Areas 1e-318, 3e-318, 1e-340, 1e-325 and 5e-324 (for which reduce's ell * Im(z)
# was 0).  Past the degeneracy bound, a lattice whose |u|^2 underflows to 0 has
# an area below about 5e-312, so each is refused; the area is decided on the
# generators at unit scale, so one that rounds to 0 is refused as well.
SUBNORMAL_AREA_LATTICES = [
    "[[1e-163,0],[0,1e-155]]",
    "[[1e-160,0],[0,3e-158]]",
    "[[1e-170,0],[0,1e-170]]",
    "[[1e-163,0],[0,1e-162]]",
    "[[-2.6254598153157822e-167,2.9370046320902637e-167],[8.550163244420337e-158,-3.272524829211388e-158]]",
]


@pytest.mark.parametrize("action", ["reduce", "waist", "diameter"])
@pytest.mark.parametrize("lattice", SUBNORMAL_AREA_LATTICES)
def test_lattice_whose_area_underflows_is_a_usage_error(lattice, action, capsys):
    assert run(capsys, ["lattice", action, "--lattice", lattice]) == (
        2, "", "usage error: lattice area underflows floating point\n")


def test_lattice_overflow_refusal_keeps_its_bytes(capsys):
    assert run(capsys, ["lattice", "reduce", "--lattice", "[[1e308,0],[0,1e308]]"]) == (
        2, "", "usage error: reduce overflows at these parameters: lattice area overflows floating point\n")


def test_lattice_whose_area_is_finite_is_accepted_though_a_product_overflows(capsys):
    # t1.re * t2.im is about 1.87e308; the area (mpmath: 1.1873877859539175e+308) is finite.
    lattice = ("[[1.1922709329519734e+156,-6.191314421354413e+151],"
               "[-1.101392346515335e+156,1.5678436554522568e+152]]")
    code, out, err = run(capsys, ["lattice", "reduce", "--lattice", lattice, "--format", "json"])
    assert (code, err) == (0, "")
    assert float(json.loads(out)["area"]) == 1.1873877859539175e+308


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

VERIFY_FAST = [
    "verify", "techlem2",
    "--vc-min", "17.1", "--vc-max", "100", "--vc-points", "4", "--ell-points", "50",
]


def test_verify_techlem2_fast(capsys):
    code, out, _ = run(capsys, VERIFY_FAST + ["--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["claim_id"] == "techlem2"
    assert payload["status"] == "pass"
    assert payload["points_checked"] == 200
    assert float(payload["worst_margin"]) > 0


def test_verify_output_byte_stable(capsys):
    _, out1, _ = run(capsys, VERIFY_FAST + ["--format", "json"])
    _, out2, _ = run(capsys, VERIFY_FAST + ["--format", "json"])
    assert out1 == out2
    _, csv1, _ = run(capsys, VERIFY_FAST + ["--format", "csv"])
    _, csv2, _ = run(capsys, VERIFY_FAST + ["--format", "csv"])
    assert csv1 == csv2
    assert csv1.splitlines()[0] == "claim_id,status,worst_margin,worst_point,points_checked"


def test_verify_json_renders_reals_in_17_digits(monkeypatch, capsys):
    reports = iter([
        certify.CertificateReport("demo", "pass", 0.125, (1.0, 2.5), 7),
        certify.CertificateReport("demo", "pass", 1 / 3, (), 1),
    ])
    monkeypatch.setattr(certify, "certify_cubic_claims", lambda *args, **kwargs: next(reports))
    code, out, _ = run(capsys, ["verify", "cubic", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {
        "claim_id": "demo",
        "status": "pass",
        "worst_margin": "0.125",
        "worst_point": ["1", "2.5"],
        "points_checked": 7,
    }
    # 17 significant digits for non-representable reals
    _, out, _ = run(capsys, ["verify", "cubic", "--format", "json"])
    assert json.loads(out)["worst_margin"] == "0.33333333333333331"


def test_verify_crossing_and_exit_code_on_fail(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "crossing", "--v-min", "0.5", "--v-max", "50", "--points", "5",
         "--monotonic-samples", "50", "--format", "json"],
    )
    assert code == 0
    assert json.loads(out)["status"] == "pass"
    code, out, _ = run(
        capsys,
        ["verify", "crossing", "--v-min", "0.5", "--v-max", "50", "--points", "3",
         "--monotonic-samples", "50", "--rel-tol", "1e-18", "--format", "json"],
    )
    assert code == 1
    assert json.loads(out)["status"] == "fail"


def test_verify_length_lemma_seed_in_claim(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "length-lemma", "--samples", "500", "--r-max", "30", "--seed", "9",
         "--sharpness-points", "50", "--format", "json"],
    )
    assert code == 0
    assert json.loads(out)["claim_id"] == "length-lemma:seed=9"


@pytest.mark.xfail(
    strict=True,
    reason="MoebiusElement.from_trace takes (t + root)/2 with the principal root, which "
    "cancels when Re t < 0, so the element's length drifts from the trace's: "
    "worst margin -1.72e-5 at -970418.33 + 241306.36i, where mpmath gives +5.95e-5",
)
def test_verify_length_lemma_passes_at_a_large_r_max(capsys):
    code, out, _ = run(capsys, ["verify", "length-lemma", "--r-max", "1e6", "--format", "json"])
    assert json.loads(out)["status"] == "pass"
    assert code == 0


def test_verify_cubic_human(capsys):
    code, out, _ = run(capsys, ["verify", "cubic", "--vc-min", "2", "--vc-max", "100", "--vc-points", "5"])
    assert code == 0
    assert out.startswith("cubic: PASS")


def test_verify_margins_csv(tmp_path, capsys):
    path = tmp_path / "margins.csv"
    code, _, _ = run(capsys, VERIFY_FAST + ["--margins-csv", str(path), "--format", "json"])
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "vc,worst_ell,margin"
    assert len(lines) == 5  # header + one row per cusp volume


def test_margin_writer_gives_the_bytes_of_csv_writer_and_fmt():
    def written(header, blocks):
        fh = io.StringIO()
        _write_csv(fh, header, blocks)
        return fh.getvalue()

    def csv_writer(header, rows):
        fh = io.StringIO()
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return fh.getvalue()

    # margin rows of reals, as verify --margins-csv writes them: float arrays,
    # two rows to a block, the last block short
    header = ("vc", "x", "margin")
    rows = [(math.nan, math.inf, -math.inf), (-0.0, 5e-324, 1e308), (3, -2.5, 0.0),
            (-1e-300, 1 / 3, 10**20), (-5e-324, -1e308, 0)]
    reals = np.array(rows, dtype=float)
    got = written(header, (reals[i:i + 2] for i in range(0, len(reals), 2)))
    assert got == csv_writer(header, (map(_fmt, row) for row in rows))
    assert "-0," not in got
    # stdout rows of strings and ints, as the csv format prints them: flat
    # lists of fields, two rows to a block, the last block short
    header = ["p", "d", "split", "a", "b", "norm"]
    rows = [[5, 1, "true", 1, 2, 5], [7, 1, "false", "", "", ""],
            [10**3999, -(10**3999), "true", -3, "", "1.2345678901234567e-300"]]
    flat = [x for row in rows for x in row]
    step = 2 * len(header)
    assert written(header, (flat[i:i + step] for i in range(0, len(flat), step))) \
        == csv_writer(header, rows)
    assert written(header, []) == csv_writer(header, [])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(values=st.lists(st.floats(), min_size=1, max_size=40), columns=st.integers(1, 4))
def test_real_cells_give_the_bytes_of_a_format_call(values, columns):
    block = np.resize(np.array(values), (-(-len(values) // columns), columns))
    header = [f"c{j}" for j in range(columns)]
    fh = io.StringIO()
    _write_csv(fh, header, [block])
    rows = [[x + 0.0 for x in row] for row in block.tolist()]
    assert fh.getvalue() == _rows_a_call_each(header, rows, "%.17g")


def test_real_cells_give_the_bytes_of_a_format_call_on_the_seeded_families():
    """Normals, log-uniform reals, integers, each power of ten in [1e-5, 1e18]
    and the ulps around it (the 1e-4, 1e16 and 1e17 ends of fixed notation
    among them), exact ties at the 17th digit, raw bit patterns and the
    specials: one seed of the families that scripts/check_real_cells.py runs."""
    spec = importlib.util.spec_from_file_location(
        "check_real_cells", Path(__file__).resolve().parents[1] / "scripts" / "check_real_cells.py")
    check = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check)
    values = check.families(0)
    assert np.isin([0.09999999999999999, 1e-4, 1e16, 1e17], values).all()
    assert check.first_mismatch(values) is None


def test_fixed_notation_reals_are_rendered_by_the_kernel_not_format():
    x = np.random.default_rng(0).standard_normal(3000) * 30
    assert (abs(x) >= 1e-4).all()
    cells, width = np.empty((len(x), 26), np.uint8), np.empty(len(x), np.uint8)
    assert len(cli._fixed_cells(x, cells, width)) == 0


def _rows_a_call_each(header, rows, cell="%s"):
    """CSV text with each row formatted in its own ``%`` call: the reference
    for the writer, which formats a block of rows per call."""
    line = ",".join([cell] * len(header)) + "\n"
    return ",".join(header) + "\n" + "".join(line % tuple(row) for row in rows)


@pytest.mark.parametrize("r_max", ["100", "1e-12"])
def test_margin_file_has_the_bytes_of_a_format_call_per_row(r_max, tmp_path, monkeypatch, capsys):
    """--samples 4097 takes two draw blocks, the second of one pair; at
    --r-max 1e-12 every lane is elliptic and both blocks are empty.  A block
    of 4100 rows of extreme reals is appended, which the writer splits at
    4096 rows; its -0.0 must print as 0."""
    extremes = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308,
                -5e-324, 1 / 3, -2.5, 10.0**20, 0.1, -1e-300]
    appended = np.resize(np.array(extremes), (4100, 3))
    kept = []
    run_sweep = certify.certify_length_lemma

    def run_and_append(*args, margin_rows, **kwargs):
        report = run_sweep(*args, margin_rows=margin_rows, **kwargs)
        margin_rows.append(appended)
        kept.append(margin_rows)
        return report

    monkeypatch.setattr(certify, "certify_length_lemma", run_and_append)
    path = tmp_path / "margins.csv"
    code, _, _ = run(capsys, ["verify", "length-lemma", "--samples", "4097", "--r-max", r_max,
                              "--margins-csv", str(path)])
    assert code == 0
    (blocks,) = kept
    drawn = [len(block) for block in blocks[:-1]]
    assert drawn == ([0, 0] if r_max == "1e-12" else [4096, 1])
    rows = [[x + 0.0 for x in row] for block in blocks for row in block.tolist()]
    got = path.read_text()
    # as lines, which pytest compares without a diff of the whole text
    want = _rows_a_call_each(certify.CLAIMS["length-lemma"].header, rows, "%.17g")
    assert got.splitlines() == want.splitlines() and got.endswith("\n")
    assert "-0," not in got and "\n0,nan,inf\n" in got


def test_a_refused_verify_keeps_an_existing_margin_file(tmp_path, capsys):
    path, fresh = tmp_path / "old.csv", tmp_path / "new.csv"
    path.write_text("vc,worst_ell,margin\n" + "1,2,3\n" * 1000)
    before = path.read_bytes()
    code, _, err = run(capsys, ["verify", "techlem2", "--vc-min", "1", "--margins-csv", str(path)])
    assert code == 2 and err.startswith("usage error: ")
    assert path.read_bytes() == before
    # A run that writes rows replaces the whole file: no tail of the longer old content stays.
    for target in (path, fresh):
        assert run(capsys, ["verify", "cubic", "--vc-points", "3", "--margins-csv", str(target)])[0] == 0
    assert path.read_bytes() == fresh.read_bytes() and len(before) > len(fresh.read_bytes())


def test_margins_go_to_a_pipe_or_device_as_to_a_file(tmp_path):
    """Only a regular file is emptied before the rows are written, as O_TRUNC
    would: /dev/stdout on a pipe and /dev/null take the rows as they are."""
    src = str(Path(sysbound.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-m", "sysbound", "verify", "cubic", "--vc-points", "3",
            "--format", "json", "--margins-csv"]
    file = tmp_path / "m.csv"
    report = subprocess.run(argv + [str(file)], capture_output=True, text=True, env=env, check=True)
    piped = subprocess.run(argv + ["/dev/stdout"], capture_output=True, text=True, env=env, check=True)
    assert piped.stdout == file.read_text() + report.stdout and piped.stderr == ""
    nulled = subprocess.run(argv + ["/dev/null"], capture_output=True, text=True, env=env, check=True)
    assert nulled.stdout == report.stdout and nulled.stderr == ""


# A process started by exec reports at least its parent's resident size at the
# fork as its peak, so the sweep runs in a fork of the small child instead.
_PEAK_RESIDENT = """
import os, sys
if pid := os.fork():
    sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
import contextlib, resource
from sysbound.cli import main
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    code = main(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="verify length-lemma --margins-csv holds every margin row in memory until the sweep "
    "ends (certify_length_lemma's margin_rows), about 23 bytes a sample: 61 MiB peak resident "
    "against 36 MiB without it at 1 000 000 samples; streaming the rows would keep it flat "
    "(a FOUND in CHANGES.md)")
def test_margins_csv_keeps_the_peak_resident_of_the_sweep():
    """Budget: 8 MiB above the peak resident of the same sweep without
    --margins-csv, at 1 000 000 samples, each run in its own process."""
    src = str(Path(sysbound.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-c", _PEAK_RESIDENT, "verify", "length-lemma", "--samples",
            "1000000", "--format", "json"]
    peaks = []
    for extra in ([], ["--margins-csv", os.devnull]):
        out = subprocess.run(argv + extra, capture_output=True, text=True, env=env).stdout.split()
        if len(out) != 2 or out[0] != "0":
            pytest.fail(f"verify length-lemma {' '.join(extra)} did not exit 0: {out}")
        peaks.append(int(out[1]))  # KiB on Linux
    plain, with_csv = peaks
    assert with_csv <= plain + 8 * 1024, (plain, with_csv)


@pytest.mark.parametrize("fmt", ["csv", "human"])
def test_a_closed_stdout_pipe_exits_1_without_a_traceback(fmt):
    """``sysbound ... | head -1``: the reader goes after one line."""
    src = str(Path(sysbound.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen(
        [sys.executable, "-m", "sysbound", "bianchi", "ideals", "--d", "1", "--max-modulus", "100",
         "--format", fmt], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1 and err == ""  # no traceback, nor any other word


def test_csv_stdout_has_the_bytes_of_a_format_call_per_row(capsys):
    """Int cells over more than one 4096-row batch (5025 ideals), and str cells."""
    _, out, _ = run(capsys, ["bianchi", "ideals", "--d", "1", "--max-modulus", "40", "--format", "csv"])
    rows = [[x.a, x.b, x.norm] for x in bianchi.elements_of_bounded_modulus(1, 40.0)]
    assert len(rows) > 4096 and out.endswith("\n")
    assert out.splitlines() == _rows_a_call_each(["a", "b", "norm"], rows).splitlines()
    header = ["p", "d", "split", "a", "b", "norm"]
    _, out, _ = run(capsys, ["bianchi", "split", "--d", "1", "--p", "7", "--format", "csv"])
    assert out == _rows_a_call_each(header, [[7, 1, "false", "", "", ""]])
    _, out, _ = run(capsys, ["bianchi", "split", "--d", "1", "--p", "5", "--format", "csv"])
    x = bianchi.split_prime(5, 1)
    assert out == _rows_a_call_each(header, [[5, 1, "true", x.a, x.b, 5]])


def test_verify_config_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "# preset grid\nvc-min = 17.1\nvc-max = 100\nvc-points = 4\nell-points = 30\n"
    )
    code, out, _ = run(capsys, ["verify", "techlem2", "--config", str(cfg), "--format", "json"])
    assert code == 0
    assert json.loads(out)["points_checked"] == 120
    code, out, _ = run(
        capsys,
        ["verify", "techlem2", "--config", str(cfg), "--ell-points", "10", "--format", "json"],
    )
    assert code == 0
    assert json.loads(out)["points_checked"] == 40


def test_verify_bad_grid_is_usage_error(capsys):
    code, _, err = run(capsys, ["verify", "techlem2", "--vc-min", "100", "--vc-max", "10"])
    assert code == 2
    assert "usage error" in err


def test_verify_has_no_probe_flag_and_refuses_a_grid_below_the_threshold(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "techlem2", "--probe"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --probe" in capsys.readouterr().err
    code, out, err = run(capsys, ["verify", "techlem2", "--vc-min", "1"])
    assert (code, out) == (2, "")
    assert err == ("usage error: grid starts below the trace-bound threshold "
                   f"{bounds.CUSP_VOLUME_THRESHOLD}\n")


# ---------------------------------------------------------------------------
# bianchi
# ---------------------------------------------------------------------------

def test_bianchi_split(capsys):
    code, out, _ = run(capsys, ["bianchi", "split", "--p", "11", "--d", "2"])
    assert code == 0
    assert "3+1√-2" in out
    code, out, _ = run(capsys, ["bianchi", "split", "--p", "11", "--d", "2", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"p": 11, "d": 2, "split": True, "a": 3, "b": 1, "norm": 11}


def test_bianchi_split_requires_split(capsys):
    code, out, _ = run(capsys, ["bianchi", "split", "--p", "5", "--d", "2", "--format", "json"])
    assert code == 0
    assert json.loads(out)["split"] is False
    code, _, _ = run(capsys, ["bianchi", "split", "--p", "5", "--d", "2", "--require-split"])
    assert code == 1


# Primes near 2^63 at which -2 is not a square, and is one, mod p.
LARGE_NON_SPLIT_PRIME = 9223372036854775783
LARGE_SPLIT_PRIME = 9223372036854775643


def test_bianchi_split_of_a_large_non_split_prime_returns_at_once(capsys):
    code, out, _ = run(capsys, ["bianchi", "split", "--d", "2", "--p", str(LARGE_NON_SPLIT_PRIME),
                                "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"p": LARGE_NON_SPLIT_PRIME, "d": 2, "split": False}


def test_bianchi_split_of_a_large_split_prime_returns_at_once(capsys):
    code, out, _ = run(capsys, ["bianchi", "split", "--d", "2", "--p", str(LARGE_SPLIT_PRIME),
                                "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"p": LARGE_SPLIT_PRIME, "d": 2, "split": True,
                               "a": 1725430539, "b": 1767238169, "norm": LARGE_SPLIT_PRIME}


def test_bianchi_index(capsys):
    code, out, _ = run(capsys, ["bianchi", "index", "--d", "2", "--pi", "3,1", "--n", "1"])
    assert code == 0
    assert out.strip() == "660"
    code, _, err = run(capsys, ["bianchi", "index", "--d", "2", "--pi", "0,1", "--n", "1"])
    assert code == 1
    assert "odd prime" in err


def test_bianchi_census_csv(capsys):
    code, out, _ = run(
        capsys, ["bianchi", "census", "--d", "2", "--pi", "3,1", "--n-max", "3", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,index,volume,trace_lb,systole_lb,ratio"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[1] == "660"
    assert first[3] == "9"


def test_bianchi_census_json_mirror(capsys):
    code, out, _ = run(
        capsys, ["bianchi", "census", "--d", "2", "--pi", "3,1", "--n-max", "2", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    row = payload["rows"][0]
    assert row["trace_lb"] == 9
    assert row["trace_lb_uncorrected"] == 11
    assert float(payload["rows"][1]["volume"]) / float(row["volume"]) == pytest.approx(1331)


def test_census_bound_is_zero_where_the_trace_bound_is_at_most_two(capsys):
    # N(pi) = 3: trace_lb is 1 at n = 1, so the systole bound and ratio are
    # the trivial 0, not log(1/4); the n = 2 row keeps its bytes.
    assert run(capsys, ["bianchi", "census", "--d", "2", "--pi", "1,1", "--n-max", "2",
                        "--base-covolume", "0.0834", "--format", "csv"]) == (0, (
        "n,index,volume,trace_lb,systole_lb,ratio\n"
        "1,12,1.0007999999999999,1,0,0\n"
        "2,324,27.021599999999999,7,2.5055259369907361,0.76002492294696922\n"), "")


def test_bianchi_census_height_check(capsys):
    code, out, err = run(
        capsys,
        ["bianchi", "census", "--d", "2", "--pi", "3,1", "--n-max", "1", "--height", "2",
         "--format", "csv"],
    )
    assert code == 0
    assert out.splitlines()[0] == "n,index,volume,trace_lb,systole_lb,ratio"
    assert "n=1:" in err
    assert "loxodromic" in err


@pytest.mark.parametrize("pi, largest", [("3,1", 35), ("1,1", 25)])
def test_census_height_is_refused_just_past_the_memory_budget(pi, largest, monkeypatch, capsys):
    # The largest height within the budget reaches the box search (stubbed
    # here: the real one takes 6-8 s there); the next one is refused.
    heights = []
    monkeypatch.setattr(bianchi, "congruence_trace_counts",
                        lambda level, height: heights.append(height) or {})
    argv = ["bianchi", "census", "--d", "2", "--pi", pi, "--n-max", "1", "--height"]
    assert run(capsys, argv + [str(largest)])[0] == 0
    code, out, err = run(capsys, argv + [str(largest + 1)])
    assert (code, out) == (2, "")
    assert err.startswith(f"usage error: --height must keep the census within 1024 MiB, "
                          f"got {largest + 1} for N(pi) = ")
    assert heights == [largest]


@pytest.mark.parametrize("n_max, largest", [("1", 74), ("5", 49)])
def test_census_height_is_refused_just_past_the_lookup_budget(n_max, largest, monkeypatch, capsys):
    # At N(pi) = 1000000190000009027 the memory budget would take heights up
    # to 255; the lookups, n_max * (2h + 1)^4, refuse them long before.
    heights = []
    monkeypatch.setattr(bianchi, "congruence_trace_counts",
                        lambda level, height: heights.append(height) or {})
    argv = ["bianchi", "census", "--d", "2", "--pi", "1000000095,1", "--n-max", n_max, "--height"]
    assert run(capsys, argv + [str(largest)])[0] == 0
    assert run(capsys, argv + [str(largest + 1)]) == (
        2, "", f"usage error: --height must keep the census within 500000000 lookups, "
               f"got {largest + 1} for --n-max {n_max}\n")
    assert heights == [largest] * int(n_max)


def test_bianchi_census_needs_covolume_for_other_rings(capsys):
    code, _, err = run(capsys, ["bianchi", "census", "--d", "1", "--pi", "1,1", "--n-max", "1"])
    assert code == 2
    assert "base-covolume" in err


def test_bianchi_ideals(capsys):
    code, out, _ = run(
        capsys, ["bianchi", "ideals", "--d", "2", "--max-modulus", "2", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a,b,norm"
    assert len(lines) == 11
    code, out, _ = run(
        capsys, ["bianchi", "ideals", "--d", "2", "--max-modulus", "1", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    assert payload["elements"] == [{"a": -1, "b": 0, "norm": 1}, {"a": 1, "b": 0, "norm": 1}]


@pytest.mark.parametrize("fmt", ["json", "csv", "human"])
def test_bianchi_ideals_prints_every_element_in_each_format(fmt, capsys):
    # Long enough for the JSON writer to flush many batches.
    elements = bianchi.elements_of_bounded_modulus(1, 60)
    if fmt == "json":
        record = {"count": len(elements), "d": 1, "max_modulus": "60",
                  "elements": [{"a": x.a, "b": x.b, "norm": x.norm} for x in elements]}
        expected = json.dumps(record, sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        expected = "a,b,norm\n" + "".join(f"{x.a},{x.b},{x.norm}\n" for x in elements)
    else:
        expected = "".join(f"{x}  (norm {x.norm})\n" for x in elements) + f"count: {len(elements)}\n"
    argv = ["bianchi", "ideals", "--d", "1", "--max-modulus", "60", "--format", fmt]
    assert run(capsys, argv) == (0, expected, "")


def test_ideals_modulus_is_refused_just_past_the_memory_budget(monkeypatch, capsys):
    # At d = 1 the walk visits (2m + 1)(2m + 3) candidates for --max-modulus m.
    moduli = []
    monkeypatch.setattr(bianchi, "elements_of_bounded_modulus",
                        lambda d, bound: moduli.append(bound) or [])
    argv = ["bianchi", "ideals", "--d", "1", "--max-modulus"]
    assert run(capsys, argv + ["471.99"])[0] == 0
    assert run(capsys, argv + ["472"]) == (
        2, "", "usage error: --max-modulus must keep the ideals within 1024 MiB, "
               "got 472.0 for d = 1\n")
    assert moduli == [471.99]


# ---------------------------------------------------------------------------
# input boundary
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "closed-link", "--volume", "nan"],
        ["bound", "closed-link", "--volume", "inf"],
        ["bound", "cusped", "--volume", "inf"],
        ["bianchi", "ideals", "--d", "2", "--max-modulus", "inf"],
        ["bianchi", "census", "--d", "2", "--pi", "3,1", "--base-covolume", "nan"],
        ["verify", "cubic", "--vc-max", "inf"],
        ["verify", "crossing", "--v-max", "inf"],
        ["verify", "techlem2", "--vc-max", "inf"],
        ["verify", "length-lemma", "--r-max", "nan"],
        ["verify", "techlem2", "--vc-scale", "linear", "--vc-max", "1e308"],
        ["verify", "cubic", "--config", "{cfg}"],
        ["verify", "cubic", "--vc-min", "-5", "--vc-max", "5", "--vc-scale", "linear",
         "--vc-points", "3"],
        ["element", "classify", "--matrix", f"[[1{'0' * 400},0],[0,0],[0,0],[1,0]]"],
        ["lattice", "waist", "--lattice", f"[[1{'0' * 400},0],[0,1]]"],
        ["bianchi", "census", "--d", "2", "--pi", "3,1", "--n-max", "400"],
        ["bianchi", "census", "--d", "2", "--pi", "3,1", "--base-covolume", "1e308"],
        ["lattice", "waist", "--lattice", "[[1e400,0],[0,1]]"],
        ["lattice", "waist", "--lattice", "[[1e308,0],[0,1e308]]"],
        ["verify", "cubic", "--vc-points", str(10**18)],
    ],
)
def test_non_finite_input_is_one_line_usage_error(argv, tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("vc-max = inf\n")
    argv = [str(cfg) if a == "{cfg}" else a for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bianchi", "census", "--d", "2", "--pi", "3,1", "--height", "-1"], "--height must be"),
        (["bianchi", "census", "--d", "2", "--pi", "3,1", "--height", str(10**20)],
         "--height must be"),
        (["bianchi", "census", "--d", "2", "--pi", "3,1", "--height", "36"],
         "--height must keep the census within 1024 MiB, got 36 for N(pi) = 11\n"),
        (["bianchi", "census", "--d", "2", "--pi", "1,1", "--height", str(2**62)],
         f"--height must keep the census within 1024 MiB, got {2**62} for N(pi) = 3\n"),
        (["bianchi", "index", "--d", "2", "--pi", "3,1", "--n", "2000"], "--n must"),
        (["bianchi", "index", "--d", "2", "--pi", "3,1", "--n", "10000000"], "--n must"),
        (["bianchi", "ideals", "--d", "2", "--max-modulus", "1e308"], "--max-modulus must"),
        (["verify", "length-lemma", "--seed", str(10**20)], "--seed must"),
        # The ell^4 refusal comes before the peak-slope gate, whose w^4 overflows too.
        (["verify", "techlem2", "--vc-min", "1.3e231", "--vc-max", "2e231", "--vc-points", "2"],
         "techlem2 needs every slope's ell^4 finite, got vc = 1.3e+231\n"),
        (["verify", "cubic", "--margins-csv", "/nonexistent/x.csv"], "cannot write --margins-csv"),
        (["verify", "cubic", "--margins-csv", ""], "cannot write --margins-csv"),
        (["verify", "crossing", "--monotonic-samples", "1"],
         "need at least 2 monotonic samples, got 1\n"),
        (["verify", "crossing", "--monotonic-samples", "0"],
         "need at least 2 monotonic samples, got 0\n"),
        (["verify", "length-lemma", "--sharpness-points", "-1"],
         "need a nonnegative number of sharpness points, got -1\n"),
    ],
)
def test_out_of_range_flag_is_named_in_a_usage_error(argv, message, monkeypatch, capsys):
    # Refused before any sweep runs.
    monkeypatch.setattr(certify, "certify_cubic_claims", None)
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"usage error: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        # A flag of another action or claim.
        (["bianchi", "split", "--d", "2", "--p", "11", "--height", "3"],
         "unrecognized arguments: --height 3"),
        (["bianchi", "index", "--d", "2", "--pi", "3,1", "--n-max", "3"],
         "unrecognized arguments: --n-max 3"),
        (["bianchi", "census", "--d", "2", "--pi", "3,1", "--n", "2"],  # not --n-max
         "unrecognized arguments: --n 2"),
        (["bianchi", "ideals", "--d", "2", "--pi", "3,1"], "unrecognized arguments: --pi 3,1"),
        (["verify", "cubic", "--ell-points", "5", "--samples", "3"],
         "unrecognized arguments: --ell-points 5 --samples 3"),
        (["verify", "crossing", "--vc-min", "20"], "unrecognized arguments: --vc-min 20"),
        *((["verify", claim, "--seed", "1"], "unrecognized arguments: --seed 1")
          for claim in ("techlem2", "crossing", "cubic")),
        # A flag before the claim or action.
        (["verify", "--vc-points=3", "cubic"], "unrecognized arguments: --vc-points=3"),
        (["bianchi", "--d=2", "split", "--p", "5"], "the following arguments are required: --d"),
        # Written apart from its value, such a flag leaves the value to be read as
        # the claim, and argparse names the value.
        (["verify", "--vc-points", "3", "cubic"], "argument claim: invalid choice: '3'"),
        # An abbreviated flag.
        (["verify", "techlem2", "--vc-poi", "3"], "unrecognized arguments: --vc-poi 3"),
        (["bound", "cusped", "--vol", "1"], "the following arguments are required: --volume"),
        # A flag the action needs.
        (["bianchi", "split", "--d", "2"], "the following arguments are required: --p"),
        (["bianchi", "index", "--d", "2"], "the following arguments are required: --pi"),
        (["bianchi", "census", "--d", "2"], "the following arguments are required: --pi"),
    ],
)
def test_a_flag_the_command_does_not_take_or_needs_is_an_argparse_error(
        argv, message, monkeypatch, capsys):
    monkeypatch.setattr(certify, "certify_cubic_claims", None)  # nothing runs
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage: ")
    assert f": error: {message}" in captured.err
    assert "Traceback" not in captured.err


def test_main_builds_the_parser_once_per_process(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli._build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    argv = ["bianchi", "index", "--d", "2", "--pi", "3,1", "--format", "json"]
    first = run(capsys, argv)
    assert first[0] == 0 and built[0] == "sysbound"
    count = len(built)
    assert run(capsys, argv) == first
    assert len(built) == count


@pytest.mark.parametrize(
    "argv, code, err",
    [
        # r_max^2 overflows: an overflow, not a complaint about a matrix entry.
        (["verify", "length-lemma", "--samples", "3", "--r-max", "1e308", "--sharpness-points", "2"],
         2, "usage error: length-lemma overflows at these parameters: "
            "r_max^2 is not finite for r_max = 1e+308\n"),
        # The sharpness gate is relative, so an eigenvalue near 1e154 passes.
        (["verify", "length-lemma", "--samples", "3", "--r-max", "1e154", "--sharpness-points", "2"],
         0, ""),
        # Sharpness traces this small classify as elliptic and are skipped.
        (["verify", "length-lemma", "--samples", "3", "--r-max", "1e-320", "--sharpness-points", "2"],
         0, ""),
        # The bracket starts above a subnormal v; at v = 1e308 the closed form
        # rounds to v or below, which is refused before anything overflows.
        (["verify", "crossing", "--v-min", "1e-320", "--v-max", "1e308", "--points", "3",
          "--monotonic-samples", "3"],
         2, "usage error: crossing needs crossing_volume(v) > v in doubles, "
            "got v = 1e+308\n"),
        # Above about 1e16 the crossing lies within v*1e-9 of v, so the bracket
        # starts just above v.
        *((["verify", "crossing", "--v-min", lo, "--v-max", hi, "--points", "2",
            "--monotonic-samples", "3"], 0, "")
          for lo, hi in [("1e17", "2e17"), ("1e20", "2e20"), ("1e24", "1.5e24")]),
        (["verify", "crossing", "--v-min", "1e30", "--v-max", "2e30", "--points", "2",
          "--monotonic-samples", "3"],
         2, "usage error: crossing needs crossing_volume(v) > v in doubles, "
            "got v = 1e+30\n"),
        (["verify", "crossing", "--v-min", "1e240", "--v-max", "2e240", "--points", "2",
          "--monotonic-samples", "3"],
         2, "usage error: crossing needs crossing_volume(v) > v in doubles, "
            "got v = 1e+240\n"),
        # ell^4 overflows for slopes above about 1e77.
        (["verify", "techlem2", "--vc-min", "1e150", "--vc-max", "2e150", "--vc-points", "2",
          "--ell-points", "3"],
         0, ""),
        (["verify", "techlem2", "--vc-min", "1e160", "--vc-max", "2e160", "--vc-points", "2",
          "--ell-points", "3"],
         2, "usage error: techlem2 needs every slope's ell^4 finite, got vc = 1e+160\n"),
        (["verify", "crossing", "--v-min", "1e-320", "--v-max", "1e-300", "--points", "3",
          "--monotonic-samples", "3"],
         0, ""),
        # The cubic's terms overflow (inf - inf is NaN), 4*vc^2 is subnormal, and
        # 4*vc^2 underflows to 0 so that there is no bracket: each is refused.
        (["verify", "cubic", "--vc-min", "6.8e153", "--vc-max", "6.9e153", "--vc-points", "2"],
         2, "usage error: cubic claims need 4*vc^2 normal and the cubic finite, "
            "got vc = 6.8e+153\n"),
        (["verify", "cubic", "--vc-min", "1e-160", "--vc-max", "1e-159", "--vc-points", "2"],
         2, "usage error: cubic claims need 4*vc^2 normal and the cubic finite, "
            "got vc = 1e-160\n"),
        (["verify", "cubic", "--vc-min", "1e-200", "--vc-max", "1e-170", "--vc-points", "3"],
         2, "usage error: cubic claims need 4*vc^2 normal and the cubic finite, "
            "got vc = 1e-200\n"),
        # x**3 raises OverflowError at the root bound, where 4*x**3 would be inf.
        (["verify", "cubic", "--vc-min", "1e160", "--vc-max", "2e160", "--vc-points", "2"],
         2, "usage error: cubic claims need 4*vc^2 normal and the cubic finite, "
            "got vc = 1e+160\n"),
        (["verify", "length-lemma", "--r-max", "-1"],
         2, "usage error: r_max must be nonnegative, got -1.0\n"),
    ],
)
def test_sweeps_at_extreme_parameters(argv, code, err, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got_code, out, got_err = run(capsys, argv + ["--format", "json"])
    assert got_code == code
    assert got_err.startswith(err)
    assert got_err.count("\n") == (code == 2)
    assert (out == "") == (code == 2)


@pytest.mark.parametrize("how", ["--jobs 0", "--jobs -5"])
@pytest.mark.parametrize("claim", ["techlem2", "cubic"])
def test_verify_rejects_jobs_below_one(claim, how, capsys):
    code, out, err = run(capsys, ["verify", claim] + how.split())
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: jobs must be at least 1")


@pytest.mark.parametrize("claim", ["techlem2", "cubic"])
def test_verify_ignores_a_jobs_config_line(claim, tmp_path, capsys):
    # jobs is no claim's parameter, but its config line is ignored, as another claim's key is.
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("vc-min = 17.1\nvc-max = 100\nvc-points = 2\nell-points = 10\n")
    plain = run(capsys, ["verify", claim, "--config", str(cfg), "--format", "json"])
    cfg.write_text("jobs = 0\n" + cfg.read_text())
    assert plain[0] == 0
    assert run(capsys, ["verify", claim, "--config", str(cfg), "--format", "json"]) == plain


def test_verify_accepts_and_ignores_jobs(capsys):
    assert run(capsys, VERIFY_FAST + ["--jobs", str(sys.maxsize)]) == run(capsys, VERIFY_FAST)


def test_importing_the_cli_loads_no_process_pool():
    src = str(Path(sysbound.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import sysbound.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         check=True).stdout
    assert out == "[]\n"


def test_importing_the_cli_loads_no_exact_fractions():
    # Only bounds._zeta_ratios uses fractions, and no command reaches it, so
    # neither fractions nor the decimal module it imports is loaded at start-up.
    src = str(Path(sysbound.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import sysbound.cli; "
            "print(sorted(m for m in sys.modules if m in ('fractions', 'decimal', '_decimal')))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         check=True).stdout
    assert out == "[]\n"


@pytest.mark.parametrize("argv", [
    ["cubic", "--vc-points", str(certify.MAX_LANES)],
    ["cubic", "--vc-points", str(certify.MAX_LANES - 1)],
    ["techlem2", "--vc-points", "2", "--ell-points", str(certify.MAX_LANES)],
    ["crossing", "--points", "2", "--monotonic-samples", str(certify.MAX_LANES)],
    ["length-lemma", "--samples", "1", "--sharpness-points", str(certify.MAX_LANES)],
])
def test_verify_counts_at_the_lane_limit_need_more_memory(argv, capsys):
    # numpy refuses these arrays with a ValueError of its own rather than failing
    # to allocate them; the verdict must be the one of any count past memory.
    assert run(capsys, ["verify", *argv]) == (
        2, "", f"usage error: {argv[0]} needs more memory than is available at these parameters\n")


def test_verify_calls_the_sweeps_through_the_module(monkeypatch, capsys):
    # Wrappers installed on the module attributes (as perfbench's tracer does)
    # must see every verify run.
    calls = []
    for name in ("certify_cubic_claims", "certify_cusp_trace_bound"):
        original = getattr(certify, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(certify, name, counting)
    assert run(capsys, ["verify", "cubic", "--vc-points", "3"])[0] == 0
    assert run(capsys, VERIFY_FAST)[0] == 0
    assert calls == ["certify_cubic_claims", "certify_cusp_trace_bound"]


# ---------------------------------------------------------------------------
# fuzzing the whole command line
# ---------------------------------------------------------------------------

HUGE = str(10**20)
# Adversarial reals on the command line and the same values as JSON literals.
BAD_REALS = ["nan", "inf", "-inf", "0", "-1", "1e308", "1e-320", "1" + "0" * 400]
BAD_JSON_REALS = ["NaN", "Infinity", "-Infinity", "0", "-1", "1e308", "1e-320", "1" + "0" * 400]
BAD_COUNTS = ["0", "-1", "-7", HUGE]
# Census heights the boundary accepts as integers but refuses for memory.
CENSUS_HEIGHTS = [str(10**8), str(2**61), str(2**62)]


def _real(*valid):
    return st.sampled_from(BAD_REALS + list(valid))


def _count(*valid):
    return st.sampled_from(BAD_COUNTS + list(valid))


def _pairs(n, *tiny):
    entry = st.sampled_from(BAD_JSON_REALS + ["1", "0.5", "2", "-0.75", *tiny])
    pair = st.tuples(entry, entry).map(lambda p: f"[{p[0]},{p[1]}]")
    return st.lists(pair, min_size=n, max_size=n).map(lambda ps: "[" + ",".join(ps) + "]")


# Every verify parameter drawn with tiny valid sizes, so that no omitted
# flag falls back to a full-size default grid.
VERIFY_SLOTS = {
    "vc-min": _real("17.1", "2", "1"),
    "vc-max": _real("40", "100"),
    "vc-points": _count("2", "3", str(sys.maxsize)),
    "vc-scale": st.sampled_from(["linear", "log"]),
    "ell-points": _count("2", "5", str(sys.maxsize)),
    "v-min": _real("0.5", "0.1"),
    "v-max": _real("50"),
    "points": _count("2", "3", str(sys.maxsize)),
    "scale": st.sampled_from(["linear", "log"]),
    "rel-tol": _real("1e-10", "1e-18"),
    "monotonic-samples": _count("2", "5", str(sys.maxsize)),
    "samples": _count("1", "5"),
    "r-max": _real("30", "5"),
    "sharpness-points": _count("2", "3", str(sys.maxsize)),
    "seed": st.sampled_from(["0", "9", "-1", HUGE]),
}
CLAIM_FLAGS = {name: [p.name for p in claim.params] for name, claim in certify.CLAIMS.items()}
# The flags that every claim takes besides its own.
VERIFY_FLAGS = {"jobs", "config", "margins-csv", "format"}


@st.composite
def _verify_argv(draw):
    claim = draw(st.sampled_from(sorted(CLAIM_FLAGS)))
    argv = ["verify", claim]
    for name in CLAIM_FLAGS[claim]:
        argv.append(f"--{name}={draw(VERIFY_SLOTS[name])}")
    argv.append(f"--jobs={draw(_count('1', '2', str(sys.maxsize)))}")
    foreign = sorted(set(VERIFY_SLOTS) - set(CLAIM_FLAGS[claim]))
    if draw(st.booleans()):
        name = draw(st.sampled_from(foreign))
        argv.append(f"--{name}={draw(VERIFY_SLOTS[name])}")
    if draw(st.booleans()):
        argv.append("--margins-csv={tmp}/" + draw(st.sampled_from(["m.csv", "missing/m.csv"])))
    return argv


@st.composite
def _bianchi_argv(draw):
    action = draw(st.sampled_from(["split", "index", "census", "ideals"]))
    argv = ["bianchi", action, f"--d={draw(_count('2', '1'))}"]
    if action == "split":
        argv.append(f"--p={draw(_count('11', '5', '2'))}")
    if action in ("index", "census"):
        pis = ['3,1', '1,1', '0,1', '0,0', 'three', '1000000095,1']
        argv.append(f"--pi={draw(st.sampled_from(pis))}")
    if action == "index":
        argv.append(f"--n={draw(_count('1', '2', '2000', '10000000'))}")
    if action == "census":
        argv.append(f"--n-max={draw(_count('1', '2'))}")
        if draw(st.booleans()):
            argv.append(f"--height={draw(_count('1', '2', *CENSUS_HEIGHTS))}")
        if draw(st.booleans()):
            argv.append(f"--base-covolume={draw(_real('0.3053', '1'))}")
    if action == "ideals":
        argv.append(f"--max-modulus={draw(_real('2', '1.5'))}")
    return argv


_ARGV = st.tuples(
    st.one_of(
        st.builds(lambda kind, v: ["bound", kind, f"--volume={v}"],
                  st.sampled_from(["closed-link", "cusped"]), _real("2.5", "1")),
        st.builds(lambda action, m: ["element", action, f"--matrix={m}"],
                  st.sampled_from(["classify", "length", "sphere"]), _pairs(4)),
        st.builds(lambda action, m: ["lattice", action, f"--lattice={m}"],
                  st.sampled_from(["reduce", "waist", "diameter"]), _pairs(2, "1e-160", "3e-158", "-2.6e-167")),
        _verify_argv(),
        _bianchi_argv(),
    ),
    st.sampled_from(["json", "csv", "human"]),
).map(lambda t: t[0] + [f"--format={t[1]}"])


@settings(max_examples=500, deadline=None, derandomize=True)
@given(argv=_ARGV)
@example(argv=["lattice", "waist", "--lattice=[[1e400,0],[0,1]]"])
@example(argv=["element", "classify", "--matrix=[[1e400,0],[0,0],[0,0],[1,0]]"])
@example(argv=["lattice", "waist", "--lattice=[[1e308,0],[0,1e308]]"])
@example(argv=["lattice", "reduce", f"--lattice={SUBNORMAL_AREA_LATTICES[-1]}"])
@example(argv=["bianchi", "census", "--d=2", "--pi=3,1", "--n-max=1", "--height=-1"])
@example(argv=["bianchi", "census", "--d=2", "--pi=3,1", "--n-max=1", f"--height={HUGE}"])
@example(argv=["bianchi", "census", "--d=2", "--pi=3,1", "--n-max=1", f"--height={10**8}"])
@example(argv=["bianchi", "census", "--d=2", "--pi=3,1", "--n-max=2", f"--height={2**61}"])
@example(argv=["bianchi", "census", "--d=2", "--pi=1,1", "--n-max=1", f"--height={2**62}"])
@example(argv=["bianchi", "census", "--d=2", "--pi=1,1", "--n-max=1",
               "--base-covolume=0.08333333333333333"])
@example(argv=["bianchi", "census", "--d=2", "--pi=1,1", "--n-max=2", "--base-covolume=0.0834",
               "--format=csv"])
@example(argv=["bianchi", "index", "--d=2", "--pi=3,1", "--n=2000"])
@example(argv=["bianchi", "index", "--d=2", "--pi=3,1", "--n=10000000"])
@example(argv=["bianchi", "split", "--d=2", f"--p={LARGE_NON_SPLIT_PRIME}"])
@example(argv=["bianchi", "split", "--d=2", f"--p={LARGE_SPLIT_PRIME}"])
@example(argv=["verify", "cubic", "--vc-points=3", "--margins-csv=/nonexistent/x.csv"])
@example(argv=["verify", "cubic", "--vc-points=3", "--ell-points=5", "--samples=3"])
@example(argv=["verify", "techlem2", "--vc-points=2", "--ell-points=2", "--seed=9"])
def test_any_command_line_exits_0_1_or_2_without_a_traceback(argv):
    # The grammar draws a flag of another claim only on verify command lines.
    flags = [a[2:].partition("=")[0] for a in argv[2:] if a.startswith("--")]
    own = {*CLAIM_FLAGS[argv[1]], *VERIFY_FLAGS} if argv[0] == "verify" else set(flags)
    foreign = next((f for f in flags if f not in own), None)
    with tempfile.TemporaryDirectory() as tmp:
        argv = [a.replace("{tmp}", tmp) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                code, refused = main(argv), False
            except SystemExit as exc:
                code, refused = exc.code, True
    assert code in (0, 1, 2)
    assert not caught, [str(w.message) for w in caught]
    assert "Traceback" not in err.getvalue()
    # argparse refuses exactly the command lines with a foreign flag, and names it.
    assert refused == (foreign is not None), err.getvalue()
    if refused:
        assert code == 2
        assert out.getvalue() == ""
        assert f"unrecognized arguments: --{foreign}=" in err.getvalue()
    elif code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("usage error: ")
        assert err.getvalue().count("\n") == 1
    if argv[:2] == ["lattice", "reduce"] and code == 0:
        # The area is a positive normal float: exact in json and csv, to 6 digits in human.
        fmt = argv[-1].partition("--format=")[2] or "human"
        text = out.getvalue()
        area = (json.loads(text)["area"] if fmt == "json" else text.split(",")[-1] if fmt == "csv"
                else text.split("area = ")[1])
        normal = float(format(sys.float_info.min, ".6g")) if fmt == "human" else sys.float_info.min
        assert float(area) >= normal, text
