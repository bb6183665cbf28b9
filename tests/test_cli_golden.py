"""Byte-for-byte goldens of the command line.

Every case runs ``sysbound.cli.main`` in process and compares its exit code,
stdout, stderr and, for ``--margins-csv``, the SHA-256 of the written file
with ``cli_goldens.json``.  The goldens pin the output of every subcommand
and action in every format, the exit-1 and exit-2 paths, and the per-point
margin files, so a refactor of the CLI can be shown to change no byte.

Re-record (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from sysbound.cli import main

GOLDENS_PATH = Path(__file__).with_name("cli_goldens.json")
CSV = "{csv}"
CFG = "{cfg}"

# Config files available to the cases as {cfg}<name>.
CONFIGS = {
    "grid": "# preset grid\nvc-min = 17.1\nvc-max = 100\nvc-points = 4\nell-points = 30\n",
    "bad-value": "vc-points = many\n",
    "bad-line": "vc-points\n",
    "bad-scale": "vc-scale = cubic\nvc-min = 17.1\nvc-max = 100\nvc-points = 4\nell-points = 30\n",
    "crossing": "v-min = 0.5\nv-max = 50\npoints = 4\nmonotonic-samples = 40\nrel-tol = 1e-9\n",
    "length": "samples = 300\nr-max = 20\nseed = 5\nsharpness-points = 30\n",
    "misspelled": "vc-mni = 100\nvc-points = 3\n",
}

FORMATS = ("json", "csv", "human")

M_LOX = "[[2,1],[0,0],[0,0],[0.4,-0.2]]"
M_PAR = "[[1,0],[1,0],[0,0],[1,0]]"
M_ELL = "[[0.5,0],[-0.75,0],[1,0],[0.5,0]]"
M_SPH = "[[1,1],[2,0],[1,0],[3,1]]"
M_NEG_ZERO = "[[0,0],[-1,0],[1,0],[-0.0,0]]"  # sphere centre 0, imaginary part -0
M_NEG_ZERO_IM = "[[0,0],[-1,0],[1,0],[-3,0]]"  # sphere centre 3, imaginary part -0

TECHLEM2 = ["verify", "techlem2", "--vc-min", "17.1", "--vc-max", "100",
            "--vc-points", "4", "--ell-points", "50"]
CROSSING = ["verify", "crossing", "--v-min", "0.5", "--v-max", "50", "--points", "5",
            "--monotonic-samples", "50"]
LENGTH = ["verify", "length-lemma", "--samples", "500", "--r-max", "30", "--seed", "9",
          "--sharpness-points", "50"]
CUBIC = ["verify", "cubic", "--vc-min", "2", "--vc-max", "100", "--vc-points", "5"]
CENSUS = ["bianchi", "census", "--d", "2", "--pi", "3,1"]


def _in_formats(*argvs):
    return [list(argv) + ["--format", fmt] for argv in argvs for fmt in FORMATS]


CASES = [
    # bound
    *_in_formats(
        ["bound", "closed-link", "--volume", "0"],
        ["bound", "closed-link", "--volume", "2.5"],
        ["bound", "cusped", "--volume", "1"],
        ["bound", "cusped", "--volume", "1e6"],
    ),
    ["bound", "cusped", "--volume", "0"],
    ["bound", "closed-link", "--volume", "-1"],
    # element
    *_in_formats(
        ["element", "classify", "--matrix", M_LOX],
        ["element", "classify", "--matrix", M_PAR],
        ["element", "classify", "--matrix", M_ELL],
        ["element", "length", "--matrix", M_LOX],
        ["element", "sphere", "--matrix", M_SPH],
        ["element", "sphere", "--matrix", M_NEG_ZERO],
        ["element", "sphere", "--matrix", M_NEG_ZERO_IM],
    ),
    ["element", "length", "--matrix", M_PAR],
    ["element", "length", "--matrix", M_ELL, "--format", "json"],
    ["element", "sphere", "--matrix", M_PAR],
    ["element", "classify", "--matrix", "not json"],
    ["element", "classify", "--matrix", "[[1,0],[1,0]]"],
    ["element", "classify", "--matrix", "[[1,0],[1,0],[1,0],[true,0]]"],
    ["element", "classify", "--matrix", "[[1,0],[1,0],[1,0],[1,0]]"],
    # lattice
    *_in_formats(
        ["lattice", "reduce", "--lattice", "[[1,0],[3.5,2]]"],
        ["lattice", "reduce", "--lattice", "[[2,0.5],[7.1,3.3]]"],
        ["lattice", "waist", "--lattice", "[[2,0.5],[7.1,3.3]]"],
        ["lattice", "diameter", "--lattice", "[[1,0],[0.3,1.2]]"],
    ),
    ["lattice", "waist", "--lattice", "[[1,0],[2,0]]"],
    ["lattice", "reduce", "--lattice", "[[1,0]]"],
    # verify: every claim in every format, with its margin file
    *_in_formats(
        TECHLEM2 + ["--margins-csv", CSV],
        CROSSING + ["--margins-csv", CSV],
        LENGTH + ["--margins-csv", CSV],
        CUBIC + ["--margins-csv", CSV],
    ),
    TECHLEM2 + ["--jobs", "2", "--margins-csv", CSV, "--format", "json"],
    CROSSING + ["--jobs", "2", "--margins-csv", CSV, "--format", "csv"],
    ["verify", "techlem2", "--vc-min", "1", "--vc-max", "30", "--vc-points", "4",
     "--ell-points", "10", "--probe", "--margins-csv", CSV, "--format", "json"],
    ["verify", "techlem2", "--vc-min", "1", "--vc-max", "30", "--vc-points", "4"],
    ["verify", "techlem2", "--vc-scale", "linear", "--vc-min", "17.1", "--vc-max", "40",
     "--vc-points", "3", "--ell-points", "20"],
    ["verify", "crossing", "--v-min", "0.5", "--v-max", "50", "--points", "3",
     "--monotonic-samples", "50", "--rel-tol", "1e-18", "--margins-csv", CSV, "--format", "json"],
    ["verify", "crossing", "--v-min", "0.5", "--v-max", "50", "--points", "3",
     "--monotonic-samples", "50", "--rel-tol", "1e-18"],
    ["verify", "crossing", "--v-min", "0", "--v-max", "1", "--scale", "linear"],
    ["verify", "length-lemma", "--samples", "10", "--r-max", "0", "--margins-csv", CSV,
     "--format", "json"],
    ["verify", "length-lemma", "--samples", "0"],
    ["verify", "length-lemma", "--samples", "9223372036854775807", "--margins-csv", CSV],
    ["verify", "length-lemma", "--seed", "-1"],
    ["verify", "length-lemma", "--samples", "200", "--r-max", "5", "--sharpness-points", "20",
     "--format", "csv"],
    ["verify", "cubic", "--vc-min", "0", "--vc-max", "10", "--vc-scale", "linear",
     "--vc-points", "3", "--margins-csv", CSV, "--format", "json"],
    ["verify", "cubic", "--vc-min", "1e100", "--vc-max", "1e150", "--vc-points", "4"],
    ["verify", "techlem2", "--config", CFG + "grid", "--format", "json"],
    ["verify", "techlem2", "--config", CFG + "grid", "--ell-points", "10", "--format", "csv"],
    ["verify", "cubic", "--config", CFG + "grid"],
    ["verify", "crossing", "--config", CFG + "crossing", "--format", "json"],
    ["verify", "length-lemma", "--config", CFG + "length", "--margins-csv", CSV],
    ["verify", "length-lemma", "--config", CFG + "length", "--seed", "6"],
    ["verify", "techlem2", "--config", CFG + "bad-value"],
    ["verify", "techlem2", "--config", CFG + "bad-line"],
    ["verify", "techlem2", "--config", CFG + "bad-scale"],
    ["verify", "crossing", "--config", CFG + "bad-value", "--points", "3"],
    ["verify", "techlem2", "--config", CFG + "missing"],
    ["verify", "cubic", "--config", CFG + "misspelled"],
    ["verify", "techlem2", "--vc-min", "100", "--vc-max", "10"],
    ["verify", "techlem2", "--vc-min", "17.1", "--vc-max", "100", "--vc-points", "1"],
    ["verify", "techlem2", "--vc-min", "17.1", "--vc-max", "100", "--vc-points", "2",
     "--ell-points", "1"],
    ["verify", "techlem2", "--vc-min", "10", "--vc-max", "100", "--vc-points", "4",
     "--ell-points", "20", "--format", "json"],
    ["verify", "cubic", "--vc-min", "0", "--vc-max", "10"],
    # a count past the float64 lanes of one array
    ["verify", "cubic", "--vc-points", "9223372036854775807"],
    # a count at that limit, which numpy refuses with its own ValueError
    ["verify", "cubic", "--vc-points", "1152921504606846975"],
    # bianchi
    *_in_formats(
        ["bianchi", "split", "--d", "2", "--p", "11"],
        ["bianchi", "split", "--d", "2", "--p", "5"],
        ["bianchi", "split", "--d", "2", "--p", "2"],
        ["bianchi", "index", "--d", "2", "--pi", "3,1", "--n", "2"],
        CENSUS + ["--n-max", "3"],
        CENSUS + ["--n-max", "2", "--height", "2"],
        ["bianchi", "census", "--d", "1", "--pi", "2,1", "--n-max", "2",
         "--base-covolume", "0.3053"],
        ["bianchi", "ideals", "--d", "2", "--max-modulus", "2"],
        ["bianchi", "ideals", "--d", "1", "--max-modulus", "1.5"],
    ),
    ["bianchi", "split", "--d", "2", "--p", "5", "--require-split"],
    ["bianchi", "split", "--d", "2", "--p", "11", "--require-split", "--format", "json"],
    ["bianchi", "split", "--d", "2"],
    ["bianchi", "split", "--d", "2", "--p", "4"],
    ["bianchi", "split", "--d", "0", "--p", "5"],
    ["bianchi", "index", "--d", "2", "--pi", "0,1", "--n", "1"],
    ["bianchi", "index", "--d", "2", "--pi", "3,1", "--n", "0"],
    ["bianchi", "index", "--d", "2"],
    ["bianchi", "index", "--d", "2", "--pi", "three"],
    ["bianchi", "index", "--d", "0", "--pi", "3,1"],
    # N(pi) = 318665857834031151167461, where Miller-Rabin on the first 12 primes proves nothing
    ["bianchi", "index", "--d", "1", "--pi=531485733169,190233470430"],
    CENSUS + ["--n-max", "2", "--height", "5", "--format", "json"],
    ["bianchi", "census", "--d", "1", "--pi", "1,1", "--n-max", "1"],
    CENSUS + ["--n-max", "1", "--base-covolume", "-1"],
    # N(pi) = 6 is not an odd prime and the base is negative: the norm is refused first
    ["bianchi", "census", "--d", "2", "--pi", "2,1", "--base-covolume", "-1"],
    # a cover volume past the doubles: an index past them, and a product past them
    CENSUS + ["--n-max", "99"],
    CENSUS + ["--n-max", "1", "--base-covolume", "1e308"],
    ["bianchi", "census", "--d", "2"],
    ["bianchi", "ideals", "--d", "2", "--max-modulus", "0.5"],
    ["bianchi", "ideals", "--d", "4"],
    # argparse rejections
    [],
    ["bogus"],
    ["bound", "cusped"],
    ["bound", "cusped", "--volume", "x"],
    ["element", "spin", "--matrix", M_LOX],
    ["verify", "nope"],
    ["verify", "techlem2", "--vc-scale", "cubic"],
    ["verify", "techlem2", "--vc-points", "x"],
    ["verify", "cubic", "--format", "xml"],
    ["verify", "--help"],
    ["verify", "length-lemma", "--help"],
    ["bianchi", "split", "--p", "5"],
    # a flag that the claim or action does not take, before it, or abbreviated
    *(["verify", claim, "--seed", "1"] for claim in ("techlem2", "crossing", "cubic")),
    ["verify", "crossing", "--vc-min", "20"],
    ["bianchi", "split", "--d", "2", "--p", "11", "--height", "3"],
    ["bianchi", "index", "--d", "2", "--pi", "3,1", "--n-max", "3"],
    CENSUS + ["--n", "2"],
    ["bianchi", "ideals", "--d", "2", "--pi", "3,1"],
    ["verify", "--vc-points", "3", "cubic"],
    ["verify", "--vc-points=3", "cubic"],
    ["bianchi", "--d=2", "split", "--p", "5"],
    ["bound", "cusped", "--vol", "1"],
    ["verify", "techlem2", "--vc-poi", "3"],
]

# argparse's own messages differ between Python minor versions; for cases
# that argparse rejects (or answers with --help) the text is compared only
# on the Python version the goldens were recorded with.
_ARGPARSE_EXIT = "argparse"


def case_id(argv) -> str:
    return " ".join(argv) if argv else "(no arguments)"


def run_case(argv, work_dir: Path) -> dict:
    """Run one case; return its exit code, output and margin-file digest."""
    for name, text in CONFIGS.items():
        (work_dir / f"{name}.cfg").write_text(text)
    csv_path = work_dir / "margins.csv"
    csv_path.unlink(missing_ok=True)
    resolved = [
        str(csv_path) if a == CSV else str(work_dir / f"{a[len(CFG):]}.cfg") if a.startswith(CFG) else a
        for a in argv
    ]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(resolved)
        except SystemExit as exc:
            code = {"exit": exc.code, "by": _ARGPARSE_EXIT}
    digest = hashlib.sha256(csv_path.read_bytes()).hexdigest() if csv_path.exists() else None
    stdout, stderr = out.getvalue(), err.getvalue()
    return {"code": code, "stdout": stdout.replace(str(work_dir), "<tmp>"),
            "stderr": stderr.replace(str(work_dir), "<tmp>"), "csv_sha256": digest}


def _python() -> str:
    return f"{sys.version_info.major}.{sys.version_info.minor}"


def _load() -> dict:
    return json.loads(GOLDENS_PATH.read_text())


def test_goldens_cover_every_case():
    assert sorted(_load()["cases"]) == sorted(case_id(argv) for argv in CASES)
    assert len({case_id(argv) for argv in CASES}) == len(CASES)


@pytest.mark.parametrize("argv", CASES, ids=case_id)
def test_cli_matches_golden(argv, tmp_path):
    goldens = _load()
    expected = goldens["cases"][case_id(argv)]
    got = run_case(argv, tmp_path)
    if isinstance(expected["code"], dict) and goldens["python"] != _python():
        assert got["code"] == expected["code"]
        return
    assert got == expected


def _record() -> None:
    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        for argv in CASES:
            cases[case_id(argv)] = run_case(argv, Path(tmp))
    GOLDENS_PATH.write_text(json.dumps({"python": _python(), "cases": cases}, indent=1,
                                       sort_keys=True, ensure_ascii=False) + "\n")
    print(f"recorded {len(cases)} cases into {GOLDENS_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: test_cli_golden.py --record")
    _record()
