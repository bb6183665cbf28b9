"""The four workloads, their seeded inputs, and how one operation is run.

Every operation is one ``sysbound`` command line.  ``grid-sweep``,
``sampled-sweeps`` and ``exact-census`` call ``sysbound.cli.main`` in the
benchmark's own process; ``cli-cold`` starts ``python -m sysbound`` once per
operation.  Each result is compared byte for byte with the golden recorded
from the seed commit (see ``record_goldens.py``): stdout, stderr, exit code
and, for ``--margins-csv``, the SHA-256 of the file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
GOLDENS_PATH = BENCH_DIR / "goldens.json"

WORKLOADS = ("grid-sweep", "sampled-sweeps", "exact-census", "cli-cold")

CSV_PLACEHOLDER = "{csv}"

# Goldens exist for these length-lemma seeds; the benchmark seed picks one.
LENGTH_LEMMA_SEEDS = 16

SUBPROCESS_TIMEOUT_S = 120

CLI_PREFIX = [sys.executable, "-m", "sysbound"]

# cli-cold draws each invocation from these variants, one command kind per
# slot of a pass, in a seeded order and with a seeded output format.
FORMATS = ("json", "csv", "human")
_M_LOX = "[[2,1],[0,0],[0,0],[0.4,-0.2]]"
_M_ELL = "[[0.5,0],[-0.75,0],[1,0],[0.5,0]]"
_M_SPH = "[[1,1],[2,0],[1,0],[3,1]]"
_M_SPH2 = "[[0,0],[-1,0],[1,0],[3,0]]"
_L1 = "[[1,0],[0.3,1.2]]"
_L2 = "[[2,0.5],[7.1,3.3]]"
_L3 = "[[5,0],[2.5,4.33]]"
CLI_MIX = {
    "bound": [
        ["bound", "cusped", "--volume", "2.0298832128193"],
        ["bound", "cusped", "--volume", "10"],
        ["bound", "cusped", "--volume", "123.5"],
        ["bound", "closed-link", "--volume", "0"],
        ["bound", "closed-link", "--volume", "0.9427"],
        ["bound", "closed-link", "--volume", "50"],
    ],
    "element": [
        ["element", "classify", "--matrix", _M_LOX],
        ["element", "classify", "--matrix", _M_ELL],
        ["element", "length", "--matrix", _M_LOX],
        ["element", "length", "--matrix", _M_SPH],
        ["element", "sphere", "--matrix", _M_SPH],
        ["element", "sphere", "--matrix", _M_SPH2],
    ],
    "lattice": [
        ["lattice", "reduce", "--lattice", _L1],
        ["lattice", "reduce", "--lattice", _L2],
        ["lattice", "waist", "--lattice", _L2],
        ["lattice", "diameter", "--lattice", _L1],
        ["lattice", "diameter", "--lattice", _L3],
    ],
    "bianchi-split": [
        ["bianchi", "split", "--d", "2", "--p", p] for p in ("3", "5", "11", "17", "19", "7")
    ],
    "bianchi-index": [
        ["bianchi", "index", "--d", "2", "--pi", "3,1", "--n", "1"],
        ["bianchi", "index", "--d", "2", "--pi", "3,1", "--n", "2"],
        ["bianchi", "index", "--d", "2", "--pi", "3,1", "--n", "7"],
        ["bianchi", "index", "--d", "2", "--pi", "1,1", "--n", "3"],
    ],
    "bianchi-ideals": [
        ["bianchi", "ideals", "--d", "2", "--max-modulus", m] for m in ("2", "5", "12")
    ],
    "verify-cubic": [
        ["verify", "cubic"],
        ["verify", "cubic", "--vc-points", "50"],
        ["verify", "cubic", "--vc-max", "1e4"],
    ],
}
CLI_MIN_OPS = 100
CLI_PASSES = 64  # passes generated in set-up; a run cycles through them

# grid-sweep covers the CLI's default techlem2 grid, 200 log-spaced cusp
# volumes from TECHLEM2_VC_MIN to TECHLEM2_VC_MAX, in TECHLEM2_SLICES
# commands of consecutive volumes.  One command takes about half a second, so
# the host-speed probes between commands follow the host's speed through the
# sweep (see hostspeed.py).  Slice k's end points are the default grid's
# points 10k and 10k+9, so slice 0 starts exactly at the default grid's worst
# point; the other points agree with the default grid to about 1e-15.
TECHLEM2_VC_MIN = 17.094656273292166  # bounds.MIN_CUSP_VOLUME_AT_WAIST_2PI
TECHLEM2_VC_MAX = 1e6
TECHLEM2_VC_POINTS = 200
TECHLEM2_SLICES = 20
TECHLEM2_DEFAULT_ARGV = ("verify", "techlem2", "--format", "json")

# The process-pool path of techlem2, on a reduced grid (traced run only).
JOBS2_ARGV = ("verify", "techlem2", "--vc-points", "20", "--jobs", "2", "--format", "json")


@dataclass(frozen=True)
class Op:
    """One command line; ``argv`` may hold CSV_PLACEHOLDER for --margins-csv."""

    argv: tuple[str, ...]
    label: str
    subprocess: bool = False

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def writes_csv(self) -> bool:
        return CSV_PLACEHOLDER in self.argv


def census_height(tiny: bool) -> int:
    """Enumeration height of the exact-census workload's cross-check."""
    return 3 if tiny else 10


def _inproc_ops(workload: str, seed: int, tiny: bool) -> list[Op]:
    def op(label, *argv):
        return Op(tuple(argv), label)

    if workload == "grid-sweep":
        if tiny:
            return [op("verify-techlem2", "verify", "techlem2", "--vc-points", "4",
                       "--ell-points", "50", "--format", "json")]
        return [op("verify-techlem2", "verify", "techlem2", "--vc-min", lo, "--vc-max", hi,
                   "--vc-points", str(n), "--format", "json")
                for lo, hi, n in techlem2_slices()]
    if workload == "sampled-sweeps":
        ll_seed = str(seed % LENGTH_LEMMA_SEEDS)
        ll = ("--samples", "500", "--sharpness-points", "50") if tiny else ()
        cr = ("--points", "4", "--monotonic-samples", "50") if tiny else ()
        cu = ("--vc-points", "10") if tiny else ()
        return [
            op("verify-length-lemma", "verify", "length-lemma", *ll, "--seed", ll_seed,
               "--margins-csv", CSV_PLACEHOLDER, "--format", "json"),
            op("verify-crossing", "verify", "crossing", *cr,
               "--margins-csv", CSV_PLACEHOLDER, "--format", "json"),
            op("verify-cubic", "verify", "cubic", *cu,
               "--margins-csv", CSV_PLACEHOLDER, "--format", "json"),
        ]
    if workload == "exact-census":
        height, n_max = str(census_height(tiny)), "5" if tiny else "60"
        census = ("bianchi", "census", "--d", "2", "--pi", "3,1")
        return [
            op("census-height", *census, "--n-max", "2", "--height", height, "--format", "json"),
            op("census-table", *census, "--n-max", n_max, "--format", "csv"),
            op("census-table-json", *census, "--n-max", n_max, "--format", "json"),
        ]
    raise ValueError(f"unknown in-process workload {workload!r}")


def techlem2_slices() -> list[tuple[str, str, int]]:
    """(vc-min, vc-max, vc-points) of each slice of the default techlem2 grid."""
    per = TECHLEM2_VC_POINTS // TECHLEM2_SLICES
    step = math.log(TECHLEM2_VC_MAX / TECHLEM2_VC_MIN) / (TECHLEM2_VC_POINTS - 1)

    def vc(i: int) -> float:
        if i == TECHLEM2_VC_POINTS - 1:
            return TECHLEM2_VC_MAX
        return TECHLEM2_VC_MIN * math.exp(i * step)

    return [(repr(vc(k * per)), repr(vc(k * per + per - 1)), per) for k in range(TECHLEM2_SLICES)]


def cli_pool() -> list[Op]:
    """Every cli-cold invocation the seeded mix can draw."""
    return [
        Op(tuple(argv) + ("--format", fmt), kind, subprocess=True)
        for kind, variants in CLI_MIX.items()
        for argv in variants
        for fmt in FORMATS
    ]


def _cli_passes(seed: int) -> list[list[Op]]:
    rng = random.Random(seed)
    kinds = list(CLI_MIX)
    passes = []
    for _ in range(CLI_PASSES):
        rng.shuffle(kinds)
        passes.append([
            Op(tuple(rng.choice(CLI_MIX[k])) + ("--format", rng.choice(FORMATS)), k, subprocess=True)
            for k in kinds
        ])
    return passes


@dataclass(frozen=True)
class Plan:
    """The seeded inputs of one workload run: iterations of operations."""

    iterations: tuple[tuple[Op, ...], ...]
    min_ops: int

    def iteration(self, i: int) -> tuple[Op, ...]:
        return self.iterations[i % len(self.iterations)]


def make_plan(workload: str, seed: int, tiny: bool = False) -> Plan:
    if workload == "cli-cold":
        passes = _cli_passes(seed)
        return Plan(tuple(tuple(p) for p in passes), len(passes[0]) if tiny else CLI_MIN_OPS)
    return Plan((tuple(_inproc_ops(workload, seed, tiny)),), 1)


def all_inproc_ops(tiny: bool) -> list[Op]:
    """Every in-process operation any seed can produce, for recording goldens."""
    ops: dict[str, Op] = {}
    for workload in ("grid-sweep", "exact-census"):
        ops.update((o.key, o) for o in _inproc_ops(workload, 0, tiny))
    for seed in range(LENGTH_LEMMA_SEEDS):
        ops.update((o.key, o) for o in _inproc_ops("sampled-sweeps", seed, tiny))
    if not tiny:
        ops[" ".join(JOBS2_ARGV)] = Op(JOBS2_ARGV, "verify-techlem2-jobs2")
        # The whole default grid in one command, for the pinned seed-commit values.
        ops[" ".join(TECHLEM2_DEFAULT_ARGV)] = Op(TECHLEM2_DEFAULT_ARGV, "verify-techlem2")
    return list(ops.values())


# ---------------------------------------------------------------------------
# running one operation
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    code: object
    stdout: str
    stderr: str
    csv_sha256: str | None
    seconds: float
    error: str | None = None

    def matches(self, golden: dict | None) -> bool:
        return (
            self.error is None
            and golden is not None
            and self.code == golden["code"]
            and self.stdout == golden["stdout"]
            and self.stderr == golden["stderr"]
            and self.csv_sha256 == golden["csv_sha256"]
        )

    def to_golden(self) -> dict:
        return {"code": self.code, "stdout": self.stdout, "stderr": self.stderr,
                "csv_sha256": self.csv_sha256}


def _resolve_argv(op: Op, work_dir: Path) -> tuple[list[str], Path | None]:
    if not op.writes_csv:
        return list(op.argv), None
    csv_path = work_dir / f"{op.label}.csv"
    return [str(csv_path) if a == CSV_PLACEHOLDER else a for a in op.argv], csv_path


def _digest(path: Path | None) -> str | None:
    if path is None:
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def run_inproc(cli, op: Op, work_dir: Path) -> Outcome:
    """Call ``cli.main`` with captured stdout/stderr; only the call is timed."""
    argv, csv_path = _resolve_argv(op, work_dir)
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    digest = _digest(csv_path) if error is None else None
    return Outcome(code, out.getvalue(), err.getvalue(), digest, seconds, error)


def run_subprocess(op: Op, work_dir: Path, prefix: list[str], env: dict[str, str]) -> Outcome:
    """Run ``prefix + argv`` in a fresh interpreter; spawn to exit is timed."""
    argv, csv_path = _resolve_argv(op, work_dir)
    t0 = time.perf_counter()
    proc = subprocess.Popen(prefix + argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=SUBPROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return Outcome(None, "", "", None, time.perf_counter() - t0, "timeout")
    seconds = time.perf_counter() - t0
    return Outcome(proc.returncode, out.decode("utf-8", "replace"), err.decode("utf-8", "replace"),
                   _digest(csv_path), seconds)


def load_goldens() -> dict[str, dict]:
    with open(GOLDENS_PATH) as fh:
        return json.load(fh)["ops"]


def import_cli():
    """Import ``sysbound.cli`` from this checkout's ``src``, and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sysbound.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"sysbound imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload: str, seed: int, tiny: bool = False):
    """What a run does before its first timed operation."""
    cli = import_cli()
    goldens = load_goldens()
    plan = make_plan(workload, seed, tiny)
    return cli, goldens, plan
