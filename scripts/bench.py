#!/usr/bin/env python3
"""Record one ``BENCH_<n>.json`` ledger entry: every perfbench workload, timed and traced.

Usage, from the root of the checkout to measure:

    python scripts/bench.py --seed 1 --seconds 20 --out BENCH_13.json [--tiny]

For each workload that BENCHMARK.json declares, this runs
``perfbench/run.py --trace 0`` (the end-to-end metrics) and then
``--trace 1`` (the per-layer ones), and writes one JSON object to ``--out``:
the commit (``git rev-parse HEAD``), whether the working tree had
uncommitted changes, the arguments, the line count of each
``src/sysbound/*.py`` and their total (``src_lines``), the sorted names of
``ALLOWED_UNCALLED`` in tests/test_reachability.py, the library functions
that no command reaches (``allowed_uncalled``), and per run its exit code,
the ``facts:`` line (machine, Python, numpy, load) and the final JSON line
(``correct``, ``attempted``, ``failed``, ``metrics``).

It measures the checkout it is started in, so a ledger for another commit
comes from running this script in a clean clone of that commit.  The exit
status is 1 when any run ends without a result or reports ``correct: false``;
the file is written either way.
"""

from __future__ import annotations

import argparse
import ast
import json
import subprocess
import sys
from pathlib import Path


def git(*args: str) -> str | None:
    try:
        proc = subprocess.run(["git", *args], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout


def src_lines() -> dict:
    """Newlines per ``src/sysbound/*.py``, and their total, as ``wc -l`` counts them."""
    files = {path.name: path.read_bytes().count(b"\n") for path in sorted(Path("src/sysbound").glob("*.py"))}
    return {"files": files, "total": sum(files.values())}


def allowed_uncalled() -> list[str]:
    """The sorted names in ``ALLOWED_UNCALLED`` of tests/test_reachability.py, read with ``ast``."""
    tree = ast.parse(Path("tests/test_reachability.py").read_text())
    return sorted(next(ast.literal_eval(node.value) for node in tree.body
                       if isinstance(node, ast.Assign)
                       and any(getattr(t, "id", None) == "ALLOWED_UNCALLED" for t in node.targets)))


def run_workload(workload: str, trace: int, args) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)  # stderr passes through
    lines = proc.stdout.splitlines()
    facts = next((json.loads(line[len("facts: "):]) for line in lines if line.startswith("facts: ")),
                 None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {"workload": workload, "trace": trace, "exit_code": proc.returncode, "facts": facts,
            "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true", help="perfbench self-test sizes")
    args = parser.parse_args(argv)
    if not Path("perfbench/run.py").is_file():
        parser.error("run from the root of a checkout: no perfbench/run.py here")
    workloads = [w["name"] for w in json.loads(Path("BENCHMARK.json").read_text())["workloads"]]
    head, status = git("rev-parse", "HEAD"), git("status", "--porcelain")
    ledger = {
        "commit": head.strip() if head else None,
        "dirty": None if status is None else bool(status.strip()),
        "seed": args.seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "src_lines": src_lines(),
        "allowed_uncalled": allowed_uncalled(),
        "runs": [],
    }
    for workload in workloads:
        for trace in (0, 1):
            run = run_workload(workload, trace, args)
            ledger["runs"].append(run)
            verdict = run["result"] and {k: run["result"][k] for k in ("correct", "attempted", "failed")}
            print(f"{workload} --trace {trace}: exit {run['exit_code']}, {verdict}", file=sys.stderr)
    args.out.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    return 0 if all(run["result"] and run["result"]["correct"] for run in ledger["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
