"""Record the golden outputs every benchmark operation is checked against.

Run once, at the commit whose outputs are the reference, from the root of a
checkout:

    python3 perfbench/record_goldens.py

It runs every operation any seed can produce, exactly as the benchmark runs
it, asserts the values pinned below, and writes ``perfbench/goldens.json``.
Re-recording is never a fix for a mismatch: a later commit whose output
differs has changed behaviour, and the benchmark counts that as an error.
"""

from __future__ import annotations

import json
import shutil
import sys

from workloads import (
    CLI_PREFIX,
    GOLDENS_PATH,
    OUT_DIR,
    TECHLEM2_DEFAULT_ARGV,
    all_inproc_ops,
    child_env,
    cli_pool,
    import_cli,
    make_plan,
    run_inproc,
    run_subprocess,
)

# Seed-commit values the goldens must contain.  The grid-sweep slices
# together must give the default grid's worst margin and point count.
TECHLEM2_KEY = " ".join(TECHLEM2_DEFAULT_ARGV)
TECHLEM2_PIN = {
    "worst_margin": 5.439542188638144,
    "worst_point": [17.094656273292166, 6.283185307179586],
    "points_checked": 2000000,
}
CENSUS_KEY = "bianchi census --d 2 --pi 3,1 --n-max 2 --height 10 --format json"
CENSUS_PIN = ("n=1: 42457 elements in box", "n=2: 6089 elements in box")


def check_pins(goldens: dict[str, dict]) -> None:
    report = json.loads(goldens[TECHLEM2_KEY]["stdout"])
    assert float(report["worst_margin"]) == TECHLEM2_PIN["worst_margin"], report
    assert [float(x) for x in report["worst_point"]] == TECHLEM2_PIN["worst_point"], report
    assert report["points_checked"] == TECHLEM2_PIN["points_checked"], report
    assert report["status"] == "pass", report
    slices = [json.loads(goldens[op.key]["stdout"]) for op in make_plan("grid-sweep", 0).iteration(0)]
    assert min(float(r["worst_margin"]) for r in slices) == TECHLEM2_PIN["worst_margin"], slices
    assert sum(r["points_checked"] for r in slices) == TECHLEM2_PIN["points_checked"], slices
    assert all(r["status"] == "pass" for r in slices), slices
    stderr = goldens[CENSUS_KEY]["stderr"].splitlines()
    assert [line.split(",")[0] for line in stderr] == list(CENSUS_PIN), stderr


def main() -> int:
    cli = import_cli()
    work_dir = OUT_DIR / "record"
    work_dir.mkdir(parents=True, exist_ok=True)
    goldens: dict[str, dict] = {}
    try:
        for op in all_inproc_ops(tiny=False) + all_inproc_ops(tiny=True):
            if op.key not in goldens:
                goldens[op.key] = run_inproc(cli, op, work_dir).to_golden()
        env = child_env()
        for op in cli_pool():
            goldens[op.key] = run_subprocess(op, work_dir, CLI_PREFIX, env).to_golden()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    bad = {k: g["code"] for k, g in goldens.items() if g["code"] != 0}
    if bad:
        print(f"operations that do not exit 0: {bad}", file=sys.stderr)
        return 1
    check_pins(goldens)
    with open(GOLDENS_PATH, "w") as fh:
        json.dump({"ops": goldens}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(goldens)} goldens to {GOLDENS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
