"""Every metric of every workload, in one command.

From the root of a checkout:

    python3 perfbench/report.py --seed 1 --seconds 25

Runs ``run.py`` once per workload with tracing off, then once per workload
traced, each in its own process, and prints each run's summary: the
end-to-end metrics, then the per-layer metrics and the tracing overhead.
Further options (such as ``--tiny``) are passed on to ``run.py``.  Exits 1
if any run fails or reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from workloads import BENCH_DIR, ROOT, WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args, passthrough = parser.parse_known_args(argv)
    ok = True
    for trace in (0, 1):
        for workload in WORKLOADS:
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
                   *passthrough]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]) + "\n", flush=True)
            if proc.returncode != 0 or not json.loads(lines[-1])["correct"]:
                ok = False
                print(proc.stderr, file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
