#!/usr/bin/env python3
"""Run every certification sweep at desk scale and save the evidence.

Writes one JSON report and one per-point margin CSV per claim into out/
(override with --out-dir), each claim at the defaults of
``sysbound verify <claim>``.  The margin CSVs are byte-identical to
``sysbound verify <claim> --margins-csv``; they are what to plot to see how
far from sharp each inequality runs.
"""

import argparse
import time
from pathlib import Path

from sysbound import certify


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=certify.DEFAULT_SEED)
    args = parser.parse_args()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    ok = True
    for name, claim in certify.CLAIMS.items():
        rows = []
        start = time.perf_counter()
        report = claim.run({**claim.defaults(), "jobs": args.jobs, "seed": args.seed}, rows)
        elapsed = time.perf_counter() - start
        (out_dir / f"{name}.json").write_text(report.to_json() + "\n")
        certify.write_margins_csv(out_dir / f"{name}-margins.csv", claim.header, rows)
        print(
            f"{name:14s} {report.status:4s}  worst margin {report.worst_margin:.6g} "
            f"({report.points_checked} points, {elapsed:.1f}s)"
        )
        ok &= report.passed
    raise SystemExit(0 if ok else 1)


if __name__ == "__main__":
    main()
