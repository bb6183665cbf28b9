"""sysbound benchmark: one workload, timed (``--trace 0``) or traced (``--trace 1``).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid-sweep --seed 1 --seconds 20 --trace 0

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a human
summary.  With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json, with ``--trace 1`` the per-layer ones.  The run exits 2
without a result when the checkout holds no ``src/sysbound``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from workloads import (
    BENCH_DIR,
    CLI_PREFIX,
    JOBS2_ARGV,
    OUT_DIR,
    ROOT,
    SRC,
    WORKLOADS,
    Op,
    child_env,
    make_plan,
    run_inproc,
    run_subprocess,
    setup,
)

SETUP_PROBES = 9
MIN_ITERATIONS = 3
PERTURBATION_SCALE = 0.99


class Tally:
    """Attempted and failed operations; a failure is any mismatch with its golden."""

    def __init__(self, goldens: dict[str, dict]):
        self.goldens = goldens
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def check(self, op: Op, outcome) -> None:
        reason = outcome.error or "output differs from golden"
        self.expect(outcome.matches(self.goldens.get(op.key)), f"{op.key}: {reason}")


def machine_facts(seed: int) -> dict:
    try:
        with open("/proc/cpuinfo") as fh:
            cpuinfo = fh.read().splitlines()
    except OSError:
        cpuinfo = []
    cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name")),
               platform.processor())
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "seed": seed,
    }


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_seconds(workload: str, seed: int, tiny: bool) -> tuple[float, float]:
    """Median time from spawning a fresh interpreter to the end of set-up.

    Returns it in reference seconds (see ``hostspeed``) and unscaled.
    """
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)]
    cmd += ["--tiny"] if tiny else []
    scaled, raw = [], []
    before = hostspeed.probe()
    for _ in range(2 if tiny else SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
        line = proc.stdout.readline()
        raw.append(time.perf_counter() - t0)
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line != b"ready\n":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        after = hostspeed.probe()
        scaled.append(raw[-1] * hostspeed.scale(before, after))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def perturbation_fails(tiny: bool) -> bool:
    """The techlem2 sweep with the bound scaled by 0.99 must report fail."""
    from sysbound import bounds, certify

    grid = certify.GridSpec(bounds.MIN_CUSP_VOLUME_AT_WAIST_2PI, 1e6, 4 if tiny else 20, "log")
    report = certify.certify_cusp_trace_bound(grid, 50 if tiny else 500, bound_scale=PERTURBATION_SCALE)
    return report.status == "fail"


def _executor(cli, work_dir: Path, prefix: list[str]):
    env = child_env()

    def execute(op: Op):
        if op.subprocess:
            return run_subprocess(op, work_dir, prefix, env)
        return run_inproc(cli, op, work_dir)

    return execute


def run_iteration(ops, execute, tally: Tally) -> float:
    """Run ops in order; return the summed time of the operations themselves."""
    wall = 0.0
    for op in ops:
        outcome = execute(op)
        tally.check(op, outcome)
        wall += outcome.seconds
    return wall


def timed(workload: str, seed: int, seconds: float, tiny: bool, work_dir: Path,
          goldens: dict | None = None) -> tuple[Tally, dict, list[str]]:
    """Closed loop, one client: iterations until ``seconds`` have passed.

    Each command's time is scaled to reference seconds by the host-speed
    probes taken just before and just after it (see ``hostspeed``).
    """
    cli, recorded, plan = setup(workload, seed, tiny)
    tally = Tally(goldens if goldens is not None else recorded)
    execute = _executor(cli, work_dir, CLI_PREFIX)
    walls: list[float] = []
    latencies: list[float] = []
    raw_walls: list[float] = []
    raw_latencies: list[float] = []
    factors: list[float] = []
    start = time.perf_counter()
    before = hostspeed.probe()
    while (time.perf_counter() - start < seconds or len(latencies) < plan.min_ops
           or len(walls) < (1 if tiny else MIN_ITERATIONS)):
        wall = raw_wall = 0.0
        for op in plan.iteration(len(walls)):
            outcome = execute(op)
            after = hostspeed.probe()
            factor = hostspeed.scale(before, after)
            before = after
            tally.check(op, outcome)
            factors.append(factor)
            raw_latencies.append(outcome.seconds)
            latencies.append(outcome.seconds * factor)
            raw_wall += outcome.seconds
            wall += outcome.seconds * factor
        raw_walls.append(raw_wall)
        walls.append(wall)
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    if workload == "grid-sweep":
        tally.expect(perturbation_fails(tiny), f"bound_scale={PERTURBATION_SCALE} did not report fail")
    setup_s, raw_setup_s = setup_seconds(workload, seed, tiny)
    metrics = {
        "wall_s": statistics.median(walls),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": _percentile(latencies, 90) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = [
        f"iterations: {len(walls)}; latency samples: {len(latencies)}",
        f"host speed factor (reference s per measured s): median {statistics.median(factors):.4g}, "
        f"range {min(factors):.4g} to {max(factors):.4g}",
        f"unscaled: wall_s {statistics.median(raw_walls)!r}, "
        f"latency_p50_ms {statistics.median(raw_latencies) * 1e3!r}, "
        f"latency_p90_ms {_percentile(raw_latencies, 90) * 1e3!r}, setup_s {raw_setup_s!r}",
    ]
    return tally, metrics, notes


def traced(workload: str, seed: int, tiny: bool, work_dir: Path,
           trace_path: Path) -> tuple[Tally, dict, list[str]]:
    """Per-layer figures: start-up, microbenchmarks, and one traced pass."""
    import layers
    from tracer import Tracer

    cli, goldens, plan = setup(workload, seed, tiny)
    tally = Tally(goldens)
    metrics, chain = layers.startup(tiny)
    metrics.update(layers.microbench(tiny))
    for op in layers.cli_main_ops():
        outcomes = [run_inproc(cli, op, work_dir) for _ in range(2 if tiny else layers.REPEATS)]
        for outcome in outcomes:
            tally.check(op, outcome)
        metrics[f"cli.main.{op.label}.ms"] = min(o.seconds for o in outcomes) * 1e3
    jobs2 = Op(JOBS2_ARGV, "verify-techlem2-jobs2")
    outcome = run_inproc(cli, jobs2, work_dir)
    tally.check(jobs2, outcome)
    metrics["certify.techlem2.jobs2_s"] = outcome.seconds
    tally.expect(perturbation_fails(tiny), f"bound_scale={PERTURBATION_SCALE} did not report fail")

    untraced_wall = run_iteration(plan.iteration(0), _executor(cli, work_dir, CLI_PREFIX), tally)

    child_spans = work_dir / "children.jsonl"
    traced_prefix = [sys.executable, str(BENCH_DIR / "trace_child.py"), str(child_spans)]
    execute = _executor(cli, work_dir, traced_prefix)
    traced_walls = {}
    tracer = Tracer()
    with tracer:
        for name in WORKLOADS:
            ops = (plan if name == workload else make_plan(name, seed, tiny)).iteration(0)
            traced_walls[name] = run_iteration(ops, execute, tally)
        from sysbound import bianchi

        level = bianchi.CongruenceLevel(bianchi.QuadInt(3, 1, 2), 1)
        bianchi.enumerate_congruence_elements(level, layers.h8_height(tiny))
    metrics.update(layers.from_spans(tracer.spans, tiny))
    metrics["trace.overhead_s"] = traced_walls[workload] - untraced_wall

    tracer.write(trace_path, header={"workload": workload, "seed": seed, "process": "benchmark"})
    if child_spans.exists():
        with open(trace_path, "a") as fh:
            fh.write(json.dumps({"process": "cli-cold children, one root span each"}) + "\n")
            fh.write(child_spans.read_text())
    notes = [
        f"tracing overhead on {workload}: {metrics['trace.overhead_s']:.6g} s "
        f"over an untraced {untraced_wall:.6g} s",
        "import chain to numpy: " + (" > ".join(chain) if chain else "numpy not imported"),
        f"spans: {trace_path.relative_to(ROOT)}",
    ]
    return tally, metrics, notes


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("ns_per_point"):
        return "ns/point"
    if name.endswith((".points", "_calls", ".elements")):
        return "count"
    if name.endswith(".ns"):
        return "ns"
    if name.endswith(("_ms", ".ms")):
        return "ms"
    return "s"


def measure(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False,
            goldens: dict | None = None) -> tuple[dict, list[str]]:
    """Run one workload; return the result object and the summary lines."""
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"run-{os.getpid()}"
    work_dir.mkdir()
    load_start = os.getloadavg()
    try:
        if trace:
            trace_path = OUT_DIR / f"trace-{workload}-seed{seed}{'-tiny' if tiny else ''}.jsonl"
            trace_path.unlink(missing_ok=True)
            tally, metrics, notes = traced(workload, seed, tiny, work_dir, trace_path)
        else:
            tally, metrics, notes = timed(workload, seed, seconds, tiny, work_dir, goldens)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    facts = machine_facts(seed) | {"loadavg_start": load_start, "loadavg_end": os.getloadavg()}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    lines = [f"perfbench {workload} seed={seed} seconds={seconds} trace={trace}",
             "facts: " + json.dumps(facts, sort_keys=True)]
    lines += [f"{name} = {value!r} {unit_of(name)}" for name, value in metrics.items()]
    lines += notes
    lines.append(f"error_rate = {tally.failed / tally.attempted!r} "
                 f"({tally.failed} failed of {tally.attempted} attempted)")
    lines += [f"FAILED {what}" for what in tally.failures[:10]]
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes; not a benchmark result")
    args = parser.parse_args(argv)
    if not (SRC / "sysbound" / "cli.py").is_file():
        print(f"perfbench: no sysbound sources under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(BENCH_DIR, quiet=1, maxlevels=0)
    result, lines = measure(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
