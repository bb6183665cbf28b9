"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import hostspeed
import layers
import record_goldens
import run
import workloads
from tracer import Tracer

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def _run_py(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], capture_output=True,
                          text=True, cwd=cwd, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_of_each_workload_is_correct_and_complete(workload):
    proc = _run_py(workloads.ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.2",
                   "--trace", "0", "--tiny")
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_tiny_run_emits_every_per_layer_metric():
    proc = _run_py(workloads.ROOT, "--workload", "cli-cold", "--seed", "5", "--seconds", "0.2",
                   "--trace", "1", "--tiny")
    result = _result(proc)
    assert result["correct"], proc.stdout
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("per_layer")
    assert "import chain to numpy: sysbound.cli > sysbound > sysbound.certify > numpy" in proc.stdout


def test_one_corrupted_golden_byte_counts_as_an_error():
    goldens = workloads.load_goldens()
    op = workloads.make_plan("exact-census", 0, tiny=True).iteration(0)[1]
    stdout = goldens[op.key]["stdout"]
    corrupted = dict(goldens)
    corrupted[op.key] = dict(goldens[op.key], stdout=stdout[:-2] + chr(ord(stdout[-2]) ^ 1) + stdout[-1])
    result, lines = run.measure("exact-census", 0, 0.0, 0, tiny=True, goldens=corrupted)
    assert result["failed"] > 0 and not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    assert any(line.startswith("FAILED " + op.key) for line in lines)


def test_traced_and_untraced_runs_print_identical_outputs(tmp_path):
    cli = workloads.import_cli()
    goldens = workloads.load_goldens()
    ops = [op for w in ("grid-sweep", "sampled-sweeps", "exact-census")
           for op in workloads.make_plan(w, 2, tiny=True).iteration(0)]
    plain = [workloads.run_inproc(cli, op, tmp_path) for op in ops]
    with Tracer() as tracer:
        traced = [workloads.run_inproc(cli, op, tmp_path) for op in ops]
    assert len(tracer.spans) >= len(ops)
    for op, p, t in zip(ops, plain, traced):
        assert (p.code, p.stdout, p.stderr, p.csv_sha256) == (t.code, t.stdout, t.stderr, t.csv_sha256)
        assert t.matches(goldens[op.key]), op.key

    from sysbound import bounds, cli as cli_module
    assert not hasattr(bounds.min_trace_bound, "__wrapped__")
    assert not hasattr(cli_module.main, "__wrapped__")

    op = workloads.make_plan("cli-cold", 2, tiny=True).iteration(0)[0]
    spans = tmp_path / "child.jsonl"
    prefix = [sys.executable, str(workloads.BENCH_DIR / "trace_child.py"), str(spans)]
    child = workloads.run_subprocess(op, tmp_path, prefix, workloads.child_env())
    assert child.matches(goldens[op.key]), child
    names = [json.loads(line)["name"] for line in spans.read_text().splitlines()]
    assert names[:2] == ["root", "cli.main"]


def test_self_time_excludes_wrapped_children():
    workloads.import_cli()
    from sysbound import certify

    with Tracer() as tracer:
        certify.certify_cusp_trace_bound(certify.GridSpec(20.0, 40.0, 3, "log"), 20)
    (span,) = tracer.spans
    covered = sum(ns for name, (_, ns) in span.calls.items()
                  if name in ("bounds.min_trace_bound", "bounds.cusp_volume_trace_bound",
                              "bounds.adams_reid_trace_bound"))
    assert span.calls["bounds.min_trace_bound"][0] == 60
    assert span.self_ns == span.duration_ns - span.covered_ns
    assert 0 < span.covered_ns <= covered


def test_seed_commit_values_are_pinned_in_the_goldens():
    record_goldens.check_pins(workloads.load_goldens())


def test_perturbed_techlem2_bound_reports_fail():
    workloads.import_cli()
    assert run.perturbation_fails(tiny=False)


def test_host_speed_scale_is_the_reference_over_the_median_probe():
    assert hostspeed.scale([0.010, 0.030], [0.020]) == pytest.approx(hostspeed.REFERENCE_S / 0.020)
    times = hostspeed.probe(3)
    assert len(times) == 3 and all(t > 0 for t in times)


def test_importtime_parser_finds_the_chain_to_numpy():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |   _io",
        "import time:       500 |        600 |       numpy",
        "import time:        50 |        650 |     sysbound.certify",
        "import time:        40 |        700 |   sysbound",
        "import time:        30 |        730 | sysbound.cli",
    ])
    rows = layers.parse_importtime(text)
    assert rows[-1] == (1, "sysbound.cli", 730)
    assert layers.import_chain(rows, "numpy") == ["sysbound.cli", "sysbound", "sysbound.certify", "numpy"]
    assert layers.import_chain(rows, "scipy") == []


def test_checkout_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    for bench_path in BENCHMARK["paths"]:
        shutil.copytree(workloads.ROOT / bench_path, tmp_path / bench_path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_py(tmp_path, "--workload", "grid-sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
