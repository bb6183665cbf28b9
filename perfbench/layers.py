"""Per-layer measurements for the traced run.

Three sources, none of which runs inside the timed workloads:

* a microbenchmark pass: ns/call of public functions on fixed inputs, the
  minimum over repeats, with no wrappers installed;
* start-up: the bare-interpreter floor, and ``python -X importtime`` parsed
  into the import time of ``sysbound.cli`` and of numpy within it;
* the spans of a traced pass (see ``tracer.py``), reduced to per-claim and
  per-command figures.
"""

from __future__ import annotations

import operator
import subprocess
import sys
import time
import timeit

from workloads import CLI_MIX, ROOT, Op, census_height, child_env

REPEATS = 5

CLAIM_SPANS = {
    "techlem2": "certify.certify_cusp_trace_bound",
    "crossing": "certify.certify_crossing",
    "length-lemma": "certify.certify_length_lemma",
    "cubic": "certify.certify_cubic_claims",
}


def h8_height(tiny: bool) -> int:
    """Height of the direct enumeration call behind ``bianchi.enumerate.h8.s``.

    ``bianchi.enumerate.h10.*`` come from the exact-census workload's own
    enumeration, at ``census_height``.
    """
    return 2 if tiny else 8


def _ns_per_call(fn, args, repeats: int, min_total_s: float) -> float:
    names = [f"a{i}" for i in range(len(args))]
    timer = timeit.Timer(f"f({', '.join(names)})", globals={"f": fn, **dict(zip(names, args))})
    number = 1
    while timer.timeit(number) < min_total_s:
        number *= 10
    return min(timer.repeat(repeats, number)) / number * 1e9


def microbench(tiny: bool = False) -> dict[str, float]:
    """ns/call of the layer functions named in the README's layer table."""
    from sysbound import bianchi, bounds
    from sysbound.cusp import CuspLattice
    from sysbound.mobius import MoebiusElement

    g = MoebiusElement.from_trace(complex(3.0, 4.0))
    lattice = CuspLattice(complex(1.0, 0.1), complex(3.3, 2.2))
    level = bianchi.CongruenceLevel(bianchi.QuadInt(3, 1, 2), 1)
    matrix = bianchi.enumerate_congruence_elements(level, 1)[-1]
    x, y = bianchi.QuadInt(3, 1, 2), bianchi.QuadInt(5, -2, 2)
    cases = [
        ("bounds.min_trace_bound", bounds.min_trace_bound, (10.0, 50.0)),
        ("bounds.cusp_volume_trace_bound", bounds.cusp_volume_trace_bound, (50.0, False)),
        ("bounds.drilled_trace_bound", bounds.drilled_trace_bound, (30.0,)),
        ("bounds.filling_slope_trace_bound", bounds.filling_slope_trace_bound, (30.0, 10.0)),
        ("bounds.crossing_volume", bounds.crossing_volume, (10.0,)),
        ("bounds.BoundProfile", bounds.BoundProfile.from_volume, (10.0,)),
        ("bounds.lobachevsky", bounds.lobachevsky, (1.0,)),
        ("mobius.from_trace", MoebiusElement.from_trace, (complex(3.0, 4.0),)),
        ("mobius.classify", g.classify, ()),
        ("mobius.translation_length", g.translation_length, ()),
        ("cusp.reduce", lattice.reduce, ()),
        ("cusp.torus_diameter", lattice.torus_diameter, ()),
        ("bianchi.classify_exact", matrix.classify_exact, ()),
        ("bianchi.quadint_mul", operator.mul, (x, y)),
    ]
    repeats, min_total = (2, 0.001) if tiny else (REPEATS, 0.01)
    return {f"{name}.ns": _ns_per_call(fn, args, repeats, min_total) for name, fn, args in cases}


def cli_main_ops() -> list[Op]:
    """One fixed in-process command per cli-cold command kind."""
    return [Op(tuple(variants[0]) + ("--format", "json"), kind) for kind, variants in CLI_MIX.items()]


# ---------------------------------------------------------------------------
# start-up
# ---------------------------------------------------------------------------

def _run_python(args: list[str]) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=child_env(), cwd=ROOT, timeout=60, check=True)
    return time.perf_counter() - t0, proc.stderr


def parse_importtime(text: str) -> list[tuple[int, str, int]]:
    """(depth, module, cumulative us) per ``-X importtime`` line, in output order."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative)))
    return rows


def import_chain(rows: list[tuple[int, str, int]], module: str) -> list[str]:
    """The chain of imports that first pulled in ``module``, outermost first.

    importtime prints a module after everything it imported, so the
    ancestors of a line are the later lines of smaller depth.
    """
    for i, (depth, name, _) in enumerate(rows):
        if name == module:
            chain = [name]
            for later_depth, later_name, _ in rows[i + 1:]:
                if later_depth < depth:
                    chain.append(later_name)
                    depth = later_depth
            return chain[::-1]
    return []


def startup(tiny: bool = False) -> tuple[dict[str, float], list[str]]:
    """Interpreter floor and import breakdown, each the minimum over repeats."""
    repeats = 2 if tiny else REPEATS
    floor = min(_run_python(["-c", "pass"])[0] for _ in range(repeats))
    best_import = best_numpy = float("inf")
    chain: list[str] = []
    for _ in range(repeats):
        _, err = _run_python(["-X", "importtime", "-c", "import sysbound.cli"])
        rows = parse_importtime(err)
        top = min(depth for depth, _, _ in rows)
        total = sum(us for depth, name, us in rows
                    if depth == top and (name == "sysbound" or name.startswith("sysbound.")))
        numpy_us = next((us for _, name, us in rows if name == "numpy"), 0)
        best_import = min(best_import, total / 1e6)
        best_numpy = min(best_numpy, numpy_us / 1e6)
        chain = import_chain(rows, "numpy")
    metrics = {"cli.interpreter.s": floor, "cli.import.s": best_import, "cli.import.numpy_s": best_numpy}
    return metrics, chain


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

def _calls(span, prefix: str) -> int:
    return sum(count for name, (count, _) in span.calls.items() if name.startswith(prefix))


def from_spans(spans, tiny: bool = False) -> dict[str, float]:
    """Per-claim, enumeration and rendering figures from one traced pass."""
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    out: dict[str, float] = {}
    # grid-sweep runs techlem2 in slices; the other claims run once per pass.
    for claim, span_name in CLAIM_SPANS.items():
        claim_spans = by_name[span_name]
        points = sum(span.attrs["points"] for span in claim_spans)
        duration_ns = sum(span.duration_ns for span in claim_spans)
        out[f"certify.{claim}.s"] = duration_ns / 1e9
        out[f"certify.{claim}.points"] = points
        out[f"certify.{claim}.ns_per_point"] = duration_ns / points
        out[f"certify.{claim}.self_s"] = sum(span.self_ns for span in claim_spans) / 1e9
    out["certify.techlem2.bounds_calls"] = sum(
        _calls(span, "bounds.") for span in by_name[CLAIM_SPANS["techlem2"]])
    out["certify.length-lemma.mobius_calls"] = sum(
        _calls(span, "mobius.") for span in by_name[CLAIM_SPANS["length-lemma"]])

    enum = by_name["bianchi.enumerate_congruence_elements"]
    h8 = [s for s in enum if s.attrs["height"] == h8_height(tiny)]
    h10 = [s for s in enum if s.attrs["height"] == census_height(tiny)]
    out["bianchi.enumerate.h8.s"] = sum(s.duration_ns for s in h8) / 1e9
    out["bianchi.enumerate.h10.s"] = sum(s.duration_ns for s in h10) / 1e9
    out["bianchi.enumerate.h10.elements"] = sum(s.attrs["elements"] for s in h10)
    table = max(by_name["bianchi.systole_growth_table"], key=lambda s: s.attrs["rows"])
    out["bianchi.systole_growth_table.s"] = table.duration_ns / 1e9

    render = next(s for s in by_name["cli.main"]
                  if "length-lemma" in s.attrs["argv"] and "--margins-csv" in s.attrs["argv"])
    out["cli.render.margins_csv.s"] = render.self_ns / 1e9
    return out
