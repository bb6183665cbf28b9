"""Every function of ``src/sysbound`` is reached by a golden command line, or
named below with the reason it stays.

The golden command lines of ``test_cli_golden`` run in a fresh interpreter
under ``sys.setprofile``, installed before ``import sysbound``, so that calls
made at import and the cached parser build count whatever ran before.  A
function is a ``def`` at module level or in a class body; dataclass-generated
methods, nested functions, lambdas and comprehensions are not counted.

When this fails on a new function, delete it, add a golden case that reaches
it, or add it to ``ALLOWED_UNCALLED`` with the reason.  When it fails on an
allowlisted function that is now called, take it off the list.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import sysbound

PACKAGE = Path(sysbound.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

ALLOWED_UNCALLED = {
    "cli.entry",  # the console script: main, and exit 1 on a closed stdout pipe, which
    # test_cli's test_a_closed_stdout_pipe_exits_1_without_a_traceback runs
    # the scalar reference of the crossing sweep's array twin, certify._crossing_trace_bounds,
    # which test_certify checks them against; perfbench's microbenchmarks call them
    "bounds.drilled_trace_bound",
    "bounds.filling_slope_trace_bound",
    # perfbench's bounds.lobachevsky.ns microbenchmark calls these two
    "bounds.lobachevsky",
    "bounds._zeta_ratios",
    # the length kernel's element path, which only a lane with an entry part of DBL_MAX/4
    # or more takes, and no golden line draws; perfbench's tracer and microbenchmark name them
    "mobius.MoebiusElement.from_trace",
    "mobius._eigenvalue",
    # the reference that test_bianchi checks the census's counts per trace against, and
    # test_acceptance's criterion 9 the trace bound on; perfbench's h8 and classify_exact
    # probes call it
    "bianchi.enumerate_congruence_elements",
}

_PROFILE_GOLDENS = """
import json, sys, tempfile
from pathlib import Path
sys.path[:0] = sys.argv[1:]
called = set()
def profile(frame, event, arg):
    if event == "call":
        called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
sys.setprofile(profile)
import sysbound
import test_cli_golden
with tempfile.TemporaryDirectory() as tmp:
    for argv in test_cli_golden.CASES:
        test_cli_golden.run_case(argv, Path(tmp))
sys.setprofile(None)
json.dump(sorted(called), sys.stdout)
"""


def _functions(path: Path):
    """(qualified name, first lines) of each module- and class-level def in path:
    the def line, and the first decorator's, where a code object may start."""
    def walk(body, prefix):
        for node in body:
            if isinstance(node, ast.FunctionDef):
                lines = {node.lineno, *(d.lineno for d in node.decorator_list)}
                yield f"{prefix}{node.name}", lines
            elif isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}{node.name}.")

    yield from walk(ast.parse(path.read_text()).body, f"{path.stem}.")


def test_every_uncalled_function_is_allowlisted():
    out = subprocess.run([sys.executable, "-c", _PROFILE_GOLDENS, str(PACKAGE.parent), str(TESTS)],
                         capture_output=True, text=True, check=True).stdout
    called = {(str(Path(name).resolve()), line) for name, line in json.loads(out)}
    uncalled = {
        name
        for path in sorted(PACKAGE.glob("*.py"))
        for name, lines in _functions(path)
        if not any((str(path), line) in called for line in lines)
    }
    assert uncalled == ALLOWED_UNCALLED, (
        f"called by no golden command line and not allowlisted: {sorted(uncalled - ALLOWED_UNCALLED)}; "
        f"allowlisted but called: {sorted(ALLOWED_UNCALLED - uncalled)}")
