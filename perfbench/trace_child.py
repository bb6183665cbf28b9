"""Run one sysbound command line under the tracer, in a fresh interpreter.

Usage: python trace_child.py SPANS.jsonl ARGV...
Behaves like ``python -m sysbound ARGV...`` (same stdout, stderr and exit
code) and appends its spans to SPANS.jsonl when the command ends.
"""

import sys

from tracer import Tracer

if __name__ == "__main__":
    import sysbound.cli

    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    code = 1
    try:
        with tracer:
            code = sysbound.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        tracer.write(spans_path)
    sys.exit(code)
