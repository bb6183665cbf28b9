"""Do a run's set-up in a fresh interpreter, then print ``ready``.

``run.py`` times spawn-to-``ready`` several times per run for ``setup_s``.
Usage: python setup_probe.py WORKLOAD SEED [--tiny]
"""

import sys

from workloads import setup

if __name__ == "__main__":
    setup(sys.argv[1], int(sys.argv[2]), tiny="--tiny" in sys.argv[3:])
    sys.stdout.write("ready\n")
    sys.stdout.flush()
