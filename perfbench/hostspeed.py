"""Host speed: a fixed pure-Python reference kernel, timed between operations.

On a shared 2-vCPU host the same code runs up to 1.4x slower for phases that
last seconds to minutes, with no steal time to show for it: process CPU time
stretches as much as wall time.  Such a phase moves every timing of a run
together, so run-to-run spreads of raw wall time reach 0.2 to 0.35 of the
median, wider than any useful bound.

The untraced run therefore times this kernel just before and just after each
command, and scales the command's time by ``REFERENCE_S / median(kernel
times)``.  The result is the time the command would have taken at the
reference speed: seconds on a host on which one kernel takes
``REFERENCE_S``.  A change to sysbound cannot change the
kernel, so a slower or faster sysbound moves the scaled times as it moves the
raw ones; a slower or faster host phase moves both the operation and the
kernel, and cancels.  On 20 s windows of reduced techlem2, height-7 census
and length-lemma commands the scaling cut the spread of the window medians
from 0.13-0.21 to 0.03-0.04.
"""

from __future__ import annotations

import statistics
import time

# Median time of one kernel() on the reference host: 2-vCPU Intel Xeon at
# 2.1 GHz, Python 3.11.7.  Only the ratio of two runs' figures on one host
# matters, so the constant needs no retuning on another host.
REFERENCE_S = 0.009

SAMPLES = 5


def kernel() -> float:
    """Float arithmetic, a modulo and a dict store per step: the interpreter work
    that dominates sysbound's sweeps and enumerations."""
    total = 0.0
    table = {}
    for i in range(30000):
        x = i * 0.5
        total += (x * x) % 7.0
        table[i & 255] = total
    return total


def probe(samples: int = SAMPLES) -> list[float]:
    """Seconds taken by each of ``samples`` runs of the kernel."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return times


def scale(before: list[float], after: list[float]) -> float:
    """Factor from seconds measured between two probes to reference seconds."""
    return REFERENCE_S / statistics.median(before + after)
