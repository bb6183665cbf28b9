#!/usr/bin/env python3
"""Checks the kernel that renders the reals of a margin file against ``%``.

``sysbound.cli._real_cells`` writes each real of a ``--margins-csv`` file as
the bytes of ``'%.17g' % (x + 0.0)``, but computes most of them with numpy
float64 arithmetic (an exact Dekker product and a rint).  This script compares
the two on about 4 million seeded doubles, in margin-file blocks of 4096 rows
of three, and exits 1 at the first real whose text differs.  The families are
the inputs where a 17-digit conversion can go wrong:

  * normals times 30 and log-uniform values from 1e-10 to 1e20, both signs;
  * integers up to 1e17;
  * each power of ten in [1e-5, 1e18] and its neighbours two ulps either
    way, which cross the 1e-4, 1e16 and 1e17 ends of fixed notation;
  * exact ties, doubles whose decimal expansion is D.5 * 10^(X - 16) with
    D a 17-digit integer, at every exponent X in [-4, 15] that has one;
  * raw bit patterns (subnormals, nan payloads) and +-0, DBL_MIN, DBL_MAX,
    nan and +-inf.

Run from the root of a checkout (about 7 s on a 2-vCPU x86-64 host):

    python scripts/check_real_cells.py
"""

import sys
from pathlib import Path

import numpy as np

# This checkout's package, whether or not one is installed or on PYTHONPATH.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from sysbound import cli  # noqa: E402

SEEDS = 16
FAMILY_SIZE = 50_000  # per random family and seed: 16 seeds come to about 4.0 million reals


def families(seed: int, size: int = FAMILY_SIZE) -> np.ndarray:
    """The seeded doubles of every family, in one array."""
    rng = np.random.default_rng(seed)
    sign = rng.choice([-1.0, 1.0], size)
    powers = np.array([float(f"1e{q}") for q in range(-5, 19)])
    near = [powers]
    for toward in (0.0, np.inf):
        step = powers
        for _ in range(2):
            step = np.nextafter(step, toward)
            near.append(step)
    # x * 10^(16 - X) = (2D + 1) / 2 for x = t / 2^(17 - X) when t = (2D + 1) / 5^(16 - X)
    # is odd; x is a double while t < 2^53, which leaves X = 16 without ties.
    ties = []
    for x10 in range(-4, 16):
        five = 5 ** (16 - x10)
        t_min, t_max = -(-2 * 10**16 // five), min(2 * 10**17 // five, 2**53)
        t = rng.integers(t_min, t_max, size // 20) | 1
        ties.append(np.ldexp(t[t < t_max].astype(float), x10 - 17))
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, np.nan, -np.nan, np.inf, -np.inf]
    return np.concatenate([
        rng.standard_normal(size) * 30,
        sign * 10.0 ** rng.uniform(-10, 20, size),
        rng.integers(-10**17, 10**17, size).astype(float),
        rng.integers(-1000, 1000, size // 10).astype(float),
        *near, *(-p for p in near),
        *ties, *(-t for t in ties),
        rng.integers(0, 2**64, size // 10, dtype=np.uint64).view(np.float64),
        special,
    ])


def first_mismatch(values: np.ndarray):
    """(real, kernel's text, ``%``'s text) of the first real of ``values`` that
    the kernel renders wrongly, or None; the reals go in rows of three."""
    rows = np.resize(values, (-(-len(values) // 3), 3))
    for i in range(0, len(rows), cli._CSV_BLOCK):
        block = rows[i:i + cli._CSV_BLOCK]
        want = "%.17g,%.17g,%.17g\n" * len(block) % tuple(x + 0.0 for x in block.ravel().tolist())
        got = cli._real_cells(block)
        if got != want:
            cells = zip(block.ravel().tolist(), got.replace("\n", ",").split(","),
                        want.replace("\n", ",").split(","))
            return next((cell for cell in cells if cell[1] != cell[2]), (None, got, want))
    return None


def main() -> int:
    checked = 0
    for seed in range(SEEDS):
        values = families(seed)
        bad = first_mismatch(values)
        if bad is not None:
            print(f"seed {seed}: {bad[0]!r} renders as {bad[1]!r}, '%.17g' gives {bad[2]!r}")
            return 1
        checked += len(values)
    print(f"{checked} reals in {SEEDS} seeds: every one has the bytes of '%.17g'")
    return 0


if __name__ == "__main__":
    sys.exit(main())
