#!/usr/bin/env python3
"""High-precision provenance for the frozen constants.

Recomputes, at 30+ digits with mpmath, every constant the package freezes
at double precision, and checks the frozen values against them:

  * the regular ideal tetrahedron volume 3 * Lobachevsky(pi/3), via the
    Clausen function Cl_2 (Lobachevsky(t) = Cl_2(2t)/2) and independently
    by tanh-sinh quadrature of -log|2 sin|;
  * the cusp density bound sqrt(3)/(2 V0);
  * bounds.lobachevsky at pi/3, pi/2, 2pi/3, 3pi/4 and 3 against Cl_2(2t)/2,
    on both sides of the reflection at pi/2; |Lobachevsky| <= 0.51, so the
    common budget 1e-15 * max(1, |value|) is an absolute 1e-15 there;
  * the covolume of the quotient of H^3 by PSL2 of Z[sqrt(-2)], via
    Humbert's formula |disc|^(3/2) * zeta_K(2) / (4 pi^2) with disc = -8 and
    zeta_K(2) = zeta(2) * L(2, chi_(-8)) evaluated through Hurwitz zetas;
  * the exact Adams-Reid translation length Re(2 arccosh((2 + 4 pi^2 i)/2)).
"""

import math
import sys
from pathlib import Path

import mpmath as mp

# This checkout's package, whether or not one is installed or on PYTHONPATH.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from sysbound import bianchi, bounds  # noqa: E402

mp.mp.dps = 40


def report(name, high_precision, double):
    err = abs(mp.mpf(double) - high_precision)
    print(f"{name}")
    print(f"  30 digits : {mp.nstr(high_precision, 30)}")
    print(f"  double    : {double!r}")
    print(f"  |error|   : {mp.nstr(err, 3)}")
    assert err < mp.mpf(10) ** (-15) * max(1, abs(high_precision)), name
    print()


def main():
    v0 = 3 * mp.clsin(2, 2 * mp.pi / 3) / 2
    quad = -3 * mp.quad(lambda t: mp.log(abs(2 * mp.sin(t))), [0, mp.pi / 3])
    assert abs(v0 - quad) < mp.mpf(10) ** -35
    report("ideal tetrahedron volume (3 * Lobachevsky(pi/3))", v0, bounds.IDEAL_TETRAHEDRON_VOLUME)

    c0 = mp.sqrt(3) / (2 * v0)
    report("cusp density bound sqrt(3)/(2 V0)", c0, bounds.CUSP_DENSITY_BOUND)

    for label, theta in (("pi/3", math.pi / 3), ("pi/2", math.pi / 2), ("2pi/3", 2 * math.pi / 3),
                         ("3pi/4", 3 * math.pi / 4), ("3", 3.0)):
        report(f"Lobachevsky({label}) at its float argument", mp.clsin(2, 2 * mp.mpf(theta)) / 2,
               bounds.lobachevsky(theta))

    l_chi = (
        mp.zeta(2, mp.mpf(1) / 8)
        + mp.zeta(2, mp.mpf(3) / 8)
        - mp.zeta(2, mp.mpf(5) / 8)
        - mp.zeta(2, mp.mpf(7) / 8)
    ) / 64
    covolume = mp.mpf(8) ** mp.mpf(1.5) * mp.zeta(2) * l_chi / (4 * mp.pi**2)
    report("PSL2(Z[sqrt(-2)]) covolume (Humbert)", covolume, bianchi.PSL2_O2_COVOLUME)

    ar = (2 * mp.acosh((2 + (2 * mp.pi) ** 2 * mp.mpc(0, 1)) / 2)).real
    report("Adams-Reid translation length at slope 2*pi", ar, bounds.ADAMS_REID_LENGTH)

    print("all frozen constants agree with the high-precision oracles")


if __name__ == "__main__":
    main()
