"""Volume-based systole bounds for hyperbolic 3-manifolds.

The package computes the closed-form bound functions for systole lengths of
cusped hyperbolic 3-manifolds and of hyperbolic link complements in closed
manifolds, the cusp-lattice geometry they rest on, the congruence-subgroup
census over Z[sqrt(-2)] that realizes logarithmic systole growth, and a
margin-oriented numerical certification engine for the underlying
inequalities.
"""

from .bianchi import (
    PSL2_O2_COVOLUME,
    CongruenceLevel,
    GrowthRow,
    QuadInt,
    QuadMatrix,
    elements_of_bounded_modulus,
    enumerate_congruence_elements,
    min_loxodromic_trace_lower_bound,
    newman_index,
    split_prime,
    systole_growth_table,
)
from .bounds import *  # noqa: F403 -- the names in bounds.__all__
from .certify import (
    CertificateReport,
    GridSpec,
    certify_crossing,
    certify_cubic_claims,
    certify_cusp_trace_bound,
    certify_length_lemma,
)
from .cusp import CuspLattice, ReducedBasis, max_waist_for_cusp_volume
from .mobius import ElementClass, IsometricSphere, MoebiusElement, NonLoxodromicError

__version__ = "0.1.0"
