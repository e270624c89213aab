"""Certified Groebner bases for the second hypersimplex under circular orders.

Every polynomial is held as exact (coefficient, factors) rows over the edge
variables, packed under the circular block term orders.  On them: the
quadratic toric basis and its noncrossing initial ideal, induced odd-cycle
combinatorics, master polynomials with their verification lemmas, and a
Buchberger certification engine for the rank-2 secant and symbolic-square
bases.
"""

from .poly import Variable, edge_var
from .order import CircularTermOrder, edge_class
from .hypersimplex import (
    BinomialGenerator,
    MonomialIdeal,
    crosses,
    in_secant_ideal,
    in_toric_ideal,
    toric_gb,
)
from .noncrossing import (
    AdmissibleSequence,
    NoncrossingGraph,
    admissible_sequences,
    all_admissible_sequences,
    cycle_monomial,
    induced_odd_cycles,
    initial_edge_ideal,
    secant_of_edge_ideal,
    symbolic_square_of_edge_ideal,
)
from .master import verify_prolongation
from .groebner import (
    CheckResult,
    GroebnerCertificate,
    SPairStats,
    buchberger_verify,
    circular_minor_splits,
    delightful_check,
)
from .fixtures import (
    GENERIC_QUINTIC_SEQUENCE,
    GENERIC_QUINTIC_TERM_COUNT,
    REFERENCE_CUBIC_TERMS,
    REFERENCE_PENTAD_TERMS,
    reproduce_reference_examples,
)

__version__ = "0.1.0"
