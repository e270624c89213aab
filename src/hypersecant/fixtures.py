"""Published reference expansions used as exact ground truth.

Two master polynomials have classical printed expansions: the eight-term
cubic on six distinct indices, and the twelve-term quintic on five indices
known in the factor-analysis literature as the pentad.  The generic
five-pair case on ten distinct indices is pinned by its term count of 32.
These fixtures are transcribed with their signs and are compared term by
term by the `reproduce` command and the acceptance suite.
"""

from __future__ import annotations

from .noncrossing import AdmissibleSequence
from .master import master_terms
from .order import CircularTermOrder
from .poly import canonical_sorted, edge_factors, format_factors

CUBIC_SEQUENCE = ((1, 3, 5), (2, 4, 6))

REFERENCE_CUBIC_TERMS: tuple[tuple[int, tuple[tuple[int, int], ...]], ...] = (
    (+1, ((1, 2), (3, 4), (5, 6))),
    (-1, ((1, 2), (3, 5), (4, 6))),
    (-1, ((1, 3), (2, 4), (5, 6))),
    (-1, ((1, 5), (2, 6), (3, 4))),
    (+1, ((1, 3), (2, 5), (4, 6))),
    (+1, ((1, 4), (2, 6), (3, 5))),
    (+1, ((1, 5), (2, 4), (3, 6))),
    (-1, ((1, 4), (2, 5), (3, 6))),
)

PENTAD_SEQUENCE = ((1, 2, 3, 4, 5), (1, 2, 3, 4, 5))

REFERENCE_PENTAD_TERMS: tuple[tuple[int, tuple[tuple[int, int], ...]], ...] = (
    (+1, ((1, 2), (1, 5), (2, 3), (3, 4), (4, 5))),
    (-1, ((1, 2), (1, 3), (2, 5), (3, 4), (4, 5))),
    (-1, ((1, 2), (1, 4), (2, 3), (3, 5), (4, 5))),
    (+1, ((1, 2), (1, 4), (2, 5), (3, 4), (3, 5))),
    (+1, ((1, 2), (1, 3), (2, 4), (3, 5), (4, 5))),
    (-1, ((1, 2), (1, 5), (2, 4), (3, 4), (3, 5))),
    (+1, ((1, 3), (1, 4), (2, 3), (2, 5), (4, 5))),
    (-1, ((1, 3), (1, 4), (2, 4), (2, 5), (3, 5))),
    (-1, ((1, 3), (1, 5), (2, 3), (2, 4), (4, 5))),
    (+1, ((1, 3), (1, 5), (2, 4), (2, 5), (3, 4))),
    (-1, ((1, 4), (1, 5), (2, 3), (2, 5), (3, 4))),
    (+1, ((1, 4), (1, 5), (2, 3), (2, 4), (3, 5))),
)

GENERIC_QUINTIC_SEQUENCE = ((1, 3, 5, 7, 9), (2, 4, 6, 8, 10))
GENERIC_QUINTIC_TERM_COUNT = 32


def _master(arrays) -> dict:
    """The master polynomial of the sequence with these index arrays, the
    factors of each term mapped to its coefficient."""
    s = AdmissibleSequence.from_arrays(*arrays)
    return {f: c for c, f in master_terms(s, CircularTermOrder(s.min_ambient()))}


def _diff(reference, computed: dict) -> dict:
    expected = {edge_factors(pairs): c for c, pairs in reference}
    mismatches = []
    for f in canonical_sorted(expected.keys() | computed.keys()):
        ce, cc = expected.get(f, 0), computed.get(f, 0)
        if ce != cc:
            mismatches.append({"monomial": format_factors(f), "expected": ce, "computed": cc})
    return {
        "expected_terms": len(expected),
        "computed_terms": len(computed),
        "mismatches": mismatches,
        "match": not mismatches,
    }


def reproduce_reference_examples() -> dict:
    """Regenerate the three reference constructions and diff term by term."""
    generic = _master(GENERIC_QUINTIC_SEQUENCE)
    coeffs_unit = all(c in (1, -1) for c in generic.values())
    report = {
        "cubic": _diff(REFERENCE_CUBIC_TERMS, _master(CUBIC_SEQUENCE)),
        "pentad": _diff(REFERENCE_PENTAD_TERMS, _master(PENTAD_SEQUENCE)),
        "generic_quintic": {
            "expected_terms": GENERIC_QUINTIC_TERM_COUNT,
            "computed_terms": len(generic),
            "unit_coefficients": coeffs_unit,
            "match": len(generic) == GENERIC_QUINTIC_TERM_COUNT and coeffs_unit,
        },
    }
    report["match"] = all(section["match"] for section in report.values() if isinstance(section, dict))
    return report
