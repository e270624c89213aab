import json
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping

import pytest
from hypothesis import strategies as st

from hypersecant import Monomial, Polynomial, edge_var
from hypersecant.master import PairingInvolution, base_involution


def edges_for(n):
    return [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]


def reference_order_key(order, m):
    """The circular order as nested per-block tuples, written out independently
    of the packed weight: m1 precedes m2 iff the key of m1 is smaller.

    Blocks are the edge classes in ascending (a, b) order.  Under grevlex a
    block compares by its degree, then by its exponents negated in reverse
    variable order; under lex by its exponents.
    """
    from hypersecant import edge_class, edge_var
    from hypersecant.poly import is_edge_var

    exps = dict(m.factors)
    if any(not is_edge_var(v) or v[2] > order.n for v in exps):
        raise ValueError(f"{m} is not an edge monomial for n={order.n}")
    parts = []
    for c in range(1, order.n // 2 + 1):
        block = [edge_var(*e) for e in edges_for(order.n) if edge_class(order.n, e) == c]
        vec = tuple(exps.get(v, 0) for v in block)
        if order.inner == "grevlex":
            parts.append((sum(vec), tuple(-x for x in reversed(vec))))
        else:
            parts.append(vec)
    return tuple(parts)


def reference_induced_odd_cycles(g, max_len):
    """Induced odd cycles by plain subset enumeration, the independent oracle.

    A subset of odd size in [3, max_len] induces a cycle iff every vertex
    has induced degree 2 and the induced graph is connected.  Subsets are
    visited by size, then in combinations order, which is the order the
    library returns its cycles in.
    """
    if max_len % 2 == 0 or max_len < 3:
        raise ValueError(f"max_len must be an odd integer >= 3, got {max_len!r}")
    adj = g._adj
    nv = len(adj)
    out = []
    for size in range(3, max_len + 1, 2):
        if size > nv:
            break
        for combo in combinations(range(nv), size):
            mask = 0
            for v in combo:
                mask |= 1 << v
            ok = True
            for v in combo:
                if (adj[v] & mask).bit_count() != 2:
                    ok = False
                    break
            if not ok:
                continue
            seen = 1 << combo[0]
            stack = [combo[0]]
            while stack:
                rest = adj[stack.pop()] & mask & ~seen
                while rest:
                    low = rest & -rest
                    rest ^= low
                    seen |= low
                    stack.append(low.bit_length() - 1)
            if seen == mask:
                out.append(tuple(g.vertices[v] for v in combo))
    return out


# The master polynomial on formal letters, written out independently of the
# library's index-array computation.  A letter is ('I', l) or ('J', l) with l
# in 1..2k+1.


def _letters(k):
    return tuple(("I", l) for l in range(1, 2 * k + 2)) + tuple(
        ("J", l) for l in range(1, 2 * k + 2)
    )


@dataclass(frozen=True)
class ConjugationSubset:
    """A subset of the 2k+1 conjugating transpositions (I_l, J_{l-1})."""

    k: int
    indices: frozenset

    def __post_init__(self):
        valid = range(1, 2 * self.k + 2)
        if not set(self.indices) <= set(valid):
            raise ValueError(f"indices must lie in 1..{2 * self.k + 1}")

    @property
    def sign(self):
        return -1 if len(self.indices) % 2 else 1

    def transpositions(self):
        length = 2 * self.k + 1
        return tuple(
            (("I", l), ("J", (l - 2) % length + 1)) for l in sorted(self.indices)
        )


@dataclass(frozen=True)
class LetterSet:
    """Assignment of concrete indices to the formal letters.

    The assignment may be non-injective: I_l and J_l can share an index for
    a degenerate admissible sequence.
    """

    k: int
    assignment: Mapping

    def __post_init__(self):
        missing = set(_letters(self.k)) - set(self.assignment)
        if missing:
            raise ValueError(f"assignment misses letters {sorted(missing)}")

    @classmethod
    def from_sequence(cls, s):
        assign = {}
        for l in range(1, s.length + 1):
            assign[("I", l)] = s.i[l - 1]
            assign[("J", l)] = s.j[l - 1]
        return cls(s.k, assign)


def conjugate(inv, subset):
    """Relabel every letter through the selected transpositions and re-pair."""
    if subset.k != inv.k:
        raise ValueError("subset and involution have different k")
    sigma = {}
    for p, q in subset.transpositions():
        sigma[p] = q
        sigma[q] = p
    pairs = [(sigma.get(p, p), sigma.get(q, q)) for p, q in inv.pairs]
    return PairingInvolution.from_pairs(inv.k, pairs)


def involution_monomial(inv, letters):
    """Edge monomial of a pairing under an assignment; exponents accumulate."""
    if letters.k != inv.k:
        raise ValueError("letter set and involution have different k")
    assign = letters.assignment
    edges = []
    for p, q in inv.pairs:
        a, b = assign[p], assign[q]
        if a == b:
            raise ValueError(f"pair ({p}, {q}) is assigned the single index {a}")
        edges.append((min(a, b), max(a, b)))
    return Monomial.from_edges(edges)


def reference_master_polynomial(s):
    """Sum of (-1)^|S| times the monomial of each conjugate of the base pairing."""
    k = s.k
    letters = LetterSet.from_sequence(s)
    base = base_involution(k)
    acc = {}
    for r in range(2 * k + 2):
        for chosen in combinations(range(1, 2 * k + 2), r):
            m = involution_monomial(conjugate(base, ConjugationSubset(k, frozenset(chosen))), letters)
            acc[m] = acc.get(m, 0) + (-1) ** r
    return Polynomial(acc)


def monomial_strategy(n=6, max_factors=3, max_exp=2):
    return st.lists(
        st.tuples(st.sampled_from(edges_for(n)), st.integers(1, max_exp)),
        min_size=0,
        max_size=max_factors,
    ).map(lambda fs: Monomial((edge_var(a, b), e) for (a, b), e in fs))


def polynomial_strategy(n=6, max_terms=4, max_factors=3, max_exp=2, max_coeff=4):
    term = st.tuples(
        st.integers(-max_coeff, max_coeff), monomial_strategy(n, max_factors, max_exp)
    )
    return st.lists(term, min_size=0, max_size=max_terms).map(
        lambda ts: Polynomial((m, c) for c, m in ts)
    )


@pytest.fixture(scope="session")
def graph6():
    from hypersecant import build_graph

    return build_graph(6)


# The generator arrays of JSON output as nested lists and dicts, laid out by
# json.dumps(..., indent=2): the independent oracle for the CLI's text renderer.


def monomial_to_json(m):
    out = []
    for v, e in m.factors:
        if v[0] == "x":
            out.append(["x", v[1], v[2], e])
        else:
            out.append([v[0], v[1], e])
    return out


def polynomial_to_json(p, order=None):
    """Terms descending under the order; without one, in canonical order, for
    the reader's round trip of polynomials in the parameters."""
    from hypersecant.poly import canonical_key

    key = canonical_key if order is None else order.sort_key(p.degree)
    terms = [
        {"coeff": p.coefficient(m), "monomial": monomial_to_json(m)}
        for m in sorted(p.monomials(), key=key, reverse=True)
    ]
    return {"terms": terms}


def json_text(payload):
    """A JSON document as the CLI prints it."""
    return json.dumps(payload, indent=2) + "\n"
