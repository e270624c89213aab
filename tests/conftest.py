import json
import os
import re
import signal
import subprocess
import sys
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import pytest
from hypothesis import strategies as st

from hypersecant import (
    AdmissibleSequence,
    CircularTermOrder,
    MonomialIdeal,
    NoncrossingGraph,
    admissible_sequences,
    all_admissible_sequences,
    edge_var,
    in_toric_ideal,
    initial_edge_ideal,
    secant_of_edge_ideal,
    symbolic_square_of_edge_ideal,
)
from hypersecant import groebner
from hypersecant.groebner import _minor_splits, candidate_basis
from hypersecant.master import master_terms
from hypersecant.noncrossing import odd_floor
from hypersecant.poly import Variable, _EDGE, _interned, degree, edge_factors, product_factors


# ---------------------------------------------------------------------------
# Reference arithmetic.  The engine holds every polynomial as its
# (coefficient, factors) rows; the tests compare those rows against the plain
# Polynomial values below, keyed by the same factor tuples.  The monomial and
# term-order operations the engine does not use are functions here, of the
# factors or of the order.
# ---------------------------------------------------------------------------

_PARAM_T, _PARAM_U = "t", "u"


def param_t(i: int) -> Variable:
    """Parameter variable t[i] of the first substitution family."""
    if not isinstance(i, int) or i < 1:
        raise ValueError(f"parameter index must be a positive int, got {i!r}")
    return (_PARAM_T, i)


def param_u(i: int) -> Variable:
    """Parameter variable u[i] of the second substitution family."""
    if not isinstance(i, int) or i < 1:
        raise ValueError(f"parameter index must be a positive int, got {i!r}")
    return (_PARAM_U, i)


def monomial(factors: Mapping[Variable, int] | Iterable[tuple[Variable, int]]) -> tuple:
    """The factors of the monomial with these (variable, exponent) pairs, or
    this mapping of variables to exponents, as the engine holds them: sorted
    and interned, repeats accumulated and zero exponents dropped."""
    if isinstance(factors, Mapping):
        factors = factors.items()
    acc: dict[Variable, int] = {}
    for v, e in factors:
        if e:
            acc[v] = acc.get(v, 0) + e
    return _interned(acc.items())


def canonical_key(m: tuple) -> tuple:
    """Order-agnostic sort key of a monomial's factors: degree, then factors."""
    return (degree(m), m)


def variables(m: tuple) -> tuple[Variable, ...]:
    return tuple(v for v, _ in m)


def exponent(m: tuple, v: Variable) -> int:
    for w, e in m:
        if w == v:
            return e
    return 0


mul = product_factors


def divides(m: tuple, other: tuple) -> bool:
    d = dict(other)
    return all(d.get(v, 0) >= e for v, e in m)


def divide_by(m: tuple, other: tuple) -> tuple:
    """Exact quotient m / other; raises if not divisible."""
    d = dict(m)
    for v, e in other:
        r = d.get(v, 0) - e
        if r < 0:
            raise ValueError(f"{other} does not divide {m}")
        d[v] = r
    return monomial(d)


def lcm(m: tuple, other: tuple) -> tuple:
    d = dict(m)
    for v, e in other:
        if d.get(v, 0) < e:
            d[v] = e
    return monomial(d)


class Polynomial:
    """A sparse polynomial: monomials, as their factors, mapped to nonzero
    int coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple, int] | Iterable[tuple[tuple, int]] = ()):
        if isinstance(terms, dict) or isinstance(terms, Mapping):
            terms = terms.items()
        acc: dict[tuple, int] = {}
        for m, c in terms:
            if not isinstance(c, int):
                raise TypeError(f"coefficient must be an int, got {c!r}")
            nc = acc.get(m, 0) + c
            if nc:
                acc[m] = nc
            else:
                acc.pop(m, None)
        self._terms = acc

    # ----- constructors -----

    @classmethod
    def _of(cls, terms: dict) -> "Polynomial":
        """Trusted constructor: `terms` maps monomials to nonzero int
        coefficients and becomes the polynomial's own dict, unchecked."""
        p = object.__new__(cls)
        p._terms = terms
        return p

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def from_monomial(cls, m: tuple, coeff: int = 1) -> "Polynomial":
        return cls(((m, coeff),))

    @classmethod
    def variable(cls, v: Variable) -> "Polynomial":
        return cls(((((v, 1),), 1),))

    @classmethod
    def constant(cls, c: int) -> "Polynomial":
        return cls((((), c),))

    @classmethod
    def from_edge_terms(cls, terms: Iterable[tuple[int, Iterable[tuple[int, int]]]]) -> "Polynomial":
        """Build from (coefficient, edge pair list) entries.  Test-fixture friendly."""
        return cls((edge_factors(pairs), c) for c, pairs in terms)

    # ----- queries -----

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def term_count(self) -> int:
        return len(self._terms)

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(map(degree, self._terms))

    @property
    def is_homogeneous(self) -> bool:
        return len(set(map(degree, self._terms))) <= 1

    def coefficient(self, m: tuple) -> int:
        return self._terms.get(m, 0)

    def terms(self) -> Iterator[tuple[tuple, int]]:
        return iter(self._terms.items())

    def monomials(self) -> Iterator[tuple]:
        return iter(self._terms)

    def variables(self) -> tuple[Variable, ...]:
        seen = {v for m in self._terms for v, _ in m}
        return tuple(sorted(seen))

    def uses_only_edge_vars(self) -> bool:
        return all(v[0] == _EDGE for m in self._terms for v, _ in m)

    # ----- arithmetic -----

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        acc = dict(self._terms)
        for m, c in other._terms.items():
            nc = acc.get(m, 0) + c
            if nc:
                acc[m] = nc
            else:
                acc.pop(m, None)
        return Polynomial._of(acc)

    def __neg__(self) -> "Polynomial":
        return Polynomial._of({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return Polynomial.zero()
            return Polynomial._of({m: c * other for m, c in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        acc: dict[tuple, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mm = mul(m1, m2)
                nc = acc.get(mm, 0) + c1 * c2
                if nc:
                    acc[mm] = nc
                else:
                    acc.pop(mm, None)
        return Polynomial._of(acc)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"Polynomial({format_polynomial(self)})"


def _factor_text(factor: tuple) -> str:
    v, e = factor
    text = f"x[{v[1]},{v[2]}]" if v[0] == _EDGE else f"{v[0]}[{v[1]}]"
    return text if e == 1 else f"{text}^{e}"


def format_polynomial(p: Polynomial, key=canonical_key) -> str:
    """Signed-term text per the shared grammar (see poly.format_rows),
    descending under `key`; a factor may also be a parameter, t[i] or u[i]."""
    terms = sorted(p.terms(), key=lambda t: key(t[0]), reverse=True)
    if not terms:
        return "0"
    return " ".join(f"{c:+d}*{'*'.join(map(_factor_text, m))}" if m else f"{c:+d}" for m, c in terms)


def poly_rows(p: Polynomial) -> list[tuple[int, tuple]]:
    """The (coefficient, factors) rows of p, in its term order."""
    return [(c, m) for m, c in p.terms()]


def polynomial_of(rows) -> Polynomial:
    """The Polynomial with these (coefficient, factors) rows."""
    return Polynomial((f, c) for c, f in rows)


def sort_key(order: CircularTermOrder, degree: int):
    """Sort key for monomials of total degree at most `degree`:
    m1 precedes m2 in the order iff key(m1) < key(m2)."""
    return order.packing(degree).pack


def order_rows(order: CircularTermOrder, p: Polynomial) -> list[tuple[int, tuple]]:
    """The terms of p as (coefficient, factors) rows, descending in the order."""
    return [(c, f) for _, c, f in order.packing(p.degree).terms(poly_rows(p))]


def compare(order: CircularTermOrder, m1: tuple, m2: tuple) -> int:
    """-1, 0 or 1 as m1 is below, equal to or above m2."""
    key = sort_key(order, max(degree(m1), degree(m2)))
    k1, k2 = key(m1), key(m2)
    return (k1 > k2) - (k1 < k2)


def leading_term(order: CircularTermOrder, p: Polynomial) -> tuple[tuple, int]:
    """The maximal monomial of p with its coefficient; p must be nonzero."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no leading term")
    m = max(p.monomials(), key=sort_key(order, p.degree))
    return m, p.coefficient(m)


def leading_monomial(order: CircularTermOrder, p: Polynomial) -> tuple:
    return leading_term(order, p)[0]


def packed_polynomial(packing, terms: dict) -> Polynomial:
    """The Polynomial of packed monomials mapped to their coefficients."""
    return Polynomial((packing.factors(p), c) for p, c in terms.items())


def reduce(f: Polynomial, G: Sequence[Polynomial], order: CircularTermOrder) -> Polynomial:
    """Normal form of f modulo G by the engine's divider: no remainder term
    divisible by any LT(g).

    Every g in G must be homogeneous, f need not be: a rewrite then keeps the
    degree of the term it replaces, so every term fits the packing sized
    from the inputs.  A non-homogeneous reducer raises ValueError.
    """
    G = list(G)
    packing = order.packing(max([f.degree] + [g.degree for g in G]))
    divider = groebner._Divider(packing, (poly_rows(g) for g in G))
    rem, _ = divider.normal_form({-packing.pack(m): c for m, c in f.terms()})
    return packed_polynomial(packing, {-q: c for q, c in rem.items()})


_EVEN_PERMS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def off_diagonal_minor(rows: Sequence[int], cols: Sequence[int]) -> Polynomial:
    """3x3 minor of the symmetric variable matrix on disjoint row/column sets.

    Signs are normalized so the antidiagonal term
    x[r1,c3]*x[r2,c2]*x[r3,c1] has coefficient +1.
    """
    rows, cols = tuple(rows), tuple(cols)
    if len(rows) != 3 or len(cols) != 3:
        raise ValueError("need exactly three row and three column indices")
    if len(set(rows) | set(cols)) != 6:
        raise ValueError("row and column indices must be six distinct vertices")
    if any(not isinstance(v, int) or v < 1 for v in rows + cols):
        raise ValueError("indices must be positive ints")
    acc: dict[tuple, int] = {}
    for perm in permutations(range(3)):
        sign = 1 if perm in _EVEN_PERMS else -1
        m = edge_factors((rows[a], cols[perm[a]]) for a in range(3))
        acc[m] = acc.get(m, 0) + sign
    anti = antidiagonal_monomial(rows, cols)
    if acc[anti] < 0:
        acc = {m: -c for m, c in acc.items()}
    return Polynomial(acc)


def antidiagonal_monomial(rows: Sequence[int], cols: Sequence[int]) -> tuple:
    return edge_factors(zip(rows, reversed(tuple(cols))))


def master_polynomial(s) -> Polynomial:
    """Sign-weighted conjugation sum attached to an admissible sequence: the
    Polynomial of master_terms."""
    return Polynomial._of({f: c for c, f in master_terms(s, CircularTermOrder(s.min_ambient()))})


def toric_gb_polynomials(n: int) -> list[Polynomial]:
    """The binomials of toric_gb(n) as groebner reads them, so a
    substitute_toric substitution shows here too."""
    return [polynomial_of(g.rows()) for g in groebner.toric_gb(n)]


def reference_polynomial(terms) -> Polynomial:
    return Polynomial.from_edge_terms(terms)


def packed_ideal(generators, probes=(), n=8, inner="grevlex"):
    """The MonomialIdeal of these edge monomials, given by their factors,
    packed in the circular order at n, under the packing for the largest
    degree among the generators and the probes: every probe can then be
    asked about with ideal_contains.  The generators are passed in
    nondecreasing degree, as MonomialIdeal requires."""
    packing = CircularTermOrder(n, inner).packing(max([1, *map(degree, generators), *map(degree, probes)]))
    return MonomialIdeal([packing.pack(m) for m in sorted(generators, key=degree)], packing)


def ideal_keys(ideal) -> tuple[int, ...]:
    """The packed minimal generators of a MonomialIdeal, in its index's
    order: a squarefree one's key rebuilt from its support, as
    packing.join(support >> bits)."""
    join, bits = ideal.packing.join, ideal.packing.bits
    return tuple(join(s >> bits) if p is None else p for s, p in ideal._filed())


def ideal_contains(ideal, m: tuple) -> bool:
    """MonomialIdeal.contains_key on m packed in the ideal's packing, which
    must hold its degree."""
    assert degree(m) <= ideal.packing.limit, "the probe does not fit the ideal's packing"
    return ideal.contains_key(ideal.packing.pack(m))


def both_inner_orders(n):
    """The two shipped instantiations; results quantified over circular orders
    are exercised against both."""
    return CircularTermOrder(n, "grevlex"), CircularTermOrder(n, "lex")


# The polynomials substitute_generators substitutes, by label.
_SUBSTITUTES: dict = {}


def label_polynomials(n, labels):
    """The Polynomial of each candidate_basis label at n, in label order: a
    reference builder that forms the product ("product", a, b) as
    toric[a] * toric[b] and the minor ("minor", rows, cols) as
    off_diagonal_minor(rows, cols), in Polynomial arithmetic, and a master
    from its rows by groebner._generator.  A label substituted by
    substitute_generators gives its substitute.  The rows of
    groebner.generator_rows are checked against it."""
    toric = toric_gb_polynomials(n)
    order = CircularTermOrder(n)
    return [
        _SUBSTITUTES[label]
        if label in _SUBSTITUTES
        else toric[label[1]] * toric[label[2]]
        if label[0] == "product"
        else off_diagonal_minor(label[1], label[2])
        if label[0] == "minor"
        else polynomial_of(groebner._generator(label, order))
        for label in labels
    ]


def eager_labels(n, kind):
    """candidate_basis(n, kind) written out as a list: for the secant, the
    masters of every odd degree, then the minors; for the symbolic square,
    the minors, the degree-3 masters, then ("product", a, b) for each pair
    of combinations_with_replacement over the 2*C(n, 4) toric binomials."""
    minors = [("minor", rows, cols) for rows, cols in _minor_splits(n)]
    if kind == "secant":
        return [("master", s) for s in all_admissible_sequences(n)] + minors
    pairs = combinations_with_replacement(range(2 * comb(n, 4)), 2)
    return minors + [("master", s) for s in admissible_sequences(n, 1)] + [("product", a, b) for a, b in pairs]


def candidate_polynomials(n, kind):
    """The candidate basis of `kind` ("secant" or "symbolic-square") at n as a
    list of Polynomials, from label_polynomials."""
    return label_polynomials(n, candidate_basis(n, kind))


def term_rows(polys):
    """The (coefficient, factors) rows of each polynomial, in its term order:
    the generator form buchberger_verify and the divider read."""
    return [poly_rows(p) for p in polys]


# Paper-level facts about the candidate bases and the initial ideals.


def nested_triple_monomials(n):
    """The circularly nested noncrossing triples, one family per 6-subset split."""
    return [antidiagonal_monomial(rows, cols) for rows, cols in _minor_splits(n)]


def symbolic_square_identity_holds(n):
    """Monomial-ideal identity: the symbolic square of the initial ideal equals
    its ordinary square plus the secant of the initial ideal."""
    g = NoncrossingGraph(n)
    square_gens = [
        mul(a, b)
        for a, b in combinations_with_replacement(initial_edge_ideal(n).generators, 2)
    ]
    union = list(square_gens)
    union.extend(secant_of_edge_ideal(g, odd_floor(n)).generators)
    return packed_ideal(union, n=n) == symbolic_square_of_edge_ideal(g)


def partial_derivative(p, edges):
    """Iterated formal partial derivative of p by a multiset of edges.

    Repeated edges differentiate repeatedly, so falling-factorial integer
    multipliers appear.  The multiset must be nonempty; the result may be
    the zero polynomial.
    """
    if not edges:
        raise ValueError("derivative multiset must be nonempty")
    out = p
    for a, b in edges:
        v = edge_var(a, b)
        acc = {}
        for m, c in out.terms():
            e = exponent(m, v)
            if not e:
                continue
            d = dict(m)
            d[v] = e - 1
            mm = monomial(d)
            nc = acc.get(mm, 0) + c * e
            if nc:
                acc[mm] = nc
            else:
                acc.pop(mm, None)
        out = Polynomial(acc)
    return out


def substitute_rank(p, r):
    """Image of p under x[a,b] -> t_a*t_b (r=1) or t_a*t_b + u_a*u_b (r=2).

    This is the defining parameterization of the rank-r locus: the result is
    identically zero exactly when p vanishes on all rank-r points.  It is
    expanded in Polynomial arithmetic, term by term and factor by factor,
    sharing no code with the engine's rank-2 oracle.  Only r = 1 and r = 2
    are supported; there is no third parameter family.
    """
    if not isinstance(r, int) or r < 1:
        raise ValueError(f"rank must be a positive int, got {r!r}")
    if r > 2:
        raise ValueError("only ranks 1 and 2 are supported")
    if not p.uses_only_edge_vars():
        raise ValueError("substitute_rank requires a polynomial in edge variables only")
    image = {}
    out = Polynomial.zero()
    for m, c in p.terms():
        term = Polynomial.constant(c)
        for v, e in m:
            if v not in image:
                _, a, b = v
                image[v] = Polynomial.variable(param_t(a)) * Polynomial.variable(param_t(b))
                if r == 2:
                    image[v] = image[v] + Polynomial.variable(param_u(a)) * Polynomial.variable(param_u(b))
            for _ in range(e):
                term = term * image[v]
        out = out + term
    return out


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

    exps = dict(m)
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


def reference_admissible_sequences(n, k):
    """Admissible sequences of length L = 2k+1 by brute force, the
    independent oracle.

    A candidate is a flat nondecreasing tuple (i_1, j_1, ..., i_L, j_L) over
    1..n, or such a tuple of length 2L-1 followed by a last j below its first
    entry (the wrapped chains).  The constructor keeps the chains and drops
    the rest; the kept ones come in flat-tuple order, as the library lists
    them.
    """
    length = 2 * k + 1
    flats = list(combinations_with_replacement(range(1, n + 1), 2 * length))
    flats += [
        head + (last,)
        for head in combinations_with_replacement(range(1, n + 1), 2 * length - 1)
        for last in range(1, head[0])
    ]
    out = []
    for flat in sorted(flats):
        try:
            out.append(AdmissibleSequence(k, flat[0::2], flat[1::2]))
        except ValueError:
            pass
    return out


# Definition-level oracles for the two combinatorial targets, independent of
# odd cycles.  I is the edge ideal of the noncrossing graph G, and a monomial
# x^u is its exponent vector u over G's vertices (the chords).  Both oracles
# follow Sturmfels-Sullivant 2006, "Combinatorial secant varieties".


def _in_edge_ideal(adj, support):
    """Whether a monomial with this support, a bitmask over G's vertices,
    lies in I: the support holds an edge of G."""
    return any(adj[i] & support for i in range(len(adj)) if support >> i & 1)


def in_secant_by_splits(adj, u):
    """x^u lies in the join I*I iff every split u = v + w has x^v or x^w in I.

    Whether a part lies in I depends on its support alone.  A split and its
    swap are one split, so only the splits whose part v is the smaller one,
    deg v <= deg w, are enumerated, and once v lies in I the split passes
    without w being tested.
    """
    support = [i for i, e in enumerate(u) if e]
    half = sum(u) // 2
    for v in product(*(range(u[i] + 1) for i in support)):
        if sum(v) > half or _in_edge_ideal(adj, sum(1 << i for i, d in zip(support, v) if d)):
            continue
        if not _in_edge_ideal(adj, sum(1 << i for i, d in zip(support, v) if d < u[i])):
            return False
    return True


def minimal_vertex_covers(adj):
    """The minimal vertex covers of G as bitmasks: the complements of its
    maximal independent sets, found among every independent set, each grown
    vertex by vertex, taking or skipping each vertex no taken one meets."""
    nv = len(adj)
    full = (1 << nv) - 1
    covers = []

    def grow(v, mask):
        if v == nv:
            if all(mask >> i & 1 or adj[i] & mask for i in range(nv)):
                covers.append(full & ~mask)
            return
        grow(v + 1, mask)
        if not adj[v] & mask:
            grow(v + 1, mask | 1 << v)

    grow(0, 0)
    return covers


def in_symbolic_square_by_covers(covers, u):
    """I is squarefree, so I^(2) is the intersection of P_C^2 over its minimal
    vertex covers C: x^u lies in I^(2) iff sum of u over C is >= 2 for each."""
    return all(sum(e for i, e in enumerate(u) if c >> i & 1) >= 2 for c in covers)


def target_by_definition(n, kind, degree):
    """The minimal generators through `degree` of the target of `kind`
    ("secant" or "symbolic-square") at n, as a set of factor tuples.

    Every monomial through `degree` is tested; a member is minimal when no
    monomial one variable lower is a member.
    """
    g = NoncrossingGraph(n)
    adj = g._adj
    if kind == "secant":
        member = lambda u: in_secant_by_splits(adj, u)
    else:
        covers = minimal_vertex_covers(adj)
        member = lambda u: in_symbolic_square_by_covers(covers, u)
    nv = g.vertex_count
    members: set = set()
    minimal = set()
    for d in range(1, degree + 1):
        for combo in combinations_with_replacement(range(nv), d):
            u = [0] * nv
            for i in combo:
                u[i] += 1
            u = tuple(u)
            if not member(u):
                continue
            members.add(u)
            if not any(u[:i] + (e - 1,) + u[i + 1 :] in members for i, e in enumerate(u) if e):
                minimal.add(monomial((edge_var(*g.vertices[i]), e) for i, e in enumerate(u)))
    return minimal


# The master polynomial on formal letters, written out independently of the
# library's index-array computation, and the crossing-number ladder of its
# pairings.  A letter is ('I', l) or ('J', l) with l in 1..2k+1.
Letter = tuple


def _letters(k: int) -> tuple[Letter, ...]:
    return tuple(("I", l) for l in range(1, 2 * k + 2)) + tuple(
        ("J", l) for l in range(1, 2 * k + 2)
    )


def _position(letter: Letter) -> int:
    # Circular arrangement I_1, J_1, I_2, J_2, ...
    kind, l = letter
    return 2 * (l - 1) + (0 if kind == "I" else 1)


@dataclass(frozen=True)
class PairingInvolution:
    """A fixed-point-free perfect matching on the 4k+2 formal letters."""

    k: int
    pairs: tuple[tuple[Letter, Letter], ...]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"need k >= 1, got {self.k!r}")
        expected = set(_letters(self.k))
        seen: set[Letter] = set()
        for p, q in self.pairs:
            if p == q:
                raise ValueError(f"fixed point at {p}")
            seen.update((p, q))
        if seen != expected or 2 * len(self.pairs) != len(expected):
            raise ValueError("pairs must form a perfect matching on all letters")

    @staticmethod
    def from_pairs(k: int, pairs: Iterable[tuple[Letter, Letter]]) -> "PairingInvolution":
        norm = tuple(sorted(tuple(sorted(p)) for p in pairs))
        return PairingInvolution(k, norm)


def base_involution(k: int) -> PairingInvolution:
    """Pairs I_l with J_{l+k-1}, indices modulo 2k+1 in 1..2k+1."""
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"need k >= 1, got {k!r}")
    length = 2 * k + 1
    pairs = [(("I", l), ("J", (l + k - 2) % length + 1)) for l in range(1, length + 1)]
    return PairingInvolution.from_pairs(k, pairs)


def crossing_number(inv: PairingInvolution) -> int:
    """Number of interleaving chord pairs on the circle of 4k+2 letters."""
    chords = [tuple(sorted((_position(p), _position(q)))) for p, q in inv.pairs]
    count = 0
    for x in range(len(chords)):
        a, b = chords[x]
        for y in range(x + 1, len(chords)):
            c, d = chords[y]
            if (a < c < b) != (a < d < b):
                count += 1
    return count


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
    return edge_factors(edges)


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


def is_squarefree(m):
    return all(e == 1 for _, e in m)


def is_multilinear(p):
    return all(is_squarefree(m) for m in p.monomials())


def reference_prolongation(n, f, bound):
    """Every partial derivative of order 1..bound tested one by one, the
    independent oracle: each derivative is built with partial_derivative and
    handed to in_toric_ideal.  Vanishing derivatives pass.  A multilinear f
    is differentiated by edge sets only, since a repeated edge kills every
    term."""
    edges = tuple((v[1], v[2]) for v in f.variables())
    chooser = combinations if is_multilinear(f) else combinations_with_replacement
    for size in range(1, bound + 1):
        for multiset in chooser(edges, size):
            d = partial_derivative(f, multiset)
            if not d.is_zero and not in_toric_ideal(n, poly_rows(d)):
                return False
    return True


def s_polynomial(f, g, order):
    """The lcm-cancellation combination with both leading terms eliminated,
    in plain Polynomial arithmetic."""
    ltf, cf = leading_term(order, f)
    ltg, cg = leading_term(order, g)
    if cf not in (1, -1) or cg not in (1, -1):
        raise ValueError("s_polynomial requires unit leading coefficients")
    both = lcm(ltf, ltg)
    left = f * Polynomial.from_monomial(divide_by(both, ltf), cf)
    right = g * Polynomial.from_monomial(divide_by(both, ltg), cg)
    return left - right


def off_diagonal_minor_3x3(indices):
    """Minor on six increasing vertices split as rows 1..3, columns 4..6."""
    idx = tuple(indices)
    if len(idx) != 6 or any(idx[a] >= idx[a + 1] for a in range(5)):
        raise ValueError("need six distinct strictly increasing vertex indices")
    return off_diagonal_minor(idx[:3], idx[3:])


def reference_minimal_generators(gens):
    """Inclusion-minimal generators by pairwise divisibility, in canonical
    order: the brute-force oracle for MonomialIdeal's support index."""
    distinct = set(gens)
    return tuple(sorted(
        (m for m in distinct if not any(d != m and divides(d, m) for d in distinct)),
        key=canonical_key,
    ))


def reference_first_divisor(leads, m):
    """Index of the first monomial in `leads` that divides m, or -1: the
    brute-force scan the S-pair engine's divisor index must agree with."""
    return next((k for k, lt in enumerate(leads) if divides(lt, m)), -1)


def flip_lowest_tail(g, order):
    """g with the coefficient of its canonically smallest non-leading monomial
    negated: every leading term stays, and so does every pair criterion."""
    lead = leading_monomial(order, g)
    m = min((x for x in g.monomials() if x != lead), key=canonical_key)
    return g - Polynomial.from_monomial(m, 2 * g.coefficient(m))


def relabel(p, vertex):
    """p with every vertex a replaced by vertex[a]."""
    return Polynomial(
        (monomial((edge_var(vertex[a], vertex[b]), e) for (_, a, b), e in m), c) for m, c in p.terms()
    )


def substitute_generators(monkeypatch, polys, labels=None):
    """Make every candidate basis build polys[label] for each label in `polys`.

    The one builder of the rows a command writes and the S-pair leg reads,
    groebner.generator_rows, is patched where groebner and cli read it, so
    both see every substitute, a product's included.  The builder of the
    rows of a master or minor, groebner._generator, is patched too,
    so the membership and initial-ideal legs see a substituted master or
    minor; they read a product through its label alone.  label_polynomials
    returns every substitute too.  Given `labels`, candidate_basis returns
    them in place of a basis's own labels, for example with one left out.
    """
    from hypersecant import cli

    build, rows = groebner._generator, groebner.generator_rows

    def substituted_rows(n, labels, order):
        built = rows(n, [label for label in labels if label not in polys], order)
        for label in labels:
            yield order_rows(order, polys[label]) if label in polys else next(built)

    def substituted_terms(label, order):
        if label not in polys:
            return build(label, order)
        return order_rows(order, polys[label])

    for label, p in polys.items():
        monkeypatch.setitem(_SUBSTITUTES, label, p)
    monkeypatch.setattr(groebner, "_generator", substituted_terms)
    for module in (groebner, cli):
        monkeypatch.setattr(module, "generator_rows", substituted_rows)
    if labels is not None:
        monkeypatch.setattr(groebner, "candidate_basis", lambda n, kind: list(labels))


def substitute_toric(monkeypatch, polys):
    """Make the candidate bases read polys[k] as the k-th toric binomial:
    groebner.toric_gb returns stand-ins whose rows() are those of polys."""

    class Substitute:
        def __init__(self, p):
            self._rows = poly_rows(p)

        def rows(self):
            return list(self._rows)

    monkeypatch.setattr(groebner, "toric_gb", lambda n: [Substitute(p) for p in polys])


def monomial_strategy(n=6, max_factors=3, max_exp=2):
    return st.lists(
        st.tuples(st.sampled_from(edges_for(n)), st.integers(1, max_exp)),
        min_size=0,
        max_size=max_factors,
    ).map(lambda fs: monomial((edge_var(a, b), e) for (a, b), e in fs))


def polynomial_strategy(n=6, max_terms=4, max_factors=3, max_exp=2, max_coeff=4):
    term = st.tuples(
        st.integers(-max_coeff, max_coeff), monomial_strategy(n, max_factors, max_exp)
    )
    return st.lists(term, min_size=0, max_size=max_terms).map(
        lambda ts: Polynomial((m, c) for c, m in ts)
    )


@pytest.fixture
def workers_of_two(monkeypatch):
    """A sweep of two or more S-pairs forks two workers: two usable CPUs, one
    S-pair per worker.  Returns, for every forking sweep in order, the
    workers forked, counted at os.fork.  A sweep of more than two workers is
    refused before it forks a process, and so is a third fork in one sweep."""
    started = []
    shares, fork = groebner._shares, os.fork

    def sweep_shares(m, workers):
        if workers > 2:
            raise AssertionError(f"a sweep of {workers} workers was asked for")
        started.append(0)
        return shares(m, workers)

    def counted_fork():
        if not started or started[-1] >= 2:
            raise AssertionError("a worker was forked outside a sweep of two")
        started[-1] += 1
        return fork()

    monkeypatch.setattr(groebner, "_shares", sweep_shares)
    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(groebner, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(groebner, "_PAIRS_PER_WORKER", 1)
    return started


def forking_sweep(row: str | None = None) -> str:
    """The start of a script for a fresh interpreter, whose only children are
    then the sweep's workers: two usable CPUs and one S-pair per worker, so a
    sweep forks two.  Given `row`, with os, sys, time and types imported, it
    is the body of every _Divider.verify_row(self, i)."""
    script = (
        "import os, sys, time, types\n"
        "from hypersecant import CircularTermOrder, cli, groebner\n"
        "groebner._usable_cpus = lambda: 2\n"
        "groebner._PAIRS_PER_WORKER = 1\n"
    )
    if row is None:
        return script
    body = "".join(f"    {line}\n" for line in row.splitlines())
    return script + f"def row(self, i):\n{body}groebner._Divider.verify_row = row\n"


def dying_row(dead: int = 0) -> str:
    """A forking_sweep row: row `dead` exits 1 at once, every other row
    sleeps 30 s, so the worker of the other share is busy when it dies."""
    return f"if i == {dead}:\n    os._exit(1)\ntime.sleep(30)"


def run_script(script: str) -> subprocess.CompletedProcess:
    """Run `python -c script` with src/ on the path, in at most 60 s, in a
    session of its own, which is killed afterwards: a worker that outlived
    the script, and would keep its pipes open, is not left running."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


def child_peak_rss(argv, pythonpath):
    """(exit code, peak RSS in MiB, stdout) of `python -m hypersecant argv`,
    from the child's ru_maxrss (KiB on Linux).

    Linux keeps the peak of the address space a process replaces at exec, so
    a child of this pytest process would report pytest's own peak; a small
    launcher starts the command, which writes to the launcher's stdout and
    stderr, and prints the command's exit code and ru_maxrss as the last line
    of its stderr.  The launcher first compiles the package under
    `pythonpath`, in the child's environment, so the peak is the command's
    whether or not its bytecode was cached: compiled on import instead, it
    took the symbolic `verify delightful --n 8` from 16.3 to 17.6 MiB.
    """
    launcher = (
        "import compileall, os, sys\n"
        "compileall.compile_dir(os.path.join(os.environ['PYTHONPATH'], 'hypersecant'), quiet=1)\n"
        "pid = os.posix_spawn(sys.executable, sys.argv[1:], os.environ)\n"
        "_, status, usage = os.wait4(pid, 0)\n"
        "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", launcher, sys.executable, "-m", "hypersecant", *argv],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": pythonpath, "PATH": "/usr/bin:/bin", "PYTHONHASHSEED": "0"},
        timeout=120,
    )
    code, peak_kib = map(int, proc.stderr.splitlines()[-1].split())
    return code, peak_kib / 1024, proc.stdout


# The signed-term text grammar of format_polynomial, read back: the round-trip
# oracle for the text emitters.

_FACTOR_RE = re.compile(r"^(?:x\[(\d+),(\d+)\]|([tu])\[(\d+)\])(?:\^(\d+))?$")


def parse_monomial(text: str) -> tuple:
    """Parse bare monomial text as format_polynomial writes it in a term."""
    text = text.strip()
    if text == "1":
        return ()
    factors: dict = {}
    for tok in text.split("*"):
        m = _FACTOR_RE.match(tok.strip())
        if not m:
            raise ValueError(f"bad monomial factor {tok!r}")
        xa, xb, kind, pi, exp = m.groups()
        v = edge_var(int(xa), int(xb)) if xa is not None else (
            param_t(int(pi)) if kind == "t" else param_u(int(pi)))
        factors[v] = factors.get(v, 0) + (int(exp) if exp else 1)
    return monomial(factors)


def parse_polynomial(text: str) -> Polynomial:
    """Parse signed-term polynomial text as emitted by format_polynomial."""
    text = text.strip()
    if text == "0" or not text:
        return Polynomial.zero()
    acc: dict[tuple, int] = {}
    for tok in text.split():
        head, _, rest = tok.partition("*")
        try:
            coeff = int(head)
        except ValueError as exc:
            raise ValueError(f"bad term {tok!r}: expected a signed coefficient") from exc
        mono = parse_monomial(rest) if rest else ()
        nc = acc.get(mono, 0) + coeff
        if nc:
            acc[mono] = nc
        else:
            acc.pop(mono, None)
    return Polynomial(acc)


# The generator arrays of JSON output as nested lists and dicts, laid out by
# json.dumps(..., indent=2): the independent oracle for the CLI's text renderer,
# and the reader of those arrays back into polynomials.


def monomial_to_json(m):
    out = []
    for v, e in m:
        if v[0] == "x":
            out.append(["x", v[1], v[2], e])
        else:
            out.append([v[0], v[1], e])
    return out


def polynomial_to_json(p, order=None):
    """Terms descending under the order; without one, in canonical order, for
    the reader's round trip of polynomials in the parameters."""
    key = canonical_key if order is None else sort_key(order, p.degree)
    terms = [
        {"coeff": p.coefficient(m), "monomial": monomial_to_json(m)}
        for m in sorted(p.monomials(), key=key, reverse=True)
    ]
    return {"terms": terms}


def json_text(payload):
    """A JSON document as the CLI prints it."""
    return json.dumps(payload, indent=2) + "\n"


def monomial_from_json(data) -> tuple:
    factors = {}
    for entry in data:
        kind = entry[0]
        if kind == "x":
            _, a, b, e = entry
            v = edge_var(a, b)
        else:
            _, i, e = entry
            v = param_t(i) if kind == "t" else param_u(i)
        factors[v] = factors.get(v, 0) + e
    return monomial(factors)


def polynomial_from_json(data) -> Polynomial:
    return Polynomial(
        (monomial_from_json(t["monomial"]), t["coeff"]) for t in data["terms"]
    )
