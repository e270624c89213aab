"""Edge monomials, their exact (coefficient, factors) rows, and their text.

A polynomial lives in the edge variables x[a,b] (chords of a labelled n-gon,
stored with a < b) and is held as its rows: (coefficient, factors) pairs with
plain Python int coefficients, so every operation is exact (see order.py for
the row invariant).  A monomial unpacked is its factors: the sorted tuple of
its (variable, exponent) pairs, no exponent zero, the empty tuple the
constant 1.  The rank-substitution oracle expands rows on packed parameter
monomials instead.

All values are immutable after construction and all operations are pure, so
everything here is safe to share across threads or processes.
"""

from __future__ import annotations

from itertools import chain
from math import comb
from operator import itemgetter
from typing import Iterable

# A variable is a plain tuple: ('x', a, b) with a < b.
Variable = tuple

_EDGE = "x"


def edge_var(a: int, b: int) -> Variable:
    """Edge variable x[a,b].  Accepts the endpoints in either order."""
    if not (isinstance(a, int) and isinstance(b, int)):
        raise TypeError("edge endpoints must be ints")
    if a == b:
        raise ValueError(f"edge endpoints must differ, got ({a},{b})")
    if a < 1 or b < 1:
        raise ValueError(f"edge endpoints must be >= 1, got ({a},{b})")
    if a > b:
        a, b = b, a
    return (_EDGE, a, b)


def is_edge_var(v: Variable) -> bool:
    return v[0] == _EDGE


# Every monomial's (variable, exponent) pairs are interned here, so equal
# pairs are one tuple however many monomials hold them.  It holds one entry
# per distinct pair ever used: at most the variables times the largest
# exponent, not one per monomial.
_FACTORS: dict[tuple, tuple] = {}


def _interned(pairs: Iterable[tuple]) -> tuple:
    """The (variable, exponent) pairs, sorted, each the shared tuple from
    _FACTORS."""
    items = sorted(pairs)
    return tuple(map(_FACTORS.setdefault, items, items))


def product_factors(f1: tuple, f2: tuple) -> tuple:
    """The factors of the product of the monomials with factors f1 and f2:
    exponents of a shared variable add."""
    d = dict(f1)
    for v, e in f2:
        d[v] = d.get(v, 0) + e
    return _interned(d.items())


def edge_factors(pairs: Iterable[tuple[int, int]]) -> tuple:
    """The factors of the product of the edges x[a,b] over these endpoint
    pairs; repeats accumulate exponents."""
    acc: dict[Variable, int] = {}
    for a, b in pairs:
        v = edge_var(a, b)
        acc[v] = acc.get(v, 0) + 1
    return _interned(acc.items())


def degree(factors: tuple) -> int:
    """The total degree of the monomial with these factors."""
    return sum(e for _, e in factors)


def canonical_sorted(monomials: Iterable[tuple]) -> list[tuple]:
    """The distinct monomials, given by their factors, sorted by degree, then
    factors: an order-agnostic order, used only for stable output.

    Each distinct (variable, exponent) factor is ranked as an int first, so
    the key is a flat tuple of ints, degree then factor ranks, which compares
    about twice as fast as the nested factor tuples and orders the same.
    """
    distinct = set(monomials)
    rank = {f: r for r, f in enumerate(sorted({f for m in distinct for f in m}))}.__getitem__
    exponent = itemgetter(1)
    return sorted(distinct, key=lambda m: (sum(map(exponent, m)), *map(rank, m)))


def _rank_image(rows, r: int, pinned: int | None) -> dict[int, int]:
    """The image of the edge polynomial with these (coefficient, factors)
    rows under x[a,b] -> t_a*t_b (r = 1) or t_a*t_b + u_a*u_b (r = 2), with
    u_pinned = 0, as its packed parameter monomials mapped to their nonzero
    coefficients: empty iff the image is zero.

    Write v_a = (t_a, u_a).  Then x[a,b] -> t_a*t_b + u_a*u_b is the bilinear
    form <v_a, v_b>, which O(2, C) preserves.  Any v_pinned with
    <v_pinned, v_pinned> != 0 is rotated onto the t-axis by some element of
    O(2, C), and such points are dense, so p vanishes on the rank-2 locus
    iff its image with u_pinned = 0 is zero: an exact identity, not a
    sampled test.  Pinning only drops the u choice of the edges at the pinned
    vertex, and rank 1 drops it at every edge.  With pinned None this is the
    full image.

    The expansion runs on packed parameter monomials: each vertex of p owns
    one field for t_v and one for u_v, so x[a,b] maps to the ints T_a+T_b and
    U_a+U_b and multiplying by a factor is an add.  An edge raises any one
    parameter by at most 1, so no exponent exceeds p's degree and fields of
    its bit length never carry.  The packed monomials are returned as they
    are: only whether the image is zero is ever asked.
    """
    powers = set(chain.from_iterable(f for _, f in rows))
    w = max([1, *(degree(f) for _, f in rows)]).bit_length()
    at = {a: 2 * w * k for k, a in enumerate(sorted({a for (_, *ends), _ in powers for a in ends}))}
    # Per edge power x[a,b]^e, the packed terms of (t_a t_b)^k (u_a u_b)^(e-k)
    # with their binomial coefficients; a power with only its t choice,
    # k = e, is the bare int of that term, added to every term of the
    # expansion at once.
    choices_of: dict = {}
    for power in powers:
        (_, a, b), e = power
        t = (1 << at[a]) + (1 << at[b])
        if r == 1 or pinned == a or pinned == b:
            choices_of[power] = e * t
        else:
            u = t << w
            choices_of[power] = [(k * t + (e - k) * u, comb(e, k)) for k in range(e + 1)]
    acc: dict[int, int] = {}
    for c, factors in rows:
        fixed = 0
        free = []
        for power in factors:
            choices = choices_of[power]
            if isinstance(choices, int):
                fixed += choices
            else:
                free.append(choices)
        expansion = {fixed: c}
        for choices in free:
            nxt: dict[int, int] = {}
            for q, qc in expansion.items():
                for add, mult in choices:
                    key = q + add
                    nxt[key] = nxt.get(key, 0) + qc * mult
            expansion = nxt
        for q, qc in expansion.items():
            acc[q] = acc.get(q, 0) + qc
    return {q: qc for q, qc in acc.items() if qc}


# ----- text grammar -----
#
# term      := sign magnitude ('*' factor)*          e.g.  -1*x[1,2]*x[3,4]^2
# factor    := x[a,b], optional ^e for e > 1
# polynomial:= term (' ' term)*  or  "0"
# A polynomial is written from its rows in the order they are listed:
# descending under the term order for every polynomial a command writes.
# Factors are sorted.


def format_factors(factors: tuple) -> str:
    """Bare text of an edge monomial's factors, e.g. x[1,2]*x[2,3]^2; no
    factors is '1'."""
    if not factors:
        return "1"
    return "*".join([f"x[{a},{b}]" if e == 1 else f"x[{a},{b}]^{e}" for (_, a, b), e in factors])


def format_rows(rows) -> str:
    """Signed-term text of (coefficient, factors) rows, in their order."""
    if not rows:
        return "0"
    return " ".join(f"{c:+d}*{format_factors(f)}" if f else f"{c:+d}" for c, f in rows)
