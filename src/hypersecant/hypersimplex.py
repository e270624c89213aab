"""The toric ideal of the second hypersimplex and its exact membership oracles.

The ideal is the kernel of x[a,b] -> t_a*t_b.  Its reduced Groebner basis
under any circular order consists of one quadratic binomial pair per
4-subset, exchanging a noncrossing pair of chords for the crossing pair.
Membership in the ideal and in its secant is decided by the parametric
substitution identities, which are independent of any term order and of the
Groebner machinery they certify.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Iterable, NamedTuple

from .order import _check_terms
from .poly import Monomial, _rank_image, canonical_sorted, is_edge_var


def normalize_edge(n: int, e: tuple[int, int]) -> tuple[int, int]:
    a, b = e
    if a > b:
        a, b = b, a
    if a < 1 or b > n or a == b:
        raise ValueError(f"edge ({e[0]},{e[1]}) is not valid for n={n}")
    return (a, b)


def crosses(n: int, e: tuple[int, int], f: tuple[int, int]) -> bool:
    """Whether two chords of the circular drawing intersect.

    Chords sharing an endpoint count as crossing; four distinct endpoints
    cross exactly when they interleave around the circle.
    """
    a, b = normalize_edge(n, e)
    c, d = normalize_edge(n, f)
    if len({a, b, c, d}) < 4:
        return True
    return (a < c < b) != (a < d < b)


class BinomialGenerator(NamedTuple):
    """A generator lead - trail of the toric ideal, lead the noncrossing pair."""

    lead: Monomial
    trail: Monomial
    quadruple: tuple[int, int, int, int]
    family: int  # 1: (ij)(kl) lead, 2: (il)(jk) lead

    def rows(self) -> list[tuple[int, tuple]]:
        return [(1, self.lead.factors), (-1, self.trail.factors)]


def toric_gb(n: int) -> list[BinomialGenerator]:
    """The quadratic binomials, two per 4-subset, in (i,j,k,l)-then-family order."""
    if not isinstance(n, int) or n < 3:
        raise ValueError(f"need n >= 3, got {n!r}")
    out = []
    for i, j, k, l in combinations(range(1, n + 1), 4):
        trail = Monomial.from_edges([(i, k), (j, l)])
        out.append(BinomialGenerator(Monomial.from_edges([(i, j), (k, l)]), trail, (i, j, k, l), 1))
        out.append(BinomialGenerator(Monomial.from_edges([(i, l), (j, k)]), trail, (i, j, k, l), 2))
    return out


class MonomialIdeal:
    """A monomial ideal held by its inclusion-minimal generating set.

    The generators are packed monomials of a CircularTermOrder `packing`
    (order._Packing), given with it: each variable owns a field with a guard
    bit above it, so g divides m iff subtracting g's fields from m's, every
    guard set, clears no guard.  `keys` holds the minimal generators,
    `contains_key` looks up another packed monomial, and the Monomials of
    `generators` are read back when first asked for.  Membership and
    equality queries reduce to divisibility against the minimal generators,
    which are computed once at construction.  The support of a monomial is
    the set of guard bits of its nonzero fields, and the index maps a
    support to the fields of every generator with exactly that support.  A
    divisor of m has its support inside m's, so only generators filed under
    submasks of m's support are candidates.  The submasks are enumerated
    while there are no more of them than supports in the index (at most 16
    for a degree-4 monomial); past that, the supports are scanned.  A
    divisor is smaller in the term order, so generators sorted by packed
    monomial are minimal once none before them divides them.
    """

    __slots__ = ("packing", "keys", "_by_support", "_generators")

    def __init__(self, generators: Iterable[int], packing):
        self.packing = packing
        self._by_support: dict[int, list[int]] = {}
        self._generators = None
        self.keys = tuple(p for p in sorted(set(generators)) if self._keep(p & packing.fields_mask))

    def _keep(self, fields: int) -> bool:
        """Index a generator unless an indexed one divides it."""
        if self._has_divisor(fields):
            return False
        guard = self.packing.guard
        self._by_support.setdefault(((fields | guard) - self.packing.ones) & guard, []).append(fields)
        return True

    def _has_divisor(self, fields: int) -> bool:
        """Whether an indexed generator divides the monomial with these fields."""
        guard, index = self.packing.guard, self._by_support
        pg = fields | guard
        support = (pg - self.packing.ones) & guard
        if 1 << support.bit_count() <= len(index):
            sub = support
            while True:
                gens = index.get(sub)
                if gens is not None:
                    for g in gens:
                        if (pg - g) & guard == guard:
                            return True
                if not sub:
                    return False
                sub = (sub - 1) & support
        for s, gens in index.items():
            if not s & ~support:
                for g in gens:
                    if (pg - g) & guard == guard:
                        return True
        return False

    @property
    def generators(self) -> tuple[Monomial, ...]:
        """The minimal generators, in canonical order."""
        if self._generators is None:
            factors = self.packing.factors
            self._generators = tuple(canonical_sorted(Monomial._with(factors(p)) for p in self.keys))
        return self._generators

    def __len__(self) -> int:
        return len(self.keys)

    def contains_key(self, p: int) -> bool:
        """True iff some minimal generator divides the monomial packed as p
        in the ideal's packing."""
        return self._has_divisor(p & self.packing.fields_mask)

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted({m.degree for m in self.generators}))

    def __eq__(self, other) -> bool:
        return isinstance(other, MonomialIdeal) and self.generators == other.generators

    def __hash__(self) -> int:
        return hash(self.generators)

    def __repr__(self) -> str:
        return f"MonomialIdeal({len(self)} minimal generators)"


def _validate_ambient(n: int, variables: Iterable) -> None:
    if not isinstance(n, int) or n < 3:
        raise ValueError(f"need n >= 3, got {n!r}")
    variables = list(variables)
    if not all(map(is_edge_var, variables)):
        raise ValueError("expected a polynomial in edge variables only")
    for v in variables:
        if v[2] > n:
            raise ValueError(f"variable {v!r} is out of range for n={n}")


def _variables(rows) -> set:
    return {v for v, _ in chain.from_iterable(f for _, f in rows)}


def in_toric_ideal(n: int, rows) -> bool:
    """Exact membership in the kernel of x[a,b] -> t_a*t_b, for the
    polynomial with these (coefficient, factors) rows."""
    _validate_ambient(n, _variables(rows))
    return not _rank_image(rows, 1, None)


def in_secant_ideal(n: int, rows) -> bool:
    """Exact membership in the rank-2 vanishing ideal, for the homogeneous
    polynomial with these (coefficient, factors) rows.

    p vanishes on the rank-2 locus iff its image under x[a,b] ->
    t_a*t_b + u_a*u_b is zero.  That image is invariant under O(2, C) acting
    on every (t_v, u_v) at once, and a rotation takes any non-isotropic
    (t_v, u_v) onto the t-axis, so it is zero iff it is zero with u_v = 0 for
    one vertex v (see poly._rank_image).  The pinned vertex is the one met by
    the most edge factors of p, counted with exponents over all its terms,
    the smallest label on a tie: every such factor then takes only its
    t choice in the expansion.
    """
    _validate_ambient(n, _variables(rows))
    if len({sum(e for _, e in f) for _, f in rows}) > 1:
        raise ValueError("secant membership oracle requires a homogeneous polynomial")
    return not _rank_image(rows, 2, _pinned_vertex(rows))


def _pinned_vertex(rows) -> int | None:
    """The vertex in_secant_ideal pins for the polynomial with these rows, or
    None if it uses no edge."""
    meets: dict[int, int] = {}
    for _, factors in rows:
        for (_, a, b), e in factors:
            meets[a] = meets.get(a, 0) + e
            meets[b] = meets.get(b, 0) + e
    return min(meets, key=lambda v: (-meets[v], v), default=None)


class SecantClasses:
    """in_secant_ideal at n, its verdicts memoized by relabelling class.

    Called on the (coefficient, factors) rows of a homogeneous polynomial;
    rows that break the row invariant (see order.py) raise ValueError.
    The secant ideal is S_n-invariant, so a vertex relabelling keeps every
    verdict.  The class key relabels the vertices the rows use, increasingly,
    to 0..|support|-1, packs each relabelled term with a field per edge, and
    is the set of (packed term, coefficient) pairs with the field width: two
    polynomials share a key iff one is the other relabelled increasingly.
    Such a relabelling also keeps _pinned_vertex's choice, so the oracle's
    computation is literally the same for both.  The key is computed from
    the rows alone, so a changed polynomial never inherits a verdict, and
    a variable outside the edges of n raises ValueError before any lookup.
    The memo lives as long as the instance, one certification run, and holds
    at most one verdict per polynomial asked about.
    """

    __slots__ = ("n", "_verdicts")

    def __init__(self, n: int):
        self.n = n
        self._verdicts: dict = {}

    def __call__(self, rows) -> bool:
        key = self._key(rows)
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._verdicts[key] = in_secant_ideal(self.n, rows)
        return verdict

    def _key(self, rows) -> tuple:
        pairs = set(chain.from_iterable(f for _, f in rows))
        _validate_ambient(self.n, {v for v, _ in pairs})
        rank = {a: k for k, a in enumerate(sorted({a for (_, *ends), _ in pairs for a in ends}))}
        w = max([1] + [e for _, e in pairs]).bit_length()
        # The relabelled edge (a, b), a < b, owns field b(b-1)/2 + a.
        packed = {}
        for pair in pairs:
            (_, a, b), e = pair
            a, b = rank[a], rank[b]
            packed[pair] = e << w * (b * (b - 1) // 2 + a)
        get = packed.__getitem__
        terms = [(sum(map(get, f)), c) for c, f in rows]
        _check_terms(terms)
        return w, frozenset(terms)
