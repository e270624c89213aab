"""The toric ideal of the second hypersimplex and its exact membership oracles.

The ideal is the kernel of x[a,b] -> t_a*t_b.  Its reduced Groebner basis
under any circular order consists of one quadratic binomial pair per
4-subset, exchanging a noncrossing pair of chords for the crossing pair.
Membership in the ideal and in its secant is decided by the parametric
substitution identities, which are independent of any term order and of the
Groebner machinery they certify.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .poly import Monomial, Polynomial, _rank_image, canonical_sorted


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


@dataclass(frozen=True)
class BinomialGenerator:
    """A generator lead - trail of the toric ideal, lead the noncrossing pair."""

    lead: Monomial
    trail: Monomial
    quadruple: tuple[int, int, int, int]
    family: int  # 1: (ij)(kl) lead, 2: (il)(jk) lead

    def polynomial(self) -> Polynomial:
        return Polynomial(((self.lead, 1), (self.trail, -1)))


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


def toric_gb_polynomials(n: int) -> list[Polynomial]:
    return [g.polynomial() for g in toric_gb(n)]


class MonomialIdeal:
    """A monomial ideal held by its inclusion-minimal generating set.

    Membership and equality queries reduce to divisibility against the
    minimal generators, which are computed once at construction.  Each
    variable of a generator owns one bit, and the index maps a support (the
    bitmask of a generator's variables) to the exponents above 1 of every
    generator with exactly that support.  A divisor of m has its support
    inside m's, so only generators filed under submasks of m's support are
    candidates, and a candidate divides m when each of those exponents is
    met.  The submasks are enumerated while there are no more of them than
    supports in the index (at most 16 for a degree-4 monomial); past that,
    the supports are scanned.  A variable no generator uses has no bit and
    plays no part in the lookup.
    """

    __slots__ = ("generators", "_bits", "_by_support")

    def __init__(self, generators: Iterable[Monomial] = ()):
        self._bits: dict = {}
        self._by_support: dict[int, list[tuple]] = {}
        kept: list[Monomial] = []
        # Sorted by degree, only strictly smaller kept generators can strictly
        # divide a candidate; equal monomials were deduped.
        for m in canonical_sorted(generators):
            if self._has_divisor(m):
                continue
            support = 0
            for v, _ in m.factors:
                bit = self._bits.get(v)
                if bit is None:
                    bit = self._bits[v] = 1 << len(self._bits)
                support |= bit
            heavy = tuple((v, e) for v, e in m.factors if e > 1)
            self._by_support.setdefault(support, []).append(heavy)
            kept.append(m)
        self.generators = tuple(kept)

    def _has_divisor(self, m: Monomial) -> bool:
        """Whether an indexed generator divides m."""
        bits, index = self._bits, self._by_support
        support = 0
        for v, _ in m.factors:
            support |= bits.get(v, 0)
        if 1 << support.bit_count() <= len(index):
            sub = support
            while True:
                heavies = index.get(sub)
                if heavies is not None and _meets(m, heavies):
                    return True
                if not sub:
                    return False
                sub = (sub - 1) & support
        return any(_meets(m, heavies) for s, heavies in index.items() if not s & ~support)

    @property
    def is_empty(self) -> bool:
        return not self.generators

    def __len__(self) -> int:
        return len(self.generators)

    def contains(self, m: Monomial) -> bool:
        """True iff some minimal generator divides m."""
        return self._has_divisor(m)

    __contains__ = contains

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted({m.degree for m in self.generators}))

    def __eq__(self, other) -> bool:
        return isinstance(other, MonomialIdeal) and self.generators == other.generators

    def __hash__(self) -> int:
        return hash(self.generators)

    def __repr__(self) -> str:
        return f"MonomialIdeal({len(self.generators)} minimal generators)"


def _meets(m: Monomial, heavies: list[tuple]) -> bool:
    """Whether m meets every exponent of one of `heavies`, each the exponents
    above 1 of a generator whose support lies inside m's."""
    exps = None
    for heavy in heavies:
        if not heavy:
            return True
        if exps is None:
            exps = dict(m.factors)
        if all(exps[v] >= e for v, e in heavy):
            return True
    return False


def _validate_ambient(n: int, p: Polynomial) -> None:
    if not isinstance(n, int) or n < 3:
        raise ValueError(f"need n >= 3, got {n!r}")
    if not p.uses_only_edge_vars():
        raise ValueError("expected a polynomial in edge variables only")
    for v in p.variables():
        if v[2] > n:
            raise ValueError(f"variable {v!r} is out of range for n={n}")


def in_toric_ideal(n: int, p: Polynomial) -> bool:
    """Exact membership in the kernel of x[a,b] -> t_a*t_b."""
    _validate_ambient(n, p)
    return _rank_image(p, 1, None).is_zero


def in_secant_ideal(n: int, p: Polynomial) -> bool:
    """Exact membership in the rank-2 vanishing ideal, for homogeneous p.

    p vanishes on the rank-2 locus iff its image under x[a,b] ->
    t_a*t_b + u_a*u_b is zero.  That image is invariant under O(2, C) acting
    on every (t_v, u_v) at once, and a rotation takes any non-isotropic
    (t_v, u_v) onto the t-axis, so it is zero iff it is zero with u_v = 0 for
    one vertex v (see poly._rank_image).  The pinned vertex is the one met by
    the most edge factors of p, counted with exponents over all its terms,
    the smallest label on a tie: every such factor then takes only its
    t choice in the expansion.
    """
    _validate_ambient(n, p)
    if not p.is_homogeneous:
        raise ValueError("secant membership oracle requires a homogeneous polynomial")
    return _rank_image(p, 2, _pinned_vertex(p)).is_zero


def _pinned_vertex(p: Polynomial) -> int | None:
    """The vertex in_secant_ideal pins for p, or None if p uses no edge."""
    meets: dict[int, int] = {}
    for m in p.monomials():
        for (_, a, b), e in m.factors:
            meets[a] = meets.get(a, 0) + e
            meets[b] = meets.get(b, 0) + e
    return min(meets, key=lambda v: (-meets[v], v), default=None)
