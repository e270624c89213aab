"""Signed conjugation sums over pairings: master polynomials and their checks.

The construction works on 4k+2 formal letters I_1, J_1, I_2, J_2, ...
arranged on a circle.  A base pairing matches I_l with J_{l+k-1}; the group
generated by the 2k+1 letter transpositions (I_l, J_{l-1}) acts on pairings
by conjugation, and the master polynomial is the sign-weighted sum of the
monomials of all 2^{2k+1} conjugates, specialized through the assignment
I_l -> i_l, J_l -> j_l of an admissible sequence.  master_polynomial reads
each conjugate's endpoints straight off the index arrays, so no pairing is
built; degenerate assignments (i_l = j_l for some l) need no special case,
their collisions cancel in the signed sum.  PairingInvolution,
base_involution and crossing_number keep the formal pairings for the
crossing-number ladder.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from typing import Iterable

from .hypersimplex import in_secant_ideal, in_toric_ideal
from .noncrossing import AdmissibleSequence, cycle_monomial
from .order import CircularTermOrder
from .poly import Monomial, Polynomial, edge_var, partial_derivative

# A letter is ('I', l) or ('J', l) with l in 1..2k+1.
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


@lru_cache(maxsize=2)
def _conjugation_selectors(k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Per subset of the 2k+1 transpositions, each base pair's endpoint choice.

    Base pair l joins I_l and J_{l+k-1}; the transposition (I_l, J_{l-1})
    moves its first letter and (I_{l+k}, J_{l+k-1}) its second, and no other
    transposition touches it.  Pair l's choice is 4l + (first moved) +
    2 (second moved).  Subsets come in the order of increasing size, then
    combinations, each with its sign (-1)^size.  Every master of one k
    shares the table, and sweeps run shortest first, so two are kept.
    """
    length = 2 * k + 1
    out = []
    for r in range(length + 1):
        sign = -1 if r % 2 else 1
        for chosen in combinations(range(length), r):
            mask = sum(1 << l for l in chosen)
            out.append((
                tuple(4 * l + (mask >> l & 1) + 2 * (mask >> (l + k) % length & 1) for l in range(length)),
                sign,
            ))
    return tuple(out)


def master_polynomial(s: AdmissibleSequence) -> Polynomial:
    """Sign-weighted conjugation sum attached to an admissible sequence.

    Each conjugate's monomial is read off the index arrays: a moved letter
    I_l takes the index j_{l-1}, a moved J_m the index i_{m+1}.  An edge
    monomial is packed as one int with a field per edge wide enough for the
    degree, the signed counts are summed per packed monomial so
    opposite-signed collisions cancel, and only the survivors become
    Monomials.  The result is nonzero, homogeneous of degree 2k+1, and its
    coefficients are small ints.  A conjugate pair that joins an index to
    itself raises ValueError (edge_var rejects the loop).
    """
    k, length, ii, jj = s.k, s.length, s.i, s.j
    width = length.bit_length()
    fields: dict[tuple[int, int], int] = {}
    choices = []
    for l in range(length):
        m = (l + k - 1) % length
        for b in (jj[m], ii[(m + 1) % length]):
            for a in (ii[l], jj[l - 1]):
                shift = fields.setdefault((min(a, b), max(a, b)), width * len(fields))
                choices.append(1 << shift)
    pick = choices.__getitem__
    acc: dict[int, int] = {}
    for selector, sign in _conjugation_selectors(k):
        key = sum(map(pick, selector))
        nc = acc.get(key, 0) + sign
        if nc:
            acc[key] = nc
        else:
            acc.pop(key, None)
    mask = (1 << width) - 1
    edges = [(edge_var(a, b), shift) for (a, b), shift in fields.items()]
    return Polynomial(
        (Monomial._of({v: e for v, shift in edges if (e := key >> shift & mask)}), c)
        for key, c in acc.items()
    )


def verify_membership(n: int, s: AdmissibleSequence) -> bool:
    """Nonzero and inside the rank-2 vanishing ideal."""
    f = master_polynomial(s)
    return not f.is_zero and in_secant_ideal(n, f)


def verify_prolongation(n: int, f: Polynomial, bound: int) -> bool:
    """All partial derivatives of order 1..bound lie in the toric ideal.

    Vanishing derivatives pass; f itself is not required to be a member.
    When f is multilinear only squarefree derivative multisets are checked,
    since repeated differentiation kills every term; otherwise repeated
    edges are included up to the bound.
    """
    if not f.is_homogeneous:
        raise ValueError("prolongation check requires a homogeneous polynomial")
    if not isinstance(bound, int) or bound < 0:
        raise ValueError(f"need bound >= 0, got {bound!r}")
    if f.is_zero or bound == 0:
        return True
    edges = tuple((v[1], v[2]) for v in f.variables())
    chooser = combinations if f.is_multilinear else combinations_with_replacement
    for size in range(1, bound + 1):
        for multiset in chooser(edges, size):
            d = partial_derivative(f, multiset)
            if d.is_zero:
                continue
            if not in_toric_ideal(n, d):
                return False
    return True


def verify_leading_term(n: int, s: AdmissibleSequence, order: CircularTermOrder) -> bool:
    """The order's leading monomial of the master polynomial is the cycle monomial."""
    f = master_polynomial(s)
    if f.is_zero:
        return False
    return order.leading_monomial(f) == cycle_monomial(s)
