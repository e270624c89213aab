"""The noncrossing graph, its odd-cycle ideals, and admissible sequences.

Vertices of the noncrossing graph are the chords of the n-gon; two chords
are adjacent when they neither share an endpoint nor interleave.  Induced
odd cycles of this graph index the generators of the secant of the edge
ideal, and the interleaved index chains enumerated here (admissible
sequences) parameterize those cycles together with their defining
polynomials.

An admissible sequence is a cyclic chain

    i_1 <= j_1 < i_2 <= j_2 < ... < i_{2k+1} <= j_{2k+1} (< i_1)

read around the circle, advancing exactly one full revolution.  The stored
canonical form is the unique rotation that is either fully increasing, or
increasing with the wrap inside the last pair (j_{2k+1} < i_1).  Its i's
strictly increase, so it is the rotation that starts at the least i.
"""

from __future__ import annotations

from itertools import chain, combinations
from heapq import merge
from operator import ne, sub
from typing import Iterable, Iterator, NamedTuple

from .hypersimplex import MonomialIdeal, crosses
from .order import CircularTermOrder, _Packing
from .poly import edge_factors, edge_var


class NoncrossingGraph:
    """The graph of pairwise noncrossing chords of the n-gon.

    Adjacency is kept as per-vertex bitmasks; induced_odd_cycles grows its
    paths on them.
    """

    __slots__ = ("n", "vertices", "_adj")

    def __init__(self, n: int):
        if not isinstance(n, int) or n < 3:
            raise ValueError(f"need n >= 3, got {n!r}")
        self.n = n
        self.vertices = tuple(
            (a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
        )
        adj = [0] * len(self.vertices)
        for i, e in enumerate(self.vertices):
            for j in range(i + 1, len(self.vertices)):
                if not crosses(n, e, self.vertices[j]):
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        self._adj = tuple(adj)

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def adjacency_pairs(self) -> tuple[tuple[tuple[int, int], tuple[int, int]], ...]:
        """All adjacent vertex pairs (e, f) with e < f, in vertex order."""
        out = []
        for i, e in enumerate(self.vertices):
            mask = self._adj[i] >> (i + 1) << (i + 1)
            while mask:
                low = mask & -mask
                mask ^= low
                out.append((e, self.vertices[low.bit_length() - 1]))
        return tuple(out)

    def __repr__(self) -> str:
        return f"NoncrossingGraph(n={self.n}, vertices={len(self.vertices)})"


def initial_edge_ideal(n: int) -> MonomialIdeal:
    """The ideal of all noncrossing chord pairs, i.e. the toric initial ideal:
    one generator per edge of the noncrossing graph, packed in the grevlex
    packing for degree 2 (see _chord_keys).  Needs n >= 3."""
    g = NoncrossingGraph(n)
    packing, key = _chord_keys(g, None, 2)
    return MonomialIdeal([key[e] + key[f] for e, f in g.adjacency_pairs()], packing)


def odd_floor(n: int) -> int:
    """Length of the longest odd cycle on n vertices."""
    return n if n % 2 else n - 1


def induced_odd_cycles(g: NoncrossingGraph, max_len: int) -> list[tuple[tuple[int, int], ...]]:
    """All induced cycles of odd length in [3, max_len], by size, then vertex index.

    Each cycle is grown as an induced path from its smallest vertex, the
    root.  A path may take a vertex above the root that is adjacent to its
    end, off the path and not adjacent to any inner path vertex; a vertex
    that is also adjacent to the root closes the cycle instead of extending
    the path.  Each cycle is closed in both directions, so it is kept only
    when its second vertex is smaller than its last.
    """
    if max_len % 2 == 0 or max_len < 3:
        raise ValueError(f"max_len must be an odd integer >= 3, got {max_len!r}")
    adj = g._adj
    found: list[tuple[int, ...]] = []

    def grow(path: list[int], blocked: int, root_adj: int) -> None:
        # blocked: the path and the neighbours of its inner vertices
        end = path[-1]
        size = len(path) + 1
        rest = adj[end] & ~blocked
        while rest:
            low = rest & -rest
            rest ^= low
            w = low.bit_length() - 1
            if low & root_adj:
                if size % 2 and path[1] < w:
                    found.append(tuple(sorted(path + [w])))
            elif size < max_len:
                path.append(w)
                grow(path, blocked | low | adj[end], root_adj)
                path.pop()

    for root in range(len(adj)):
        above = -1 << (root + 1)
        root_adj = adj[root] & above
        rest = root_adj
        while rest:
            low = rest & -rest
            rest ^= low
            # Vertices at or below the root are never taken.
            grow([root, low.bit_length() - 1], ~above | low, root_adj)
    found.sort(key=lambda c: (len(c), c))
    return [tuple(g.vertices[v] for v in c) for c in found]


def _chord_keys(g: NoncrossingGraph, order: CircularTermOrder | None, degree: int) -> tuple[_Packing, dict]:
    """The packing of `order` (grevlex if None) for monomials of degree at
    most `degree`, and each chord's edge variable packed in it.  A product of
    chords is packed as the sum of theirs."""
    if order is None:
        order = CircularTermOrder(g.n)
    elif order.n != g.n:
        raise ValueError(f"the order is for n={order.n}, the graph for n={g.n}")
    packing = order.packing(degree)
    return packing, {e: packing.join(1 << packing.offset[edge_var(*e)]) for e in g.vertices}


def secant_of_edge_ideal(g: NoncrossingGraph, max_len: int, order: CircularTermOrder | None = None) -> MonomialIdeal:
    """Squarefree monomials of the induced odd cycles, as a monomial ideal
    packed in `order`'s packing for degree max_len (see _chord_keys).

    No two induced cycles are nested, so minimalization never removes a
    generator here; the constructor still normalizes.
    """
    packing, key = _chord_keys(g, order, max_len)
    return MonomialIdeal([sum(map(key.__getitem__, c)) for c in induced_odd_cycles(g, max_len)], packing)


def symbolic_square_of_edge_ideal(g: NoncrossingGraph, order: CircularTermOrder | None = None) -> MonomialIdeal:
    """Triangles plus products of adjacent pairs, minimalized, packed in
    `order`'s packing for degree 4 (see _chord_keys).

    Degree three: each triangle of the graph.  Degree four: the product of
    two (not necessarily disjoint) adjacent pairs, including the square of a
    single pair.  Both are streamed, in that order, to the minimalization,
    which drops a repeated product as it drops a multiple.
    """
    packing, key = _chord_keys(g, order, 4)
    triangles = (sum(map(key.__getitem__, c)) for c in induced_odd_cycles(g, 3))
    pairs = [key[e] + key[f] for e, f in g.adjacency_pairs()]
    return MonomialIdeal(chain(triangles, (p + q for a, p in enumerate(pairs) for q in pairs[a:])), packing)


class _Fields(NamedTuple):
    k: int
    i: tuple[int, ...]
    j: tuple[int, ...]


class AdmissibleSequence(_Fields):
    """Canonical interleaved index chain of odd length 2k+1.

    Stored in the canonical rotation described in the module docstring.
    The entry i_l may equal j_l (a degenerate tie); the loop-freeness
    condition i_l != j_{l+k-1 mod 2k+1} guarantees that the associated cycle
    monomial has no self-paired index.  A checked tuple (k, i, j): the
    constructor, which pickling and copying call too, validates; equality,
    hashing and order are the plain tuple's.
    """

    __slots__ = ()

    def __new__(cls, k: int, i: tuple[int, ...], j: tuple[int, ...]):
        if not isinstance(k, int) or k < 1:
            raise ValueError(f"need k >= 1, got {k!r}")
        length = 2 * k + 1
        if len(i) != length or len(j) != length:
            raise ValueError(f"index arrays must have length {length}")
        if any(not isinstance(v, int) or v < 1 for v in i + j):
            raise ValueError("indices must be positive ints")
        for l in range(length):
            if l and not j[l - 1] < i[l]:
                raise ValueError(
                    f"not in canonical form: need j_{l} < i_{l + 1} "
                    f"(got {j[l - 1]} and {i[l]})"
                )
            if l < length - 1 and not i[l] <= j[l]:
                raise ValueError(
                    f"not in canonical form: need i_{l + 1} <= j_{l + 1} "
                    f"(got {i[l]} and {j[l]})"
                )
        # Last pair either continues the increase (no wrap) or wraps below i_1.
        if not (i[-1] <= j[-1] or j[-1] < i[0]):
            raise ValueError(
                "not a one-revolution chain: the last pair must either ascend "
                f"or wrap strictly below i_1 (got i={i[-1]}, j={j[-1]}, i_1={i[0]})"
            )
        for l in range(length):
            if i[l] == j[(l + k - 1) % length]:
                raise ValueError(
                    f"loop: i_{l + 1} equals j_{(l + k - 1) % length + 1}, "
                    "the cycle monomial would need a degenerate edge"
                )
        return super().__new__(cls, k, i, j)

    @classmethod
    def _make(cls, fields: Iterable) -> "AdmissibleSequence":
        # The tuple's _make, and _replace through it, would skip the checks.
        return cls(*fields)

    @property
    def length(self) -> int:
        return 2 * self.k + 1

    def to_json(self) -> dict:
        return {"k": self.k, "i": list(self.i), "j": list(self.j)}

    def __str__(self) -> str:
        return f"k={self.k} i={','.join(map(str, self.i))} j={','.join(map(str, self.j))}"

    def min_ambient(self) -> int:
        """Smallest n this sequence is valid for (any larger n works too)."""
        return max(self.i + self.j)

    @classmethod
    def from_arrays(cls, i_vals: Iterable[int], j_vals: Iterable[int]) -> "AdmissibleSequence":
        """Build from any rotation of the paired sequence; canonicalizes to
        the rotation that starts at the least i."""
        ii, jj = tuple(i_vals), tuple(j_vals)
        if len(ii) != len(jj):
            raise ValueError("index arrays must have equal length")
        length = len(ii)
        if length < 3 or length % 2 == 0:
            raise ValueError(f"length must be odd and >= 3, got {length}")
        r = ii.index(min(ii))
        return cls((length - 1) // 2, ii[r:] + ii[:r], jj[r:] + jj[:r])


def admissible_sequences(n: int, k: int) -> Iterator[AdmissibleSequence]:
    """All canonical admissible sequences of length L = 2k+1 with indices in
    1..n, streamed in the order of their flat tuples (i_1, j_1, ..., i_L, j_L).
    A bad n or k raises ValueError at the call.

    Subtracting (p + 1) // 2 from entry p of a strictly increasing tuple
    gives a flat chain i_1 <= j_1 < i_2 <= ...: the chains with no wrap are
    the 2L-subsets of 1..n+L, and those that wrap are the (2L-1)-subsets of
    1..n+L-1, each followed by a last j below i_1.  Each family comes in
    flat order, so the stream merges the two.  Loops are dropped.
    """
    if not isinstance(n, int) or n < 3:
        raise ValueError(f"need n >= 3, got {n!r}")
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"need k >= 1, got {k!r}")
    length = 2 * k + 1
    if length > n:  # a chain needs `length` distinct i's
        return iter(())
    shift = [(p + 1) // 2 for p in range(2 * length)]

    def chains(size: int):
        return (tuple(map(sub, c, shift)) for c in combinations(range(1, n + size // 2 + 1), size))

    wraps = (head + (last,) for head in chains(2 * length - 1) for last in range(1, head[0]))

    def stream():
        for flat in merge(chains(2 * length), wraps):
            ii, jj = flat[0::2], flat[1::2]
            # i_l against j_{l+k-1}: no loop.
            if all(map(ne, ii, jj[k - 1:] + jj[:k - 1])):
                yield AdmissibleSequence(k, ii, jj)

    return stream()


def all_admissible_sequences(n: int) -> Iterator[AdmissibleSequence]:
    """Admissible sequences of every odd length 3..n, shortest first, streamed."""
    return chain.from_iterable(admissible_sequences(n, k) for k in range(1, (n - 1) // 2 + 1))


def cycle_monomial(s: AdmissibleSequence) -> tuple:
    """The factors of the product over l of x[i_l, j_{l+k-1}], indices
    modulo 2k+1."""
    return edge_factors((s.i[l], s.j[(l + s.k - 1) % s.length]) for l in range(s.length))
