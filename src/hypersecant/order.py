"""Circular block term orders on edge-variable monomials.

The edges of the complete graph on n circularly arranged vertices fall into
floor(n/2) dihedral orbits, indexed by the circular distance of the chord.
A circular term order compares monomials block by block, orbit 1 (boundary
chords) first, with a selectable inner order inside each block.  Any such
order makes variables in a smaller class beat variables in a larger one,
which is the property all the leading-term results here rely on.
"""

from __future__ import annotations

from .poly import Monomial, Polynomial, Variable, is_edge_var

INNER_ORDERS = ("grevlex", "lex")


def edge_class(n: int, e: tuple[int, int]) -> int:
    """Dihedral orbit of an edge: its circular distance, in 1..floor(n/2)."""
    if not isinstance(n, int) or n < 3:
        raise ValueError(f"need n >= 3, got {n!r}")
    a, b = e
    if not (isinstance(a, int) and isinstance(b, int)):
        raise TypeError("edge endpoints must be ints")
    if a > b:
        a, b = b, a
    if a < 1 or b > n or a == b:
        raise ValueError(f"edge ({e[0]},{e[1]}) is not valid for n={n}")
    return min(b - a, n - (b - a))


class CircularTermOrder:
    """Product (elimination) order over the circular edge classes.

    Inside each class block the variables are ranked ascending by (a, b) and
    compared with the selected inner order, graded reverse lex by default.
    Comparison proceeds block 1, block 2, ... so any monomial with more
    weight in an earlier class wins.  Instances are immutable and the key
    computation is memoized, so sharing across threads is safe after warmup
    only if warmed sequentially; distinct instances are always safe.
    """

    __slots__ = ("n", "inner", "_blocks", "_key_cache")

    def __init__(self, n: int, inner: str = "grevlex"):
        if not isinstance(n, int) or n < 3:
            raise ValueError(f"need n >= 3, got {n!r}")
        if inner not in INNER_ORDERS:
            raise ValueError(f"inner order must be one of {INNER_ORDERS}, got {inner!r}")
        self.n = n
        self.inner = inner
        blocks = []
        for c in range(1, n // 2 + 1):
            vars_c = sorted(
                ("x", a, b)
                for a in range(1, n + 1)
                for b in range(a + 1, n + 1)
                if edge_class(n, (a, b)) == c
            )
            blocks.append(tuple(vars_c))
        self._blocks = tuple(blocks)
        self._key_cache: dict[Monomial, tuple] = {}

    @property
    def block_count(self) -> int:
        return len(self._blocks)

    @property
    def blocks(self) -> tuple[tuple[Variable, ...], ...]:
        """The variables of each class block, block 1 first, each ascending."""
        return self._blocks

    def descriptor(self) -> dict:
        return {"blocks": "circular", "inner": self.inner}

    def key(self, m: Monomial) -> tuple:
        """Sort key: m1 precedes m2 in the order iff key(m1) < key(m2)."""
        k = self._key_cache.get(m)
        if k is not None:
            return k
        exps: dict[Variable, int] = {}
        for v, e in m.factors:
            if not is_edge_var(v):
                raise ValueError(f"monomial contains non-edge variable {v!r}")
            if v[2] > self.n:
                raise ValueError(f"variable {v!r} is out of range for n={self.n}")
            exps[v] = e
        parts = []
        for block in self._blocks:
            vec = tuple(exps.get(v, 0) for v in block)
            if self.inner == "grevlex":
                parts.append((sum(vec), tuple(-x for x in reversed(vec))))
            else:
                parts.append(vec)
        k = tuple(parts)
        self._key_cache[m] = k
        return k

    def compare(self, m1: Monomial, m2: Monomial) -> int:
        """-1, 0 or 1 as m1 is below, equal to or above m2."""
        k1, k2 = self.key(m1), self.key(m2)
        if k1 < k2:
            return -1
        if k1 > k2:
            return 1
        return 0

    def leading_term(self, p: Polynomial) -> tuple[Monomial, int]:
        """The maximal monomial of p with its coefficient; p must be nonzero."""
        if p.is_zero:
            raise ValueError("the zero polynomial has no leading term")
        m = max(p.monomials(), key=self.key)
        return m, p.coefficient(m)

    def leading_monomial(self, p: Polynomial) -> Monomial:
        return self.leading_term(p)[0]

    def __repr__(self) -> str:
        return f"CircularTermOrder(n={self.n}, inner={self.inner!r})"


def both_inner_orders(n: int) -> tuple[CircularTermOrder, CircularTermOrder]:
    """The two shipped instantiations; results quantified over circular orders
    are exercised against both."""
    return CircularTermOrder(n, "grevlex"), CircularTermOrder(n, "lex")
