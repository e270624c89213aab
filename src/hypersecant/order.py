"""Circular block term orders on edge-variable monomials.

The edges of the complete graph on n circularly arranged vertices fall into
floor(n/2) dihedral orbits, indexed by the circular distance of the chord.
A circular term order compares monomials block by block, orbit 1 (boundary
chords) first, with a selectable inner order inside each block.  Any such
order makes variables in a smaller class beat variables in a larger one,
which is the property all the leading-term results here rely on.

The order is encoded once, as a packed integer weight (`_Packing`).  The
same ints sort output terms and drive division in the S-pair engine.

Every polynomial is held in one form, its rows: the (coefficient, factors)
pairs of its terms.  Rows name each monomial at most once, each with a
nonzero coefficient; a consumer that keys terms by monomial raises
ValueError on rows that break this (_check_terms).  Rows are in any order
unless said otherwise; every polynomial a command writes is descending in
the order.  `_Packing.terms` packs and sorts rows, `_Packing.product_rows`
gives the rows of a product straight from its factors' packed terms, and
`master.master_terms` those of a master from its packed conjugates, read
back by `_Packing.factors`.
"""

from __future__ import annotations

from .poly import _interned, is_edge_var, product_factors

INNER_ORDERS = ("grevlex", "lex")


def _check_terms(terms) -> None:
    """Raise ValueError unless these (monomial key, coefficient) pairs, one
    per row, keep the row invariant."""
    if len({k for k, _ in terms}) < len(terms):
        raise ValueError("the rows name a monomial twice")
    if not all(c for _, c in terms):
        raise ValueError("the rows hold a zero coefficient")


def normalize_edge(n: int, e: tuple[int, int]) -> tuple[int, int]:
    a, b = e
    if a > b:
        a, b = b, a
    if a < 1 or b > n or a == b:
        raise ValueError(f"edge ({e[0]},{e[1]}) is not valid for n={n}")
    return (a, b)


def edge_class(n: int, e: tuple[int, int]) -> int:
    """Dihedral orbit of an edge: its circular distance, in 1..floor(n/2)."""
    if not isinstance(n, int) or n < 3:
        raise ValueError(f"need n >= 3, got {n!r}")
    a, b = e
    if not (isinstance(a, int) and isinstance(b, int)):
        raise TypeError("edge endpoints must be ints")
    a, b = normalize_edge(n, e)
    return min(b - a, n - (b - a))


class CircularTermOrder:
    """Product (elimination) order over the circular edge classes.

    Inside each class block the variables are ranked ascending by (a, b) and
    compared with the selected inner order, graded reverse lex by default.
    Comparison proceeds block 1, block 2, ... so any monomial with more
    weight in an earlier class wins.  `packing(degree)` ranks monomials of
    total degree at most `degree`; it is built on first use and kept, one
    per field width.
    """

    __slots__ = ("n", "inner", "_blocks", "_packings")

    def __init__(self, n: int, inner: str = "grevlex"):
        if not isinstance(n, int) or n < 3:
            raise ValueError(f"need n >= 3, got {n!r}")
        if inner not in INNER_ORDERS:
            raise ValueError(f"inner order must be one of {INNER_ORDERS}, got {inner!r}")
        self.n = n
        self.inner = inner
        # Visiting the edges in (a, b) order leaves every block ascending.
        blocks: list[list] = [[] for _ in range(n // 2)]
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                blocks[edge_class(n, (a, b)) - 1].append(("x", a, b))
        self._blocks = tuple(map(tuple, blocks))
        self._packings: dict[int, _Packing] = {}

    def descriptor(self) -> dict:
        return {"blocks": "circular", "inner": self.inner}

    def packing(self, degree: int) -> "_Packing":
        """The packing for monomials of total degree at most `degree`: the
        fewest-bit fields that hold it, built on first use."""
        bits = max(degree, 1).bit_length()
        pk = self._packings.get(bits)
        if pk is None:
            pk = self._packings[bits] = _Packing(self, bits)
        return pk

    def __repr__(self) -> str:
        return f"CircularTermOrder(n={self.n}, inner={self.inner!r})"


class _Packing:
    """Edge monomials under one circular order, packed as (weight << E) | fields.

    After Monagan and Pearce (packed exponent vectors; CASC 2007, JSC 2011).
    `fields` is a row of slots of bits + 1 bits; the top bit of a slot is a
    guard, clear in every stored monomial.  Each block owns the same number of
    slots: an empty one on top, its variables below it, then unused ones.
    Read as digits in base 2**(bits + 1), the order weight is, block 1 first:
      lex      the exponents, so the weight is the fields themselves;
      grevlex  the block degree in the empty slot, then the exponents negated
               in reverse variable order.
    That is a balanced mixed-radix integer, so int comparison is the circular
    order while no total degree exceeds `limit`.  Both parts are linear in
    the exponents, so multiplying monomials is `+`.
    """

    def __init__(self, order: CircularTermOrder, bits: int):
        blocks = order._blocks
        self.n = order.n
        self.bits = bits
        self.limit = (1 << bits) - 1
        self.lex = order.inner == "lex"
        w = bits + 1
        span = max(len(block) for block in blocks) + 1
        slots = span * len(blocks)
        self.offset: dict = {}
        degree_slots = 0
        for c, block in enumerate(blocks):
            top = slots - 1 - c * span
            degree_slots |= ((1 << w) - 1) << (w * top)
            for k, v in enumerate(block):
                self.offset[v] = w * (top - 1 - k if self.lex else top - len(block) + k)
        # Per variable's slot, keyed by its guard bit: the variable and offset.
        self._slots = {1 << (at + bits): (v, at) for v, at in self.offset.items()}
        self._pairs: dict = {}
        self.ones = sum(1 << (w * s) for s in range(slots))
        self.guard = self.ones << bits
        # Per block, the guard bits of its variables' slots.
        self.block_guards = tuple(
            sum(1 << (self.offset[v] + bits) for v in block) for block in blocks
        )
        self.shift = w * slots
        self.fields_mask = (1 << self.shift) - 1
        self._degree_slots = degree_slots
        # Multiplying by the window sums each block's span - 1 slots into the
        # slot above them; no window sum exceeds `limit`, so nothing carries.
        self._window = sum(1 << (w * k) for k in range(1, span))

    def join(self, fields: int) -> int:
        """The packed monomial with these exponent fields."""
        if self.lex:
            weight = fields
        else:
            weight = ((fields * self._window) & self._degree_slots) - fields
        return (weight << self.shift) | fields

    def degree(self, p: int) -> int:
        """The degree of packed p: its fields times `ones` sum into the top slot."""
        return (p & self.fields_mask) * self.ones >> self.shift - self.bits - 1 & 2 * self.limit + 1

    def pack(self, factors: tuple) -> int:
        fields = 0
        for v, e in factors:
            at = self.offset.get(v)
            if at is None:
                if not is_edge_var(v):
                    raise ValueError(f"monomial contains non-edge variable {v!r}")
                raise ValueError(f"variable {v!r} is out of range for n={self.n}")
            fields += e << at
        return self.join(fields)

    def terms(self, rows) -> list[tuple[int, int, tuple]]:
        """The rows as (packed monomial, coefficient, factors), descending."""
        pack = self.pack
        return sorted(((pack(f), c, f) for c, f in rows), reverse=True)

    def product_rows(self, a: list, b: list) -> list[tuple[int, tuple]]:
        """The rows of the product of two polynomials given by their terms()
        in this packing, which must hold the product's degree, descending.

        Each pair of terms gives one packed monomial, the sum of theirs; equal
        ones merge, and a zero coefficient drops out.  The
        factors of a surviving term are merged from one pair that gives it.
        """
        acc: dict = {}
        for k1, c1, f1 in a:
            for k2, c2, f2 in b:
                k = k1 + k2
                t = acc.get(k)
                acc[k] = (c1 * c2, f1, f2) if t is None else (t[0] + c1 * c2, f1, f2)
        guard, ones = self.guard, self.ones
        rows = []
        for k, (c, f1, f2) in sorted(acc.items(), reverse=True):
            if c:
                # With as many variables as both factors have, none is shared:
                # the pairs of both, sorted, are the product's.
                if (((k | guard) - ones) & guard).bit_count() == len(f1) + len(f2):
                    rows.append((c, tuple(sorted(f1 + f2))))
                else:
                    rows.append((c, product_factors(f1, f2)))
        return rows

    def factors(self, p: int) -> tuple:
        """The factors of the packed monomial p, as rows hold them:
        read off the slots whose guard bit marks them nonzero.  Each slot's
        bits, in place, key its interned (variable, exponent) pair in
        `_pairs`, which holds at most one entry per pair."""
        fields, guard, bits = p & self.fields_mask, self.guard, self.bits
        support = ((fields | guard) - self.ones) & guard
        pairs = []
        while support:
            low = support & -support
            part = fields & (low - (low >> bits))
            pair = self._pairs.get(part)
            if pair is None:
                v, at = self._slots[low]
                pair = self._pairs[part] = _interned([(v, part >> at)])[0]
            pairs.append(pair)
            support ^= low
        pairs.sort()
        return tuple(pairs)
