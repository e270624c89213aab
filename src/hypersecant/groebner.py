"""Division, S-pair certification, and the candidate bases for both ideals.

The engine verifies rather than completes: the candidate generating sets are
assembled combinatorially (master polynomials, off-diagonal minors, products
of the toric binomials) and Buchberger's criterion plus the combinatorial
initial-ideal match certify them.  All reducers in play have leading
coefficient +-1, so every division stays in integer arithmetic; this is
asserted, not assumed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import combinations, combinations_with_replacement, permutations
from typing import Sequence

from .hypersimplex import (
    MonomialIdeal,
    in_secant_ideal,
    in_toric_ideal,
    initial_edge_ideal,
    toric_gb_polynomials,
)
from .noncrossing import (
    admissible_sequences,
    all_admissible_sequences,
    build_graph,
    odd_floor,
    secant_of_edge_ideal,
    symbolic_square_of_edge_ideal,
)
from .master import master_polynomial
from .order import CircularTermOrder, _Packing
from .poly import Monomial, Polynomial, format_monomial, format_polynomial

SECANT = "secant"
SYMBOLIC_SQUARE = "symbolic-square"

_EVEN_PERMS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    """One certification leg: machine-checked pass/fail, or cited theory."""

    name: str
    status: str  # "pass" | "fail" | "cited"
    witness: object = None

    @property
    def failed(self) -> bool:
        return self.status == "fail"


@dataclass(frozen=True)
class SPairStats:
    count: int = 0
    skipped_coprime: int = 0
    reduced: int = 0
    max_terms: int = 0
    wall_time: float = 0.0


@dataclass(frozen=True)
class GroebnerCertificate:
    """Evidence container: per-leg outcomes plus S-pair statistics."""

    order_descriptor: dict
    generator_count: int
    checks: tuple[CheckResult, ...]
    n: int | None = None
    kind: str | None = None
    spair_stats: SPairStats | None = None

    @property
    def passed(self) -> bool:
        return not any(c.failed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if c.failed)


# ---------------------------------------------------------------------------
# division and S-pairs
# ---------------------------------------------------------------------------
#
# One engine serves reduce() and buchberger_verify.  It works on the order's
# packed monomials, after Monagan and Pearce (sparse division with a heap over
# packed exponent vectors; CASC 2007, JSC 2011): an edge monomial is one int,
# so a product is a sum, the order is int comparison and divisibility is one
# guard-bit test.  Monomial stays the type at the boundary.


class _Overflow(Exception):
    """A term outgrew the degree limit of its packing; redo with wider fields."""


class _Divider:
    """Packed reducers in list order, with full division and the S-pair sweep.

    `gens` holds each reducer as a list of (packed monomial, coefficient).
    A support is the set of guard bits of a monomial's nonzero slots.  `memo`
    maps a term's support to the bitset of reducers whose leading-term support
    fits inside it; a divider lives for one call, and so does its memo.
    """

    def __init__(self, packing: _Packing, gens):
        self.packing = packing
        self.memo: dict = {}
        self.lts, self.ltcs, self.tails, self.grows, self.supports = [], [], [], [], []
        for terms in gens:
            if not terms:
                raise ValueError("reducers must be nonzero")
            lt, ltc = max(terms)
            if ltc not in (1, -1):
                raise ValueError(f"reducer has non-unit leading coefficient {ltc}")
            self.lts.append(lt)
            self.ltcs.append(ltc)
            self.tails.append([t for t in terms if t[0] != lt])
            # How far one rewrite by this reducer can raise a term's degree.
            top = max(packing.degree(p) for p, _ in terms)
            self.grows.append(top - packing.degree(lt))
            self.supports.append(((lt | packing.guard) - packing.ones) & packing.guard)
        # Per slot (keyed by its guard bit), the bitset of reducers whose
        # leading term uses it.
        self._users: dict = {}
        for k, support in enumerate(self.supports):
            while support:
                low = support & -support
                self._users[low] = self._users.get(low, 0) | 1 << k
                support ^= low

    def _fitting(self, support: int) -> int:
        """Bitset of the reducers whose leading-term support lies in `support`."""
        fit = (1 << len(self.lts)) - 1
        for slot, users in self._users.items():
            if not slot & support:
                fit &= ~users
        return fit

    def normal_form(self, work: dict) -> tuple[dict, int]:
        """Full normal form of the term dict `work`, consumed; (remainder, max size).

        The largest remaining term is rewritten by the first reducer in list
        order whose leading term divides it.  A max-heap with lazy deletion
        finds that term: every term pushed is below the one being rewritten,
        so an entry whose term has left `work` is stale and skipped.  Of the
        reducers in the memo's bitset for the term's support, the lowest one
        whose leading term divides it is the first divisor.
        """
        pk, memo = self.packing, self.memo
        guard, ones, limit = pk.guard, pk.ones, pk.limit
        lts, ltcs, tails, grows = self.lts, self.ltcs, self.tails, self.grows
        heap = [-p for p in work]
        heapify(heap)
        rem: dict = {}
        max_terms = len(work)
        while heap:
            p = -heappop(heap)
            c = work.pop(p, 0)
            if not c:
                continue
            pg = p | guard
            support = (pg - ones) & guard
            cands = memo.get(support)
            if cands is None:
                cands = memo[support] = self._fitting(support)
            while cands:
                low = cands & -cands
                i = low.bit_length() - 1
                if (pg - lts[i]) & guard == guard:
                    break
                cands ^= low
            else:
                rem[p] = c
                continue
            if grows[i] > 0 and pk.degree(p) + grows[i] > limit:
                raise _Overflow
            cof = p - lts[i]
            scale = c * ltcs[i]
            for gp, gc in tails[i]:
                q = gp + cof
                old = work.get(q)
                if old is None:
                    work[q] = -scale * gc
                    heappush(heap, -q)
                else:
                    nc = old - scale * gc
                    if nc:
                        work[q] = nc
                    else:
                        del work[q]
            size = len(work) + len(rem)
            if size > max_terms:
                max_terms = size
        return rem, max_terms

    def verify_pairs(self, pairs):
        """Reduce the S-polynomial of each listed pair; collect failures."""
        pk = self.packing
        guard, fields_mask, bits = pk.guard, pk.fields_mask, pk.bits
        lts, ltcs, tails, supports = self.lts, self.ltcs, self.tails, self.supports
        failures = []
        skipped = reduced = max_terms = 0
        for i, j in pairs:
            if not supports[i] & supports[j]:
                skipped += 1  # coprime leading terms always reduce to zero
                continue
            fi, fj = lts[i] & fields_mask, lts[j] & fields_mask
            ge = ((fi | guard) - fj) & guard  # guards of the slots where fi >= fj
            take = ge - (ge >> bits)
            lcm = (fi & take) | (fj & ~take)
            # The leading terms cancel at the lcm; every other term lies below it.
            work: dict = {}
            for k, f, sign in ((i, fi, 1), (j, fj, -1)):
                cof = pk.join(lcm - f)
                scale = sign * ltcs[k]
                for gp, gc in tails[k]:
                    q = gp + cof
                    nc = work.get(q, 0) + scale * gc
                    if nc:
                        work[q] = nc
                    else:
                        work.pop(q, None)
            reduced += 1
            rem, mt = self.normal_form(work)
            if mt > max_terms:
                max_terms = mt
            if rem:
                failures.append(
                    {
                        "pair": [i, j],
                        "remainder_terms": len(rem),
                        "remainder": format_polynomial(pk.polynomial(rem)),
                    }
                )
        return failures, skipped, reduced, max_terms


def _packed_terms(p: Polynomial, packing: _Packing) -> list[tuple[int, int]]:
    return [(packing.pack(m), c) for m, c in p.terms()]


def _with_packing(order: CircularTermOrder, degree: int, run):
    """run(packing) for a packing whose degree limit is at least `degree`,
    redone with wider fields while a term outgrows them."""
    bits = max(degree, 1).bit_length()
    while True:
        try:
            return run(order.packing(bits))
        except _Overflow:
            bits += 1


def reduce(f: Polynomial, G: Sequence[Polynomial], order: CircularTermOrder) -> Polynomial:
    """Normal form of f modulo G: no remainder term divisible by any LT(g)."""
    G = list(G)

    def run(packing):
        divider = _Divider(packing, [_packed_terms(g, packing) for g in G])
        rem, _ = divider.normal_form(dict(_packed_terms(f, packing)))
        return packing.polynomial(rem)

    return _with_packing(order, max([f.degree] + [g.degree for g in G]), run)


def s_polynomial(f: Polynomial, g: Polynomial, order: CircularTermOrder) -> Polynomial:
    """The lcm-cancellation combination with both leading terms eliminated."""
    ltf, cf = order.leading_term(f)
    ltg, cg = order.leading_term(g)
    if cf not in (1, -1) or cg not in (1, -1):
        raise ValueError("s_polynomial requires unit leading coefficients")
    lcm = ltf.lcm(ltg)
    left = f * Polynomial.from_monomial(lcm.divide_by(ltf), cf)
    right = g * Polynomial.from_monomial(lcm.divide_by(ltg), cg)
    return left - right


_WORKER_CTX: dict = {}


def _worker_init(order, bits, gens):
    _WORKER_CTX["divider"] = _Divider(order.packing(bits), gens)


def _worker_chunk(pairs):
    return _WORKER_CTX["divider"].verify_pairs(pairs)


def _sweep(divider: _Divider, gens, pairs, order: CircularTermOrder, threads: int):
    """Per-chunk (failures, skipped, reduced, max_terms), in pair order."""
    if threads > 1 and len(pairs) > 64:
        try:
            import multiprocessing as mp

            chunk_count = max(threads * 4, 1)
            step = max(1, -(-len(pairs) // chunk_count))
            chunks = [pairs[a : a + step] for a in range(0, len(pairs), step)]
            ctx = mp.get_context("fork")
            with ctx.Pool(
                processes=threads,
                initializer=_worker_init,
                initargs=(order, divider.packing.bits, gens),
            ) as pool:
                return pool.map(_worker_chunk, chunks)
        except (ImportError, OSError):
            pass
    return [divider.verify_pairs(pairs)]


def buchberger_verify(
    G: Sequence[Polynomial],
    order: CircularTermOrder,
    n: int | None = None,
    kind: str | None = None,
    threads: int = 1,
) -> GroebnerCertificate:
    """Certify that every S-pair of G reduces to zero modulo G.

    Pairs with coprime leading terms are skipped (they reduce to zero by the
    product criterion) and counted in the statistics.  Failures carry the
    offending pair and its nonzero remainder as a witness.  With threads > 1
    the pair list is partitioned over a process pool; aggregation order is
    fixed, so the certificate is identical to the serial one.
    """
    G = list(G)
    pairs = [(i, j) for i in range(len(G)) for j in range(i + 1, len(G))]

    def run(packing):
        gens = [_packed_terms(g, packing) for g in G]
        return _sweep(_Divider(packing, gens), gens, pairs, order, threads)

    started = time.perf_counter()
    # An S-polynomial term has degree at most deg LT(g_j) + deg g_i.
    results = _with_packing(order, 2 * max((g.degree for g in G), default=0), run)
    failures: list = []
    skipped = reduced = max_terms = 0
    for fl, sk, rd, mt in results:
        failures.extend(fl)
        skipped += sk
        reduced += rd
        max_terms = max(max_terms, mt)
    stats = SPairStats(
        count=len(pairs),
        skipped_coprime=skipped,
        reduced=reduced,
        max_terms=max_terms,
        wall_time=time.perf_counter() - started,
    )
    check = CheckResult(
        "spairs_reduce_to_zero",
        "pass" if not failures else "fail",
        None if not failures else failures,
    )
    return GroebnerCertificate(
        order_descriptor=order.descriptor(),
        generator_count=len(G),
        checks=(check,),
        n=n,
        kind=kind,
        spair_stats=stats,
    )


# ---------------------------------------------------------------------------
# candidate bases
# ---------------------------------------------------------------------------

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
    acc: dict[Monomial, int] = {}
    for perm in permutations(range(3)):
        sign = 1 if perm in _EVEN_PERMS else -1
        m = Monomial.from_edges((rows[a], cols[perm[a]]) for a in range(3))
        acc[m] = acc.get(m, 0) + sign
    anti = antidiagonal_monomial(rows, cols)
    if acc[anti] < 0:
        acc = {m: -c for m, c in acc.items()}
    return Polynomial(acc)


def antidiagonal_monomial(rows: Sequence[int], cols: Sequence[int]) -> Monomial:
    return Monomial.from_edges((r, c) for r, c in zip(rows, reversed(tuple(cols))))


def off_diagonal_minor_3x3(indices: Sequence[int]) -> Polynomial:
    """Minor on six increasing vertices split as rows 1..3, columns 4..6."""
    idx = tuple(indices)
    if len(idx) != 6 or any(idx[a] >= idx[a + 1] for a in range(5)):
        raise ValueError("need six distinct strictly increasing vertex indices")
    return off_diagonal_minor(idx[:3], idx[3:])


def circular_minor_splits(subset: Sequence[int]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The three splits of a 6-subset into circularly consecutive row/column arcs.

    Starting the circular reading of the sorted subset at positions 0, 1, 2
    yields all distinct arc splits (starts 3..5 transpose the first three).
    The antidiagonals of these splits are exactly the circularly nested
    triples on the subset.
    """
    sub = tuple(sorted(subset))
    if len(sub) != 6 or len(set(sub)) != 6:
        raise ValueError("need six distinct vertex indices")
    out = []
    for start in range(3):
        c = sub[start:] + sub[:start]
        out.append((c[:3], c[3:]))
    return out


def _minor_splits(n: int):
    """(rows, cols) of each circularly consecutive split of each 6-subset of 1..n."""
    for sub in combinations(range(1, n + 1), 6):
        yield from circular_minor_splits(sub)


def nested_triple_monomials(n: int) -> list[Monomial]:
    """The circularly nested noncrossing triples, one family per 6-subset split."""
    return [antidiagonal_monomial(rows, cols) for rows, cols in _minor_splits(n)]


def secant_gb(n: int) -> list[Polynomial]:
    """Candidate basis for the rank-2 vanishing ideal: masters plus minors.

    Master polynomials come from every canonical admissible sequence; the
    minors cover each 6-subset in all three circularly consecutive splits,
    whose antidiagonal leading terms are the nested noncrossing triples.
    """
    if not isinstance(n, int) or n < 4:
        raise ValueError(f"need n >= 4, got {n!r}")
    masters = [master_polynomial(s) for s in all_admissible_sequences(n)]
    return masters + [off_diagonal_minor(rows, cols) for rows, cols in _minor_splits(n)]


def _symbolic_components(n: int):
    minors = [off_diagonal_minor(rows, cols) for rows, cols in _minor_splits(n)]
    masters = [master_polynomial(s) for s in admissible_sequences(n, 1)] if n >= 5 else []
    toric = toric_gb_polynomials(n)
    products = [(a, b, toric[a] * toric[b]) for a, b in combinations_with_replacement(range(len(toric)), 2)]
    return minors, masters, toric, products


def symbolic_square_gb(n: int) -> list[Polynomial]:
    """Candidate basis for the symbolic square: minors, degree-3 masters, and
    products of pairs of the quadratic toric binomials."""
    if not isinstance(n, int) or n < 4:
        raise ValueError(f"need n >= 4, got {n!r}")
    minors, masters, _, products = _symbolic_components(n)
    return minors + masters + [p for _, _, p in products]


def symbolic_square_identity_holds(n: int) -> bool:
    """Monomial-ideal identity: the symbolic square of the initial ideal equals
    its ordinary square plus the secant of the initial ideal."""
    g = build_graph(n)
    square_gens = [
        a.mul(b)
        for a, b in combinations_with_replacement(initial_edge_ideal(n).generators, 2)
    ]
    union = list(square_gens)
    union.extend(secant_of_edge_ideal(g, odd_floor(n)).generators)
    return MonomialIdeal(union) == symbolic_square_of_edge_ideal(g)


# ---------------------------------------------------------------------------
# the certification pipeline
# ---------------------------------------------------------------------------

def _master_family(s) -> dict:
    return {"family": "master", "k": s.k, "i": list(s.i), "j": list(s.j)}


def _minor_families(n: int) -> list[dict]:
    return [{"family": "minor", "rows": list(rows), "cols": list(cols)} for rows, cols in _minor_splits(n)]


def _normalize_kind(kind: str) -> str:
    if kind in (SECANT,):
        return SECANT
    if kind in (SYMBOLIC_SQUARE, "symbolic", "symbolic_square"):
        return SYMBOLIC_SQUARE
    raise ValueError(f"kind must be 'secant' or 'symbolic-square', got {kind!r}")


def delightful_check(
    n: int,
    kind: str,
    order: CircularTermOrder,
    with_buchberger: bool = False,
    threads: int = 1,
) -> GroebnerCertificate:
    """Full certification that the candidate basis cuts out the right ideal.

    Legs: (a) every candidate generator passes the exact membership oracle
    for its ideal; (b) the minimal generators of the leading-term ideal
    coincide with the combinatorial target; (c) optionally, every S-pair
    reduces to zero.  Together with the cited containment of the initial
    ideal of a secant in the secant of the initial ideal, (a)+(b) force the
    initial ideals to agree, so the candidates form a Groebner basis.

    Each membership failure names its generator by list index and family:
    a master by its sequence (k, i, j), a minor by its split (rows, cols),
    a product by the indices (a, b) of its toric factors.
    """
    if not isinstance(n, int) or n < 4:
        raise ValueError(f"need n >= 4, got {n!r}")
    kind = _normalize_kind(kind)
    checks: list[CheckResult] = []
    graph = build_graph(n)

    if kind == SECANT:
        gens = secant_gb(n)
        bad = [gi for gi, g in enumerate(gens) if not in_secant_ideal(n, g)]
        if bad:
            families = [_master_family(s) for s in all_admissible_sequences(n)] + _minor_families(n)
            bad = [
                {"index": gi, **families[gi],
                 "generator": format_polynomial(gens[gi], order.sort_key(gens[gi].degree))}
                for gi in bad
            ]
        checks.append(
            CheckResult("generators_vanish_on_rank_two_locus", "fail" if bad else "pass", bad or None)
        )
        target = secant_of_edge_ideal(graph, odd_floor(n))
    else:
        minors, masters, toric, products = _symbolic_components(n)
        gens = minors + masters + [p for _, _, p in products]
        bad = [(gi, "rank-2 oracle failed") for gi, g in enumerate(minors + masters) if not in_secant_ideal(n, g)]
        factor_ok = [in_toric_ideal(n, t) for t in toric]
        offset = len(minors) + len(masters)
        bad += [
            (offset + pi, "factor outside toric ideal")
            for pi, (a, b, _) in enumerate(products)
            if not (factor_ok[a] and factor_ok[b])
        ]
        if bad:
            families = (
                _minor_families(n)
                + [_master_family(s) for s in admissible_sequences(n, 1)]
                + [{"family": "product", "factors": [a, b]} for a, b, _ in products]
            )
            bad = [{"index": gi, **families[gi], "reason": reason} for gi, reason in bad]
        checks.append(
            CheckResult("generators_member_of_symbolic_square", "fail" if bad else "pass", bad or None)
        )
        target = symbolic_square_of_edge_ideal(graph)

    lt_ideal = MonomialIdeal(order.leading_monomial(g) for g in gens)
    if lt_ideal == target:
        checks.append(CheckResult("initial_ideal_matches_combinatorial_target", "pass"))
    else:
        got = set(lt_ideal.generators)
        want = set(target.generators)
        witness = {
            "missing": sorted(format_monomial(m) for m in want - got),
            "unexpected": sorted(format_monomial(m) for m in got - want),
        }
        checks.append(CheckResult("initial_ideal_matches_combinatorial_target", "fail", witness))

    checks.append(CheckResult("initial_of_secant_inside_secant_of_initial", "cited"))
    if kind == SYMBOLIC_SQUARE:
        checks.append(CheckResult("square_plus_secant_inside_symbolic_square", "cited"))

    stats = None
    if with_buchberger:
        sub = buchberger_verify(gens, order, n=n, kind=kind, threads=threads)
        checks.extend(sub.checks)
        stats = sub.spair_stats

    return GroebnerCertificate(
        order_descriptor=order.descriptor(),
        generator_count=len(gens),
        checks=tuple(checks),
        n=n,
        kind=kind,
        spair_stats=stats,
    )
