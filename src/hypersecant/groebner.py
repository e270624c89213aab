"""Division, S-pair certification, and the candidate bases for both ideals.

The engine verifies rather than completes: the candidate generating sets are
assembled combinatorially (master polynomials, off-diagonal minors, products
of the toric binomials) and Buchberger's criterion plus the combinatorial
initial-ideal match certify them.  All reducers in play are homogeneous,
with leading coefficient +-1, so every division stays in integer arithmetic
and in one packing; this is asserted, not assumed.
"""

from __future__ import annotations

import marshal
import os
from collections.abc import Collection, Sequence
from heapq import heapify, heappop, heappush
from itertools import chain, combinations, combinations_with_replacement, permutations
from math import comb
from typing import Iterable, Iterator, NamedTuple

from .hypersimplex import MonomialIdeal, SecantClasses, in_toric_ideal, toric_gb
from .noncrossing import (
    NoncrossingGraph,
    admissible_sequences,
    all_admissible_sequences,
    odd_floor,
    secant_of_edge_ideal,
    symbolic_square_of_edge_ideal,
)
from .master import master_terms
from .order import CircularTermOrder, _Packing, _check_terms
from .poly import degree, edge_var, format_factors, format_rows

SECANT = "secant"
SYMBOLIC_SQUARE = "symbolic-square"

_EVEN_PERMS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

class CheckResult(NamedTuple):
    """One certification leg: machine-checked pass/fail, or cited theory.

    A leg that counts its work carries its counters: a NamedTuple whose
    `key` names its JSON object and whose line() is its text line.
    """

    name: str
    status: str  # "pass" | "fail" | "cited"
    witness: object = None
    counters: object = None

    @property
    def failed(self) -> bool:
        return self.status == "fail"

    @property
    def spair_stats(self):
        """The counters, under the name perfbench/tracer.py reads them by."""
        return self.counters


class SPairStats(NamedTuple):
    """The counters of the S-pair leg."""

    count: int
    skipped_coprime: int
    reduced: int
    max_terms: int

    key = "spairs"

    def line(self) -> str:
        return (
            f"s-pairs: {self.count} total, {self.skipped_coprime} coprime-skipped, "
            f"{self.reduced} reduced, max working terms {self.max_terms}"
        )


class GroebnerCertificate(NamedTuple):
    """A certificate: its header (order, generator count, n and kind), then
    its legs, in order."""

    order_descriptor: dict
    generator_count: int
    checks: tuple[CheckResult, ...]
    n: int
    kind: str

    @property
    def passed(self) -> bool:
        return not any(c.failed for c in self.checks)


# ---------------------------------------------------------------------------
# division and S-pairs
# ---------------------------------------------------------------------------
#
# The engine of buchberger_verify works on the order's packed monomials,
# after Monagan and Pearce (sparse division with a heap over packed exponent
# vectors; CASC 2007, JSC 2011): an edge monomial is one int, so a product is
# a sum, the order is int comparison and divisibility is one guard-bit test.
# Generators come in as (coefficient, factors) rows.


# Exact monomials the front memo of one divider holds, each with its first
# divisor.  Past the cap, a miss is resolved from the block tables on every
# lookup.
_FRONT_MEMO_CAP = 1 << 15

# At least this many S-pairs per derived worker.  Forking two costs about 3 ms,
# a serial sweep of toric n = 7 (2,415); secant n = 7 (6,328) and symbolic n = 6 fork.
_PAIRS_PER_WORKER = 2048


class _Divider:
    """Reducers packed in list order, with full division and, per row of
    S-pairs, their reduction (verify_row).

    A term is keyed by its negated packed monomial, so a min-heap pops the
    largest term first.  `lts` holds each reducer's leading monomial, packed,
    and `tails` its other terms as (negated monomial, coefficient times -LC):
    rewriting c*m by reducer i adds c times tails[i], shifted by lts[i] - m.
    Reducers must be homogeneous, so a rewrite keeps the term's degree and
    every term fits the packing.

    The first divisor of a term is found from its support, the set of guard
    bits of its nonzero slots.  `blocks` holds one (guard mask, table) per
    order block: a table maps the part of a support inside the block to the
    bitset of the reducers whose leading term uses no other slot of the
    block, so it never has more than 2**|block| keys.  The AND of the block
    lookups holds every reducer whose leading-term support fits in the term's,
    and the lowest of them whose leading term divides the term is its first
    divisor.  In front of the tables, `memo` maps up to _FRONT_MEMO_CAP
    negated monomials to their first divisor, or -1.  A divider lives for
    one call, and so do its tables and memo.  Each reducer of `rows`, its
    (coefficient, factors) rows in any order, is packed as it is read, and
    only its leading term and tail are kept.  A reducer must be homogeneous
    of degree at most the packing's limit and keep the row invariant (see
    order.py), else ValueError: no field overflows unnoticed, and no term
    is read twice.
    """

    def __init__(self, packing: _Packing, rows):
        self.packing = packing
        self.lts, self.tails, self.supports = [], [], []
        for g in rows:
            if not g:
                raise ValueError("reducers must be nonzero")
            degrees = {degree(f) for _, f in g}
            if len(degrees) > 1:
                raise ValueError("reducers must be homogeneous")
            if max(degrees) > packing.limit:
                raise ValueError(f"a reducer of degree {max(degrees)} exceeds the packing's limit {packing.limit}")
            terms = [(packing.pack(f), c) for c, f in g]
            _check_terms(terms)
            lt, ltc = max(terms)
            if ltc not in (1, -1):
                raise ValueError(f"reducer has non-unit leading coefficient {ltc}")
            self.lts.append(lt)
            self.tails.append([(-p, -ltc * c) for p, c in terms if p != lt])
            self.supports.append(((lt | packing.guard) - packing.ones) & packing.guard)
        # Per slot (keyed by its guard bit), the bitset of reducers whose
        # leading term uses it.
        self._users: dict = {}
        for k, support in enumerate(self.supports):
            while support:
                low = support & -support
                self._users[low] = self._users.get(low, 0) | 1 << k
                support ^= low
        self.blocks = [(block, {}) for block in packing.block_guards]
        self.memo: dict = {}
        # Memo values share these ints rather than each holding its own.
        self._indices = list(range(len(self.lts)))

    def _first_divisor(self, q: int) -> int:
        """First divisor of the term keyed by the negated monomial q, or -1,
        for a term missing from the memo, which it enters below the cap."""
        guard = self.packing.guard
        pg = -q | guard
        support = (pg - self.packing.ones) & guard
        fit = -1
        for block, table in self.blocks:
            part = support & block
            users = table.get(part)
            if users is None:
                users = (1 << len(self.lts)) - 1
                absent = block - part
                while absent:
                    low = absent & -absent
                    users &= ~self._users.get(low, 0)
                    absent ^= low
                table[part] = users
            fit &= users
        lts, i = self.lts, -1
        while fit:
            low = fit & -fit
            k = low.bit_length() - 1
            if (pg - lts[k]) & guard == guard:
                i = self._indices[k]
                break
            fit ^= low
        if len(self.memo) < _FRONT_MEMO_CAP:
            self.memo[q] = i
        return i

    def normal_form(self, work: dict) -> tuple[dict, int]:
        """Full normal form of the term dict `work`, consumed; (remainder, max size).

        Both dicts are keyed by negated packed monomials.  The largest
        remaining term is rewritten by the first reducer in list order whose
        leading term divides it.  A heap finds that term: every term pushed
        is below the one being rewritten, so each key of `work` has one heap
        entry.  A cancelled term stays in `work` as 0 until its entry pops,
        so a term re-created before then is not pushed again; `size` counts
        the nonzero terms of `work` and `rem`.
        """
        memo, lts, tails = self.memo, self.lts, self.tails
        heap = list(work)
        heapify(heap)
        rem: dict = {}
        size = max_terms = len(work)
        while heap:
            q = heappop(heap)
            c = work.pop(q)
            if not c:
                continue
            i = memo.get(q)
            if i is None:
                i = self._first_divisor(q)
            if i < 0:
                rem[q] = c
                continue
            size -= 1
            cof = lts[i] + q
            for t, sc in tails[i]:
                r = t + cof
                old = work.get(r)
                if old is None:
                    work[r] = c * sc
                    heappush(heap, r)
                    size += 1
                else:
                    nc = work[r] = old + c * sc
                    if not nc:
                        size -= 1
                    elif not old:
                        size += 1
            if size > max_terms:
                max_terms = size
        return rem, max_terms

    def verify_row(self, i: int):
        """Reduce the S-polynomial of each pair (i, j) with i < j, in order of
        j; (failures, skipped, reduced, max_terms) of the row."""
        pk = self.packing
        guard, fields_mask, bits = pk.guard, pk.fields_mask, pk.bits
        lts, tails, supports = self.lts, self.tails, self.supports
        lt_i, tail_i, support_i = lts[i], tails[i], supports[i]
        fi = lt_i & fields_mask
        fi_guarded = fi | guard
        failures = []
        skipped = reduced = max_terms = 0
        for j in range(i + 1, len(lts)):
            if not support_i & supports[j]:
                skipped += 1  # coprime leading terms always reduce to zero
                continue
            fj = lts[j] & fields_mask
            ge = (fi_guarded - fj) & guard  # guards of the slots where fi >= fj
            take = ge - (ge >> bits)
            lcm = pk.join((fi & take) | (fj & ~take))
            # LC_i*(lcm/LT_i)*g_i - LC_j*(lcm/LT_j)*g_j, whose negated cofactor
            # keys are lts[k] - lcm: the leading terms cancel at the lcm, and
            # every other term lies below it.
            shift = lt_i - lcm
            work = {t + shift: -sc for t, sc in tail_i}
            shift = lts[j] - lcm
            for t, sc in tails[j]:
                q = t + shift
                nc = work.get(q, 0) + sc
                if nc:
                    work[q] = nc
                else:
                    del work[q]
            reduced += 1
            rem, mt = self.normal_form(work)
            if mt > max_terms:
                max_terms = mt
            if rem:
                failures.append(
                    {
                        "pair": [i, j],
                        "remainder_terms": len(rem),
                        # Ascending negated keys: descending in the order.
                        "remainder": format_rows(
                            [(c, pk.factors(-q)) for q, c in sorted(rem.items())]
                        ),
                    }
                )
        return failures, skipped, reduced, max_terms


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity, e.g. on macOS
        return os.cpu_count() or 1


def _workers(pairs: int, threads: int | None) -> int:
    """Worker processes for a sweep of `pairs` S-pairs; 1 means serial.

    One worker per _PAIRS_PER_WORKER pairs, at most one per usable CPU and at
    most `threads`; threads=None sets no cap of its own.
    """
    return max(1, min(_usable_cpus(), pairs // _PAIRS_PER_WORKER, threads or pairs))


def _shares(m: int, workers: int) -> list[range]:
    """Each worker's rows of a sweep of m rows: row i goes to worker i mod workers."""
    return [range(w, m, workers) for w in range(workers)]


def _sweep(divider: _Divider, threads: int | None):
    """Per-row (failures, skipped, reduced, max_terms), in row order.

    _Divider.verify_row is mapped over the rows i of the S-pairs (i, j):
    serially, else on forked workers (_workers), each of which writes its
    share of the rows (_shares), marshalled, to its own pipe.  A dead worker
    raises RuntimeError here (one that raised prints its traceback first),
    and every worker is reaped before this returns or raises, killed if live.
    """
    m = len(divider.lts)
    workers = _workers(m * (m - 1) // 2, threads)
    if workers <= 1:
        return list(map(divider.verify_row, range(m)))
    import select
    import signal

    results: list = [None] * m
    live: dict = {}  # the read end of a live worker's pipe -> (pid, share)
    try:
        for share in _shares(m, workers):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:  # the worker, which leaves by os._exit alone
                try:
                    with open(w, "wb") as out:
                        out.write(marshal.dumps([divider.verify_row(i) for i in share]))
                    os._exit(0)
                except Exception:
                    import traceback  # only a failing worker needs it

                    traceback.print_exc()
                finally:
                    os._exit(1)
            os.close(w)
            live[open(r, "rb")] = pid, share
        while live:
            for pipe in select.select(list(live), [], [])[0]:
                data = pipe.read()  # to EOF: a worker writes once its share is done
                pid, share = live.pop(pipe)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                pipe.close()
                if code:
                    raise RuntimeError(f"S-pair worker {pid} exited with code {code}")
                results[share.start :: share.step] = marshal.loads(data)
        return results
    finally:
        for pipe, (pid, _) in live.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()


def buchberger_verify(
    G: Iterable[list],
    order: CircularTermOrder,
    threads: int | None = None,
    labels: Collection[tuple] | None = None,
) -> CheckResult:
    """The leg "spairs_reduce_to_zero": every S-pair of G reduces to zero
    modulo G.  Its counters are SPairStats.

    Each generator of G is its (coefficient, factors) rows, in any order.
    Pairs with coprime leading terms are skipped (they reduce to zero by the
    product criterion) and counted.  Failures carry the offending pair and
    its nonzero remainder as a witness; given the label of each generator
    (see _family), the witness also names both generators of the pair by
    family under "generators", read in one pass over the labels that runs
    only when some pair fails.  The m(m-1)/2 pairs are counted, never
    listed: each row i of pairs (i, j) is reduced by one call of
    _Divider.verify_row, serially or on forked workers (_sweep), and rows
    are aggregated in order, so the leg is the serial one.  `threads` is the
    most worker processes the sweep may use, None for no cap beyond the
    usable CPUs and the number of S-pairs.

    G is read once into a list, and the packing is sized from the largest
    degree of its rows.  Labels, a sized and re-iterable collection read in
    order, are counted, and read again only to name a failing pair.  A
    non-homogeneous generator, or a count of labels other than that of
    generators, raises ValueError before any worker starts.
    """
    G = list(G)
    top = max((degree(f) for g in G for _, f in g), default=0)
    # Rewrites by homogeneous reducers keep degrees, so every term of a
    # reduction has at most the degree of its S-pair's lcm, which is at most
    # twice the largest generator's.
    divider = _Divider(order.packing(2 * top), G)
    m = len(divider.lts)
    del G
    if labels is not None and len(labels) != m:
        raise ValueError(f"{len(labels)} labels for {m} generators")
    results = _sweep(divider, threads)
    failures: list = []
    skipped = reduced = max_terms = 0
    for fl, sk, rd, mt in results:
        failures.extend(fl)
        skipped += sk
        reduced += rd
        max_terms = max(max_terms, mt)
    if labels is not None and failures:
        named = {k for f in failures for k in f["pair"]}
        family = {k: _family(label) for k, label in enumerate(labels) if k in named}
        failures = [{"pair": f["pair"], "generators": [family[k] for k in f["pair"]], **f} for f in failures]
    counters = SPairStats(m * (m - 1) // 2, skipped, reduced, max_terms)
    return CheckResult("spairs_reduce_to_zero", "fail" if failures else "pass", failures or None, counters)


# ---------------------------------------------------------------------------
# candidate bases
# ---------------------------------------------------------------------------

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


class _Labels:
    """The labels of candidate_basis(n, kind), each family made afresh by
    each iteration, so no label is held.  Sized, and read in order; never
    indexed."""

    __slots__ = ("n", "kind", "m")

    def __init__(self, n: int, kind: str):
        # The symbolic square's products pair its m toric binomials.
        self.n, self.kind, self.m = n, kind, 0 if kind == SECANT else 2 * comb(n, 4)

    def _masters(self) -> Iterator[tuple]:
        seqs = all_admissible_sequences(self.n) if self.kind == SECANT else admissible_sequences(self.n, 1)
        return (("master", s) for s in seqs)

    def __len__(self) -> int:
        # The masters are counted as they are made; three minors per 6-subset.
        return sum(1 for _ in self._masters()) + 3 * comb(self.n, 6) + self.m * (self.m + 1) // 2

    def __iter__(self) -> Iterator[tuple]:
        minors = (("minor", rows, cols) for rows, cols in _minor_splits(self.n))
        if self.kind == SECANT:
            return chain(self._masters(), minors)
        pairs = combinations_with_replacement(range(self.m), 2)
        return chain(minors, self._masters(), (("product", a, b) for a, b in pairs))


def candidate_basis(n: int, kind: str) -> Collection[tuple]:
    """The family label of each generator of the candidate basis of `kind`,
    a sized collection that each iteration makes afresh, in order, as it is
    read (_Labels); no family is held as a list.

    A label is ("master", seq) for the master of an admissible sequence,
    ("minor", rows, cols) for the 3x3 minor on a circularly consecutive
    split, or ("product", a, b) for the product of binomials a <= b of
    toric_gb(n), two per 4-subset.  The secant basis is the masters of every
    odd degree, then the minors, whose antidiagonal leading terms are the
    nested noncrossing triples.  The symbolic-square basis is the minors,
    the degree-3 masters, then the products in combinations_with_replacement
    order.  generator_rows() builds their rows.
    """
    if not isinstance(n, int) or n < 4:
        raise ValueError(f"need n >= 4, got {n!r}")
    if kind not in (SECANT, SYMBOLIC_SQUARE):
        raise ValueError(f"kind must be 'secant' or 'symbolic-square', got {kind!r}")
    return _Labels(n, kind)


def _generator(label: tuple, order: CircularTermOrder) -> list[tuple[int, tuple]]:
    """The rows of a master or minor label of candidate_basis, descending in
    `order`: a master's from master_terms, a minor's packed in
    order.packing(3).

    The minor on rows r and columns c is the 3x3 minor of the symmetric
    variable matrix, signed so that its antidiagonal term
    x[r1,c3]*x[r2,c2]*x[r3,c1] has coefficient +1: each permutation's term
    is packed as the sum of its edges' fields, with +1 for an odd
    permutation, as the antidiagonal is, and -1 for an even one.
    """
    if label[0] == "master":
        return master_terms(label[1], order)
    packing = order.packing(3)
    r, c = label[1], label[2]
    terms = []
    for perm in permutations(range(3)):
        fields = sum(1 << packing.offset[edge_var(r[a], c[perm[a]])] for a in range(3))
        terms.append((packing.join(fields), -1 if perm in _EVEN_PERMS else 1))
    return [(c, packing.factors(p)) for p, c in sorted(terms, reverse=True)]


def generator_rows(n: int, labels: Iterable[tuple], order: CircularTermOrder) -> Iterator[list]:
    """The rows (see order.py) of the polynomials of candidate_basis labels
    at n, descending in the order, in label order, each built when asked for.

    A product's rows come from the packed terms of its two toric binomials
    under the degree-4 packing (_Packing.product_rows), a master's or a
    minor's from _generator.
    """
    packing = order.packing(4)
    packed = [packing.terms(b.rows()) for b in toric_gb(n)]
    for label in labels:
        if label[0] == "product":
            yield packing.product_rows(packed[label[1]], packed[label[2]])
        else:
            yield _generator(label, order)


# ---------------------------------------------------------------------------
# the certification pipeline
# ---------------------------------------------------------------------------

def _family(label: tuple) -> dict:
    """The witness fields that name a generator by its candidate_basis label,
    or a toric binomial by its label ("binomial", quadruple, family) from
    toric_gb, where family 1 or 2 says which pairing leads."""
    if label[0] == "master":
        return {"family": "master", **label[1].to_json()}
    if label[0] == "minor":
        return {"family": "minor", "rows": list(label[1]), "cols": list(label[2])}
    if label[0] == "binomial":
        return {"family": "binomial", "quadruple": list(label[1]), "lead": label[2]}
    return {"family": "product", "factors": [label[1], label[2]]}


def delightful_check(n: int, kind: str, order: CircularTermOrder) -> GroebnerCertificate:
    """The certificate that the candidate basis cuts out the right ideal.

    Legs: (a) every candidate generator passes the exact membership oracle
    for its ideal; (b) the minimal generators of the leading-term ideal
    coincide with the combinatorial target; then the cited containments.
    Together with the cited containment of the initial ideal of a secant in
    the secant of the initial ideal, (a)+(b) force the initial ideals to
    agree, so the candidates form a Groebner basis.  Buchberger's criterion
    is one more leg, which a caller may append: buchberger_verify on the
    generator_rows of the same labels.

    Masters and minors go to the rank-2 oracle, one call per relabelling
    class (SecantClasses), a product to the toric verdicts of its factors.
    Each membership failure names its generator by list index and family: a
    master by its sequence (k, i, j), a minor by its split (rows, cols), a
    product by the indices (a, b) of its toric factors.  Legs (a) and (b)
    count the labels in their one pass and read a product only through its
    label ("product", a, b), so no product polynomial is built.

    Leg (b) runs on the packed monomials of the target's packing: a master's
    or minor's lead is its first term's, and a product's is the sum of its
    toric factors' (LT(f*g) = LT(f)*LT(g) under any term order).  It holds
    one ideal, the target T, built before the pass, no copy of T's
    generators, no list of leading monomials L and no count of its own:
    MonomialIdeal.meet tells whether a lead lies in <T> and marks each
    minimal generator of T the first time a lead equals it, counting
    T.unmet down.  The leg passes iff every lead lies in <T> and T.unmet
    ends at 0, i.e. every minimal generator of T is itself a lead, which
    holds iff <L> = <T>.  One way: then <T> <= <L> <= <T>.  The other: a
    minimal generator mu of T lies in <L>, so some lead l divides it; l
    lies in <T>, so some minimal generator mu' divides l, and mu' | mu
    forces mu' = l = mu.  Only a failing leg makes a second pass, which
    minimalizes the leads and names the minimal generators missing from
    each side.
    """
    labels = candidate_basis(n, kind)
    graph = NoncrossingGraph(n)
    if kind == SECANT:
        leg = "generators_vanish_on_rank_two_locus"
        target = secant_of_edge_ideal(graph, odd_floor(n), order)
    else:
        leg = "generators_member_of_symbolic_square"
        target = symbolic_square_of_edge_ideal(graph, order)
        toric = [b.rows() for b in toric_gb(n)]
        factor_ok = [in_toric_ideal(n, t) for t in toric]
        toric_leads = [target.packing.terms(t)[0][0] for t in toric]
    member = SecantClasses(n)

    def built(label: tuple) -> tuple[list | None, int]:
        """The rows of a label, None for a product, and its packed lead."""
        if label[0] == "product":
            return None, toric_leads[label[1]] + toric_leads[label[2]]
        rows = _generator(label, order)
        return rows, target.packing.pack(rows[0][1])

    # Leg (b) as the leads stream past: each must lie in the target, and
    # each minimal generator of the target must turn up among them.
    bad, inside, count = [], True, 0
    for gi, label in enumerate(labels):
        count += 1
        rows, lead = built(label)
        inside &= target.meet(lead)
        if rows is None:
            if factor_ok[label[1]] and factor_ok[label[2]]:
                continue
            reason = "factor outside toric ideal"
        elif member(rows):
            continue
        else:
            reason = "rank-2 oracle failed"
        witness = {"index": gi, **_family(label)}
        if kind == SECANT:
            witness["generator"] = format_rows(rows)
        else:
            witness["reason"] = reason
        bad.append(witness)
    checks = [CheckResult(leg, "fail" if bad else "pass", bad or None)]

    if inside and not target.unmet:
        checks.append(CheckResult("initial_ideal_matches_combinatorial_target", "pass"))
    else:
        # Only a failing leg builds the leading-term ideal, for its witness.
        leads = sorted((built(label)[1] for label in labels), key=target.packing.degree)
        got = set(MonomialIdeal(leads, target.packing).generators)
        want = set(target.generators)
        witness = {
            "missing": sorted(map(format_factors, want - got)),
            "unexpected": sorted(map(format_factors, got - want)),
        }
        checks.append(CheckResult("initial_ideal_matches_combinatorial_target", "fail", witness))

    checks.append(CheckResult("initial_of_secant_inside_secant_of_initial", "cited"))
    if kind == SYMBOLIC_SQUARE:
        checks.append(CheckResult("square_plus_secant_inside_symbolic_square", "cited"))
    return GroebnerCertificate(order.descriptor(), count, tuple(checks), n, kind)
