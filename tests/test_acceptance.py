"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every check is exact; the stated wall-clock budgets are asserted as well.
"""

import itertools
import random
import time
from math import comb

from hypersecant import (
    CircularTermOrder,
    NoncrossingGraph,
    all_admissible_sequences,
    buchberger_verify,
    circular_minor_splits,
    cycle_monomial,
    edge_var,
    secant_of_edge_ideal,
    symbolic_square_of_edge_ideal,
    verify_prolongation,
)
from hypersecant.cli import build_parser
from hypersecant.fixtures import (
    GENERIC_QUINTIC_SEQUENCE,
    REFERENCE_CUBIC_TERMS,
    REFERENCE_PENTAD_TERMS,
)
from hypersecant.groebner import candidate_basis, generator_rows
from hypersecant.noncrossing import AdmissibleSequence
from hypersecant.poly import edge_factors

from conftest import (
    ConjugationSubset,
    Polynomial,
    antidiagonal_monomial,
    base_involution,
    both_inner_orders,
    candidate_polynomials,
    compare,
    conjugate,
    crossing_number,
    divides,
    leading_monomial,
    leading_term,
    master_polynomial,
    monomial,
    mul,
    nested_triple_monomials,
    off_diagonal_minor,
    order_rows,
    packed_ideal,
    partial_derivative,
    poly_rows,
    reduce,
    reference_polynomial,
    substitute_rank,
    symbolic_square_identity_holds,
    toric_gb_polynomials,
)


def _report(num: int, ok: bool, detail: str, budget_s: float, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:>2}] {status} {detail} ({elapsed:.2f}s, budget {budget_s:.0f}s)")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < budget_s, f"criterion {num} exceeded budget: {elapsed:.2f}s >= {budget_s}s"


def _odd_floor(n: int) -> int:
    return n if n % 2 else n - 1


def test_criterion_01_pentad_reproduction():
    t0 = time.perf_counter()
    seq = AdmissibleSequence.from_arrays((1, 2, 3, 4, 5), (1, 2, 3, 4, 5))
    ok = master_polynomial(seq) == reference_polynomial(REFERENCE_PENTAD_TERMS)
    _report(1, ok, "pentad master equals the printed 12-term quintic", 1.0, time.perf_counter() - t0)


def test_criterion_02_cubic_reproduction():
    t0 = time.perf_counter()
    seq = AdmissibleSequence.from_arrays((1, 3, 5), (2, 4, 6))
    ok = master_polynomial(seq) == reference_polynomial(REFERENCE_CUBIC_TERMS)
    _report(2, ok, "cubic master equals the printed 8-term cubic", 1.0, time.perf_counter() - t0)


def test_criterion_03_generic_term_count():
    t0 = time.perf_counter()
    seq = AdmissibleSequence.from_arrays(*GENERIC_QUINTIC_SEQUENCE)
    f = master_polynomial(seq)
    ok = f.term_count == 32 and all(c in (1, -1) for _, c in f.terms())
    _report(3, ok, "generic distinct-index quintic has 32 unit terms", 1.0, time.perf_counter() - t0)


def test_criterion_04_initial_secant_n5():
    t0 = time.perf_counter()
    args = build_parser().parse_args(["initial-secant", "--n", "5"])
    code, payload = args.handler(args)
    expected = edge_factors([(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    ideal = secant_of_edge_ideal(NoncrossingGraph(5), 5)
    ok = (
        code == 0
        and "".join(payload) == "x[1,2]*x[1,5]*x[2,3]*x[3,4]*x[4,5]\n"
        and ideal.generators == (expected,)
    )
    _report(4, ok, "initial-secant --n 5 reports the single degree-5 generator", 1.0,
            time.perf_counter() - t0)


def test_criterion_05_family_completeness():
    t0 = time.perf_counter()
    ok = True
    details = []
    for n in (6, 7, 8):
        brute = secant_of_edge_ideal(NoncrossingGraph(n), _odd_floor(n))
        family = [cycle_monomial(s) for s in all_admissible_sequences(n)]
        family.extend(nested_triple_monomials(n))
        family_ideal = packed_ideal(family, n=n)
        same = family_ideal == brute
        degrees_ok = brute.degrees() == tuple(range(3, n + 1, 2))
        ok = ok and same and degrees_ok
        details.append(f"n={n}:{len(brute)}gens")
    _report(5, ok, "cycle monomials + nested triples = brute force (" + " ".join(details) + ")",
            600.0, time.perf_counter() - t0)


def test_criterion_06_membership_sweep():
    t0 = time.perf_counter()
    ok = True
    for n in range(4, 9):
        for g in candidate_polynomials(n, "secant"):
            if not substitute_rank(g, 2).is_zero:
                ok = False
    for n in range(3, 9):
        for g in toric_gb_polynomials(n):
            if not substitute_rank(g, 1).is_zero:
                ok = False
    _report(6, ok, "secant basis in rank-2 kernel, toric basis in rank-1 kernel, n <= 8",
            300.0, time.perf_counter() - t0)


def test_criterion_07_leading_term_lemma():
    t0 = time.perf_counter()
    ok = True
    for n in range(5, 9):
        for order in both_inner_orders(n):
            for s in all_admissible_sequences(n):
                f = master_polynomial(s)
                m, c = leading_term(order, f)
                if m != cycle_monomial(s) or c != 1:
                    ok = False
    for n in range(6, 9):
        for order in both_inner_orders(n):
            for sub in itertools.combinations(range(1, n + 1), 6):
                for rows, cols in circular_minor_splits(sub):
                    minor = off_diagonal_minor(rows, cols)
                    if leading_term(order, minor) != (antidiagonal_monomial(rows, cols), 1):
                        ok = False
    _report(7, ok, "master LT = cycle monomial and minor LT = antidiagonal, n <= 8, both orders",
            120.0, time.perf_counter() - t0)


def test_criterion_08_crossing_number_ladder():
    t0 = time.perf_counter()
    ok = True
    for k in range(1, 5):
        length = 2 * k + 1
        base = base_involution(k)
        offset = comb(length, 2) - length
        for r in range(length + 1):
            for chosen in itertools.combinations(range(1, length + 1), r):
                got = crossing_number(conjugate(base, ConjugationSubset(k, frozenset(chosen))))
                if got != offset + r:
                    ok = False
    _report(8, ok, "crossing number = C(2k+1,2) - (2k+1) + |S| for all subsets, k <= 4",
            60.0, time.perf_counter() - t0)


def test_criterion_09_prolongation():
    t0 = time.perf_counter()
    ok = True
    for n in range(5, 9):
        for s in all_admissible_sequences(n):
            if not verify_prolongation(n, poly_rows(master_polynomial(s)), s.k):
                ok = False
    _report(9, ok, "all master derivatives up to order k lie in the toric ideal, n <= 8",
            600.0, time.perf_counter() - t0)


def test_criterion_10_buchberger_certification():
    t0 = time.perf_counter()
    ok = True
    for n in range(4, 8):
        for order in both_inner_orders(n):
            toric = [order_rows(order, g) for g in toric_gb_polynomials(n)]
            if buchberger_verify(toric, order).status != "pass":
                ok = False
    for kind, top in (("secant", 7), ("symbolic-square", 6)):
        for n in range(4, top + 1):
            for order in both_inner_orders(n):
                rows = generator_rows(n, candidate_basis(n, kind), order)
                if buchberger_verify(rows, order).status != "pass":
                    ok = False
    _report(10, ok, "all S-pairs reduce to zero: toric and secant n<=7, symbolic n<=6, both orders",
            1800.0, time.perf_counter() - t0)


def test_criterion_11_delightfulness_equality():
    t0 = time.perf_counter()
    ok = True
    for n in range(4, 8):
        graph = NoncrossingGraph(n)
        secant_target = secant_of_edge_ideal(graph, _odd_floor(n))
        symbolic_target = symbolic_square_of_edge_ideal(graph)
        secant_basis = candidate_polynomials(n, "secant")
        symbolic_basis = candidate_polynomials(n, "symbolic-square")
        for order in both_inner_orders(n):
            lt_secant = packed_ideal([leading_monomial(order, g) for g in secant_basis], n=n)
            lt_symbolic = packed_ideal([leading_monomial(order, g) for g in symbolic_basis], n=n)
            if lt_secant != secant_target or lt_symbolic != symbolic_target:
                ok = False
        if not symbolic_square_identity_holds(n):
            ok = False
    _report(11, ok, "LT ideals match combinatorial targets and in^(2) = in^2 + in^{2}, n <= 7",
            300.0, time.perf_counter() - t0)


def _random_monomial(rng, n=6, max_vars=3, max_exp=2):
    edges = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    chosen = rng.sample(edges, rng.randint(0, max_vars))
    return monomial((edge_var(a, b), rng.randint(1, max_exp)) for a, b in chosen)


def _random_poly(rng, n=6, max_terms=3, max_exp=2):
    return Polynomial(
        (_random_monomial(rng, n, 3, max_exp), rng.randint(-4, 4))
        for _ in range(rng.randint(0, max_terms))
    )


def test_criterion_12_property_suites():
    cases = 1000

    t0 = time.perf_counter()
    rng = random.Random(20260808)
    order_g, order_l = both_inner_orders(6)
    unit = ()
    for _ in range(cases):
        m1, m2, m3 = (_random_monomial(rng) for _ in range(3))
        for order in (order_g, order_l):
            c = compare(order, m1, m2)
            assert c in (-1, 0, 1) and (c == 0) == (m1 == m2)
            assert compare(order, m2, m1) == -c
            assert compare(order, m1, unit) >= 0
            assert compare(order, mul(m1, m3), mul(m2, m3)) == c
    _report(12, True, f"term-order axioms ({cases} cases)", 120.0, time.perf_counter() - t0)

    t0 = time.perf_counter()
    rng = random.Random(20260809)
    for _ in range(cases):
        p, q, r = (_random_poly(rng) for _ in range(3))
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
    _report(12, True, f"ring laws ({cases} cases)", 120.0, time.perf_counter() - t0)

    t0 = time.perf_counter()
    rng = random.Random(20260810)
    for _ in range(cases):
        p, q = _random_poly(rng), _random_poly(rng)
        e = rng.choice([(1, 2), (2, 3), (4, 6)])
        d = lambda f: partial_derivative(f, [e])
        assert d(p * q) == d(p) * q + p * d(q)
    _report(12, True, f"Leibniz rule ({cases} cases)", 120.0, time.perf_counter() - t0)

    t0 = time.perf_counter()
    rng = random.Random(20260811)
    for _ in range(cases):
        p, q = _random_poly(rng, max_terms=2), _random_poly(rng, max_terms=2)
        rank = rng.choice((1, 2))
        assert substitute_rank(p + q, rank) == substitute_rank(p, rank) + substitute_rank(q, rank)
        assert substitute_rank(p * q, rank) == substitute_rank(p, rank) * substitute_rank(q, rank)
    _report(12, True, f"rank substitution is a ring homomorphism ({cases} cases)", 120.0,
            time.perf_counter() - t0)

    t0 = time.perf_counter()
    rng = random.Random(20260812)
    order = CircularTermOrder(5)
    G = toric_gb_polynomials(5)
    leads = [leading_monomial(order, g) for g in G]
    for _ in range(cases):
        f = _random_poly(rng, n=5, max_terms=3, max_exp=2)
        nf = reduce(f, G, order)
        for m in nf.monomials():
            assert not any(divides(lt, m) for lt in leads)
        assert reduce(f - nf, G, order).is_zero
        if not f.is_zero and not nf.is_zero:
            assert compare(order, leading_monomial(order, nf), leading_monomial(order, f)) <= 0
    _report(12, True, f"reduction terminates, is monotone, and strips reducible terms "
            f"({cases} cases)", 300.0, time.perf_counter() - t0)
