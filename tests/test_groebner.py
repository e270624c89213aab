import dataclasses
import itertools
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersecant import (
    CircularTermOrder,
    Monomial,
    MonomialIdeal,
    Polynomial,
    admissible_sequences,
    all_admissible_sequences,
    antidiagonal_monomial,
    both_inner_orders,
    buchberger_verify,
    build_graph,
    circular_minor_splits,
    delightful_check,
    format_monomial,
    in_secant_ideal,
    induced_odd_cycles,
    master_polynomial,
    off_diagonal_minor,
    off_diagonal_minor_3x3,
    reduce,
    s_polynomial,
    secant_gb,
    secant_of_edge_ideal,
    symbolic_square_gb,
    symbolic_square_of_edge_ideal,
    toric_gb_polynomials,
)

from hypersecant import groebner
from hypersecant.noncrossing import odd_floor
from hypersecant.order import _Packing

from conftest import monomial_strategy, polynomial_strategy, reference_order_key


def mono(*edges):
    return Monomial.from_edges(edges)


def binom(lead, trail):
    return Polynomial.from_edge_terms([(1, lead), (-1, trail)])


def power(a, b, e=1):
    return Polynomial.from_monomial(Monomial({("x", a, b): e}))


def mutated_secant_gb_6():
    """secant_gb(6) with one non-leading coefficient of its last minor tripled."""
    gens = secant_gb(6)
    minor = gens[-1]
    lead = CircularTermOrder(6).leading_monomial(minor)
    m = min(x for x in minor.monomials() if x != lead)
    gens[-1] = minor + Polynomial.from_monomial(m, 2 * minor.coefficient(m))
    return gens


def degree_growing_basis():
    """x12 - x24^3 and x12^6 - v for eleven other variables v (n = 6).

    Rewriting by the first generator raises degrees: S-pairs reach x24^18,
    past the fields sized from the generators' degrees.
    """
    edges = [e for e in itertools.combinations(range(1, 7), 2) if e not in ((1, 2), (2, 4))]
    return [power(1, 2) - power(2, 4, 3)] + [power(1, 2, 6) - power(*e) for e in edges[:11]]


def reference_normal_form(f, G, order):
    """Division on Monomial and Polynomial values, the rule spelled out: the
    largest remaining term is rewritten by the first reducer whose leading
    term divides it, or else moved to the remainder."""
    leads = [order.leading_term(g) for g in G]
    rem = {}
    while not f.is_zero:
        m, c = order.leading_term(f)
        for g, (lt, ltc) in zip(G, leads):
            if lt.divides(m):
                f = f - g * Polynomial.from_monomial(m.divide_by(lt), c * ltc)
                break
        else:
            rem[m] = c
            f = f - Polynomial.from_monomial(m, c)
    return Polynomial(rem)


@st.composite
def unit_reducers(draw, order, n):
    """Up to three reducers with leading coefficient +-1, not homogeneous."""
    out = []
    for p in draw(st.lists(polynomial_strategy(n=n, max_terms=3, max_factors=2), max_size=3)):
        if p.is_zero:
            continue
        lm, lc = order.leading_term(p)
        unit = draw(st.sampled_from((1, -1)))
        out.append(p + Polynomial.from_monomial(lm, unit - lc))
    return out


def stats_tuple(cert):
    s = cert.spair_stats
    return (s.count, s.skipped_coprime, s.reduced, s.max_terms)


class TestReduce:
    def test_noncrossing_pair_reduces_to_crossing(self):
        order = CircularTermOrder(4)
        f = Polynomial.from_monomial(mono((1, 2), (3, 4)))
        assert reduce(f, toric_gb_polynomials(4), order) == Polynomial.from_monomial(
            mono((1, 3), (2, 4))
        )

    def test_crossing_pair_is_standard(self):
        order = CircularTermOrder(4)
        f = Polynomial.from_monomial(mono((1, 3), (2, 4)))
        assert reduce(f, toric_gb_polynomials(4), order) == f

    def test_self_reduction_is_zero(self):
        order = CircularTermOrder(4)
        g = binom(((1, 2), (3, 4)), ((1, 3), (2, 4)))
        assert reduce(g, [g], order).is_zero

    def test_remainder_has_no_reducible_term(self):
        order = CircularTermOrder(5)
        G = toric_gb_polynomials(5)
        leads = [order.leading_monomial(g) for g in G]
        f = Polynomial.from_monomial(mono((1, 2), (2, 3), (3, 4), (4, 5)), 3)
        r = reduce(f, G, order)
        for m in r.monomials():
            assert not any(lt.divides(m) for lt in leads)

    def test_rejects_non_unit_leading_coefficient(self):
        order = CircularTermOrder(4)
        g = Polynomial.from_edge_terms([(2, ((1, 2), (3, 4)))])
        with pytest.raises(ValueError):
            reduce(Polynomial.from_monomial(mono((1, 2), (3, 4))), [g], order)

    def test_rejects_zero_reducer(self):
        order = CircularTermOrder(4)
        with pytest.raises(ValueError):
            reduce(Polynomial.from_monomial(mono((1, 2))), [Polynomial.zero()], order)

    def test_degree_growth_is_exact(self):
        # Under a block order x12 > x24^3, so each rewrite raises the degree
        # and the result outgrows fields sized from the inputs' degrees.
        for order in both_inner_orders(6):
            g = power(1, 2) - power(2, 4, 3)
            assert reduce(power(1, 2, 5), [g], order) == power(2, 4, 15)
            assert reduce(power(1, 2, 40), [g], order) == power(2, 4, 120)
            assert reduce(power(1, 2, 2) + power(1, 3), [g], order) == power(2, 4, 6) + power(1, 3)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_division(self, data):
        inner = data.draw(st.sampled_from(("grevlex", "lex")))
        order = CircularTermOrder(5, inner)
        G = data.draw(unit_reducers(order, 5))
        f = data.draw(polynomial_strategy(n=5, max_terms=4, max_exp=3))
        assert reduce(f, G, order) == reference_normal_form(f, G, order)

    def test_rejects_variables_outside_the_order(self):
        order = CircularTermOrder(4)
        with pytest.raises(ValueError):
            reduce(power(1, 5), [], order)
        with pytest.raises(ValueError):
            reduce(Polynomial.variable(("t", 1)), [], order)

    @given(polynomial_strategy(n=5, max_terms=4, max_exp=2))
    @settings(max_examples=100, deadline=None)
    def test_reduction_monotone_and_terminating(self, f):
        # The difference f - NF(f) lies in the ideal: re-reducing gives zero,
        # and the normal form never exceeds f in the order.
        order = CircularTermOrder(5)
        G = toric_gb_polynomials(5)
        r = reduce(f, G, order)
        assert reduce(f - r, G, order).is_zero
        if not f.is_zero and not r.is_zero:
            assert order.compare(order.leading_monomial(r), order.leading_monomial(f)) <= 0


class TestPacking:
    @pytest.mark.parametrize("n", [7, 8])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_packed_ints_follow_the_order(self, n, data):
        m1 = data.draw(monomial_strategy(n=n, max_factors=5, max_exp=3))
        m2 = data.draw(monomial_strategy(n=n, max_factors=5, max_exp=3))
        for order in both_inner_orders(n):
            pk = _Packing(order, 5)
            p1, p2 = pk.pack(m1), pk.pack(m2)
            assert (p1 < p2) == (reference_order_key(order, m1) < reference_order_key(order, m2))
            assert (p1 == p2) == (m1 == m2)
            assert p1 + p2 == pk.pack(m1.mul(m2))
            assert pk.unpack(p1) == m1
            assert pk.degree(p1 + p2) == m1.degree + m2.degree


class TestSPolynomial:
    def test_self_pair_vanishes(self):
        order = CircularTermOrder(4)
        g = binom(((1, 2), (3, 4)), ((1, 3), (2, 4)))
        assert s_polynomial(g, g, order).is_zero

    def test_n4_pair_reduces_to_zero(self):
        order = CircularTermOrder(4)
        G = toric_gb_polynomials(4)
        s = s_polynomial(G[0], G[1], order)
        assert reduce(s, G, order).is_zero

    def test_coprime_pair_reduces_to_zero(self):
        order = CircularTermOrder(8)
        f = binom(((1, 2), (3, 4)), ((1, 3), (2, 4)))
        g = binom(((5, 6), (7, 8)), ((5, 7), (6, 8)))
        s = s_polynomial(f, g, order)
        assert reduce(s, [f, g], order).is_zero

    def test_leading_terms_cancel(self):
        order = CircularTermOrder(5)
        G = toric_gb_polynomials(5)
        f, g = G[0], G[2]
        s = s_polynomial(f, g, order)
        if not s.is_zero:
            lcm = order.leading_monomial(f).lcm(order.leading_monomial(g))
            assert order.compare(order.leading_monomial(s), lcm) == -1


class TestBuchbergerVerify:
    def test_toric_n5_passes(self):
        for order in both_inner_orders(5):
            cert = buchberger_verify(toric_gb_polynomials(5), order, n=5, kind="toric")
            assert cert.passed
            assert cert.spair_stats.count == comb(10, 2)

    def test_secant_n5_passes(self):
        cert = buchberger_verify(secant_gb(5), CircularTermOrder(5), n=5, kind="secant")
        assert cert.passed

    def test_negative_control_records_failure(self):
        # Two binomials sharing the same lex-inner leading term x12*x34; their
        # S-polynomial has an irreducible remainder, which must be witnessed.
        order = CircularTermOrder(4, "lex")
        g1 = binom(((1, 2), (3, 4)), ((1, 3), (2, 4)))
        g2 = binom(((1, 2), (3, 4)), ((1, 4), (2, 3)))
        cert = buchberger_verify([g1, g2], order)
        assert not cert.passed
        (check,) = cert.checks
        assert check.status == "fail"
        assert check.witness[0]["pair"] == [0, 1]
        assert check.witness[0]["remainder_terms"] == 2

    def test_same_pair_coprime_skipped_under_grevlex(self):
        # Under the grevlex inner order the same two binomials have coprime
        # leading terms, so the product criterion skips the pair.
        order = CircularTermOrder(4, "grevlex")
        g1 = binom(((1, 2), (3, 4)), ((1, 3), (2, 4)))
        g2 = binom(((1, 2), (3, 4)), ((1, 4), (2, 3)))
        cert = buchberger_verify([g1, g2], order)
        assert cert.passed
        assert cert.spair_stats.skipped_coprime == 1

    # (count, skipped_coprime, reduced, max_terms) per inner order, recorded
    # from the Monomial-dict engine that preceded the packed one; equal
    # counters mean both engines walk the same reduction path.
    PINNED = {
        ("secant", 6): {"grevlex": (136, 7, 129, 99), "lex": (136, 7, 129, 83)},
        ("symbolic", 5): {"grevlex": (1485, 300, 1185, 14), "lex": (1485, 300, 1185, 12)},
        ("secant", 7): {"grevlex": (6328, 1743, 4585, 306), "lex": (6328, 1743, 4585, 269)},
    }

    @pytest.mark.parametrize("kind,n", sorted(PINNED))
    def test_pinned_counters(self, kind, n):
        gens = secant_gb(n) if kind == "secant" else symbolic_square_gb(n)
        for order in both_inner_orders(n):
            cert = buchberger_verify(gens, order, n=n)
            assert cert.passed
            assert stats_tuple(cert) == self.PINNED[kind, n][order.inner]

    # (i, j, remainder_terms) of every failing pair of the mutated basis,
    # the same under both inner orders.
    MUTATED_FAILURES = [
        (0, 2, 4), (0, 3, 6), (0, 4, 4), (0, 5, 8), (0, 6, 2), (0, 12, 8), (0, 13, 2),
        (0, 16, 6), (1, 6, 2), (1, 7, 8), (1, 8, 4), (1, 9, 6), (1, 10, 4), (1, 11, 8),
        (1, 13, 2), (1, 16, 12), (2, 6, 7), (2, 7, 9), (2, 8, 4), (2, 9, 4), (2, 10, 4),
        (2, 11, 4), (2, 13, 4), (2, 16, 10), (3, 6, 4), (3, 7, 4), (3, 8, 4), (3, 10, 4),
        (3, 11, 8), (3, 13, 4), (3, 16, 12), (4, 6, 4), (4, 7, 4), (4, 8, 4), (4, 9, 4),
        (4, 10, 4), (4, 11, 6), (4, 13, 8), (4, 16, 10), (5, 6, 2), (5, 7, 4), (5, 8, 4),
        (5, 9, 8), (5, 10, 6), (5, 13, 2), (5, 16, 12), (6, 7, 2), (6, 8, 4), (6, 9, 6),
        (6, 10, 8), (6, 11, 2), (6, 12, 6), (6, 13, 4), (6, 14, 4), (6, 15, 2), (6, 16, 10),
        (7, 13, 6), (7, 16, 8), (8, 12, 9), (8, 13, 7), (8, 16, 6), (9, 12, 4), (9, 13, 4),
        (9, 16, 6), (10, 12, 4), (10, 13, 4), (10, 16, 6), (11, 12, 4), (11, 13, 2),
        (11, 16, 8), (12, 13, 2), (12, 16, 12), (13, 14, 2), (13, 15, 2), (13, 16, 10),
    ]

    def test_mutated_minor_fails_with_pinned_witnesses(self):
        gens = mutated_secant_gb_6()
        for order in both_inner_orders(6):
            cert = buchberger_verify(gens, order, n=6)
            assert not cert.passed
            assert stats_tuple(cert) == self.PINNED["secant", 6][order.inner]
            (check,) = cert.checks
            assert len(check.witness) == 75
            got = [(*w["pair"], w["remainder_terms"]) for w in check.witness]
            assert got == self.MUTATED_FAILURES

    def test_degree_growing_sweep_is_exact(self):
        for order in both_inner_orders(6):
            cert = buchberger_verify(degree_growing_basis(), order)
            assert stats_tuple(cert) == (66, 0, 66, 2)
            witness = cert.checks[0].witness
            assert len(witness) == 66
            # Remainders print descending under the order: x24^18 leads under
            # grevlex by its degree, x13 under lex by its variable.
            first = {"grevlex": "-1*x[2,4]^18 +1*x[1,3]", "lex": "+1*x[1,3] -1*x[2,4]^18"}
            assert witness[0]["remainder"] == first[order.inner]
            assert witness[-1]["remainder"] == "+1*x[4,5] -1*x[3,6]"

    def test_threads_match_serial(self):
        # Every basis has more than 64 pairs, so threads=2 runs the pool.
        for gens, n in (
            (secant_gb(6), 6),
            (symbolic_square_gb(5), 5),
            (mutated_secant_gb_6(), 6),
            (degree_growing_basis(), 6),
        ):
            for order in both_inner_orders(n):
                serial = buchberger_verify(gens, order, threads=1)
                parallel = buchberger_verify(gens, order, threads=2)
                assert stats_tuple(parallel) == stats_tuple(serial)
                assert dataclasses.replace(parallel, spair_stats=None) == dataclasses.replace(
                    serial, spair_stats=None
                )

    @staticmethod
    def _family_member(family):
        """(n, basis, index) of one generator of the family, checked to be one."""
        if family == "product":
            gens = symbolic_square_gb(5)
            last = toric_gb_polynomials(5)[-1]
            assert gens[-1] == last * last
            return 5, gens, len(gens) - 1
        gens = secant_gb(6)
        if family == "master":
            assert gens[0] == master_polynomial(all_admissible_sequences(6)[0])
            return 6, gens, 0
        minors = {off_diagonal_minor(rows, cols) for rows, cols in circular_minor_splits(range(1, 7))}
        assert gens[-1] in minors
        return 6, gens, len(gens) - 1

    @pytest.mark.parametrize("family", ["master", "minor", "product"])
    def test_flipped_coefficient_fails_spairs(self, family):
        # Negating a non-leading coefficient keeps every leading term, so the
        # pair criteria are unchanged and only the S-pair reductions can fail.
        n, gens, index = self._family_member(family)
        for order in both_inner_orders(n):
            g = gens[index]
            lead = order.leading_monomial(g)
            m = min(x for x in g.monomials() if x != lead)
            mutated = list(gens)
            mutated[index] = g - Polynomial.from_monomial(m, 2 * g.coefficient(m))
            serial = buchberger_verify(mutated, order, threads=1)
            (check,) = serial.checks
            assert (check.name, check.status) == ("spairs_reduce_to_zero", "fail")
            assert any(index in w["pair"] for w in check.witness)
            parallel = buchberger_verify(mutated, order, threads=2)
            assert parallel.checks[0].witness == check.witness

    def test_dead_worker_raises_instead_of_hanging(self):
        """A pool worker that dies raises BrokenProcessPool, in bounded time."""
        script = (
            "import os\n"
            "from concurrent.futures.process import BrokenProcessPool\n"
            "from hypersecant import CircularTermOrder, groebner\n"
            "def die(pairs):\n"
            "    os._exit(1)\n"
            "groebner._worker_chunk = die\n"
            "try:\n"
            "    groebner.buchberger_verify(groebner.secant_gb(6), CircularTermOrder(6), threads=2)\n"
            "except BrokenProcessPool:\n"
            "    print('broken')\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (0, "broken\n")


class TestOffDiagonalMinor:
    def test_six_unit_terms(self):
        m = off_diagonal_minor_3x3((1, 2, 3, 4, 5, 6))
        assert m.term_count == 6
        assert all(c in (1, -1) for _, c in m.terms())

    def test_antidiagonal_is_lead_with_plus_one(self):
        anti = mono((1, 6), (2, 5), (3, 4))
        m = off_diagonal_minor_3x3((1, 2, 3, 4, 5, 6))
        assert m.coefficient(anti) == 1
        for order in both_inner_orders(6):
            assert order.leading_term(m) == (anti, 1)

    def test_circular_splits_lead_with_antidiagonal(self):
        for n in (6, 7):
            for order in both_inner_orders(n):
                for sub in itertools.combinations(range(1, n + 1), 6):
                    for rows, cols in circular_minor_splits(sub):
                        minor = off_diagonal_minor(rows, cols)
                        anti = antidiagonal_monomial(rows, cols)
                        assert order.leading_term(minor) == (anti, 1)

    def test_vanishes_on_rank_two(self):
        assert in_secant_ideal(6, off_diagonal_minor_3x3((1, 2, 3, 4, 5, 6)))
        assert in_secant_ideal(7, off_diagonal_minor((2, 3, 5), (1, 6, 7)))

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            off_diagonal_minor_3x3((1, 2, 3, 4, 5))
        with pytest.raises(ValueError):
            off_diagonal_minor_3x3((1, 2, 3, 3, 5, 6))
        with pytest.raises(ValueError):
            off_diagonal_minor_3x3((2, 1, 3, 4, 5, 6))
        with pytest.raises(ValueError):
            off_diagonal_minor((1, 2, 3), (3, 4, 5))


class TestBases:
    def test_secant_gb_5_is_single_pentad(self):
        (pentad,) = secant_gb(5)
        assert pentad == master_polynomial(admissible_sequences(5, 2)[0])

    def test_secant_gb_4_empty(self):
        assert secant_gb(4) == []
        assert secant_of_edge_ideal(build_graph(4), 3).is_empty

    def test_secant_gb_6_composition(self):
        gens = secant_gb(6)
        # 2 cubic masters, 12 quintic masters, 3 minors on the single 6-subset.
        assert len(gens) == 17
        degrees = sorted(g.degree for g in gens)
        assert degrees.count(3) == 5 and degrees.count(5) == 12

    def test_symbolic_gb_4_is_three_products(self):
        gens = symbolic_square_gb(4)
        assert len(gens) == 3
        assert all(g.degree == 4 for g in gens)

    def test_symbolic_gb_product_leads_multiply(self):
        order = CircularTermOrder(5)
        toric = toric_gb_polynomials(5)
        for f, g in itertools.combinations(toric, 2):
            lt_f, lt_g = order.leading_monomial(f), order.leading_monomial(g)
            assert order.leading_monomial(f * g) == lt_f.mul(lt_g)

    def test_symbolic_gb_5_buchberger_passes(self):
        cert = buchberger_verify(symbolic_square_gb(5), CircularTermOrder(5))
        assert cert.passed


class TestSecantBasisIsOddCycleBijection:
    """One candidate secant generator per induced odd cycle, led by its monomial."""

    @pytest.mark.parametrize("n, count", [(5, 1), (6, 17), (7, 113), (8, 508), (9, 1843)])
    def test_generators_and_cycles_correspond(self, n, count):
        gens = secant_gb(n)
        cycles = induced_odd_cycles(build_graph(n), odd_floor(n))
        assert len(gens) == len(cycles) == count
        want = {Monomial.from_edges(c) for c in cycles}
        for order in both_inner_orders(n):
            assert {order.leading_monomial(g) for g in gens} == want


class TestDelightfulCheck:
    def test_secant_n5_with_buchberger(self):
        cert = delightful_check(5, "secant", CircularTermOrder(5, "grevlex"), with_buchberger=True)
        assert cert.passed
        names = [c.name for c in cert.checks]
        assert "initial_ideal_matches_combinatorial_target" in names
        assert any(c.status == "cited" for c in cert.checks)

    def test_secant_n6_lex_with_buchberger(self):
        cert = delightful_check(6, "secant", CircularTermOrder(6, "lex"), with_buchberger=True)
        assert cert.passed

    def test_symbolic_n5_without_buchberger(self):
        cert = delightful_check(5, "symbolic-square", CircularTermOrder(5), with_buchberger=False)
        assert cert.passed
        assert cert.spair_stats is None

    def test_symbolic_n7_membership_and_initial_legs(self):
        cert = delightful_check(7, "symbolic-square", CircularTermOrder(7), with_buchberger=False)
        assert cert.passed
        statuses = {c.name: c.status for c in cert.checks}
        assert statuses["generators_member_of_symbolic_square"] == "pass"
        assert statuses["initial_ideal_matches_combinatorial_target"] == "pass"

    def test_secant_n9_membership_and_initial_legs(self):
        cert = delightful_check(9, "secant", CircularTermOrder(9), with_buchberger=False)
        assert cert.passed
        assert cert.generator_count == 1843

    def test_lt_ideals_match_targets_n6(self):
        g6 = build_graph(6)
        for order in both_inner_orders(6):
            lt = MonomialIdeal(order.leading_monomial(p) for p in secant_gb(6))
            assert lt == secant_of_edge_ideal(g6, 5)
            lt2 = MonomialIdeal(order.leading_monomial(p) for p in symbolic_square_gb(6))
            assert lt2 == symbolic_square_of_edge_ideal(g6)

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            delightful_check(5, "cubic", CircularTermOrder(5))


def _check(cert, name):
    return next(c for c in cert.checks if c.name == name)


def _flip_lowest_tail(g, order):
    """g with the coefficient of its canonically smallest non-leading monomial negated."""
    lead = order.leading_monomial(g)
    m = min(x for x in g.monomials() if x != lead)
    return g - Polynomial.from_monomial(m, 2 * g.coefficient(m))


def _families(basis):
    """The minors, the masters and the (a, b, product) triples of a labelled basis."""
    minors = [g for label, g in basis if label[0] == "minor"]
    masters = [g for label, g in basis if label[0] == "master"]
    products = [(*label[1:], g) for label, g in basis if label[0] == "product"]
    return minors, masters, products


def _certify(monkeypatch, basis):
    """Make delightful_check certify `basis` in place of the candidate basis."""
    monkeypatch.setattr(groebner, "candidate_basis", lambda n, kind: list(basis))


class TestDelightfulNegativeControls:
    """Each certification leg without S-pairs fails on a deliberately broken basis."""

    @pytest.mark.parametrize("inner", ["grevlex", "lex"])
    def test_flipped_master_coefficient_fails_membership(self, monkeypatch, inner):
        order = CircularTermOrder(6, inner)
        basis = groebner.candidate_basis(6, "secant")
        k = len(all_admissible_sequences(6)) - 1  # the last master
        label, g = basis[k]
        basis[k] = (label, _flip_lowest_tail(g, order))
        _certify(monkeypatch, basis)
        cert = delightful_check(6, "secant", order)
        assert not cert.passed
        leg = _check(cert, "generators_vanish_on_rank_two_locus")
        assert leg.status == "fail"
        assert [w["index"] for w in leg.witness] == [k]
        s = all_admissible_sequences(6)[k]
        assert [(w["family"], w["k"], w["i"], w["j"]) for w in leg.witness] == [
            ("master", s.k, list(s.i), list(s.j))
        ]
        assert _check(cert, "initial_ideal_matches_combinatorial_target").status == "pass"

    @pytest.mark.parametrize("inner", ["grevlex", "lex"])
    def test_flipped_minor_coefficient_fails_membership(self, monkeypatch, inner):
        order = CircularTermOrder(7, inner)
        basis = groebner.candidate_basis(7, "secant")
        k = len(basis) - 2  # the middle split of the last 6-subset
        label, g = basis[k]
        basis[k] = (label, _flip_lowest_tail(g, order))
        _certify(monkeypatch, basis)
        cert = delightful_check(7, "secant", order)
        leg = _check(cert, "generators_vanish_on_rank_two_locus")
        assert leg.status == "fail"
        rows, cols = circular_minor_splits((2, 3, 4, 5, 6, 7))[1]
        assert [(w["index"], w["family"], w["rows"], w["cols"]) for w in leg.witness] == [
            (k, "minor", list(rows), list(cols))
        ]

    @pytest.mark.parametrize("inner", ["grevlex", "lex"])
    def test_dropped_minor_fails_initial_ideal(self, monkeypatch, inner):
        order = CircularTermOrder(6, inner)
        basis = groebner.candidate_basis(6, "secant")
        _, dropped = basis.pop()  # the last minor
        _certify(monkeypatch, basis)
        cert = delightful_check(6, "secant", order)
        assert _check(cert, "generators_vanish_on_rank_two_locus").status == "pass"
        leg = _check(cert, "initial_ideal_matches_combinatorial_target")
        assert leg.status == "fail"
        assert leg.witness["missing"] == [format_monomial(order.leading_monomial(dropped))]
        assert leg.witness["unexpected"] == []

    @pytest.mark.parametrize("inner", ["grevlex", "lex"])
    def test_dropped_minor_fails_symbolic_initial_ideal(self, monkeypatch, inner):
        order = CircularTermOrder(6, inner)
        basis = groebner.candidate_basis(6, "symbolic-square")
        minors, _, _ = _families(basis)
        del basis[len(minors) - 1]  # the last minor
        _certify(monkeypatch, basis)
        cert = delightful_check(6, "symbolic-square", order)
        assert _check(cert, "generators_member_of_symbolic_square").status == "pass"
        leg = _check(cert, "initial_ideal_matches_combinatorial_target")
        assert leg.status == "fail"
        assert leg.witness["missing"]

    @pytest.mark.parametrize("inner", ["grevlex", "lex"])
    def test_mutated_toric_factor_fails_membership(self, monkeypatch, inner):
        order = CircularTermOrder(6, inner)
        toric = toric_gb_polynomials(6)
        k = 7
        lead = order.leading_monomial(toric[k])
        trail = next(m for m in toric[k].monomials() if m != lead)
        toric = list(toric)
        toric[k] = toric[k] + Polynomial.from_monomial(trail, toric[k].coefficient(trail))
        products = [
            (a, b, toric[a] * toric[b])
            for a, b in itertools.combinations_with_replacement(range(len(toric)), 2)
        ]
        monkeypatch.setattr(groebner, "toric_gb_polynomials", lambda n: list(toric))
        minors, masters, built = _families(groebner.candidate_basis(6, "symbolic-square"))
        assert built == products
        cert = delightful_check(6, "symbolic-square", order)
        assert not cert.passed
        leg = _check(cert, "generators_member_of_symbolic_square")
        assert leg.status == "fail"
        offset = len(minors) + len(masters)
        expected = [offset + i for i, (a, b, _) in enumerate(products) if k in (a, b)]
        assert [w["index"] for w in leg.witness] == expected
        assert {w["reason"] for w in leg.witness} == {"factor outside toric ideal"}
        assert {w["family"] for w in leg.witness} == {"product"}
        assert [w["factors"] for w in leg.witness] == [[a, b] for a, b, _ in products if k in (a, b)]

    @pytest.mark.parametrize("inner", ["grevlex", "lex"])
    def test_flipped_symbolic_master_fails_membership(self, monkeypatch, inner):
        order = CircularTermOrder(6, inner)
        basis = groebner.candidate_basis(6, "symbolic-square")
        minors, _, _ = _families(basis)
        label, g = basis[len(minors)]  # the first master
        basis[len(minors)] = (label, _flip_lowest_tail(g, order))
        _certify(monkeypatch, basis)
        cert = delightful_check(6, "symbolic-square", order)
        leg = _check(cert, "generators_member_of_symbolic_square")
        assert leg.status == "fail"
        s = admissible_sequences(6, 1)[0]
        assert leg.witness == [{
            "index": len(minors), "family": "master", "k": 1, "i": list(s.i), "j": list(s.j),
            "reason": "rank-2 oracle failed",
        }]
