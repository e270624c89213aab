import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypersecant import (
    CircularTermOrder,
    Monomial,
    edge_class,
    edge_var,
)
from hypersecant.noncrossing import AdmissibleSequence

from conftest import (
    Polynomial,
    both_inner_orders,
    candidate_polynomials,
    compare,
    edges_for,
    leading_term,
    master_polynomial,
    monomial_strategy,
    mul,
    one,
    order_rows,
    param_t,
    poly_rows,
    polynomial_strategy,
    reference_order_key,
    sort_key,
)

PENTAD_SEQ = AdmissibleSequence.from_arrays((1, 2, 3, 4, 5), (1, 2, 3, 4, 5))


def mono(*edges):
    return Monomial.from_edges(edges)


class TestEdgeClass:
    def test_boundary_orbit_n8(self):
        assert edge_class(8, (1, 2)) == 1

    def test_diameter_orbit_n8(self):
        assert edge_class(8, (1, 5)) == 4

    def test_n5(self):
        assert edge_class(5, (2, 4)) == 2

    def test_unordered_endpoints(self):
        assert edge_class(8, (5, 1)) == 4

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            edge_class(5, (1, 6))
        with pytest.raises(ValueError):
            edge_class(5, (0, 2))
        with pytest.raises(ValueError):
            edge_class(5, (3, 3))

    def test_block_count(self):
        for n in range(3, 10):
            order = CircularTermOrder(n)
            assert len(order._blocks) == n // 2
            classes = {edge_class(n, e) for e in edges_for(n)}
            assert classes == set(range(1, n // 2 + 1))


class TestCompare:
    def test_smaller_class_wins(self):
        for order in both_inner_orders(8):
            assert compare(order, mono((1, 2)), mono((1, 3))) == 1

    def test_noncrossing_beats_crossing_exhaustively(self):
        # The two noncrossing matchings of any 4-subset beat the crossing one.
        for n in range(4, 9):
            for order in both_inner_orders(n):
                for i, j, k, l in itertools.combinations(range(1, n + 1), 4):
                    cross = mono((i, k), (j, l))
                    assert compare(order, mono((i, j), (k, l)), cross) == 1
                    assert compare(order, mono((i, l), (j, k)), cross) == 1

    def test_equal(self):
        order = CircularTermOrder(6)
        m = mono((1, 2), (3, 4))
        assert compare(order, m, m) == 0

    def test_rejects_parameter_variables(self):
        order = CircularTermOrder(6)
        with pytest.raises(ValueError):
            compare(order, Monomial(((param_t(1), 1),)), one())

    def test_rejects_out_of_range_edges(self):
        order = CircularTermOrder(5)
        with pytest.raises(ValueError):
            compare(order, mono((1, 6)), one())


class TestLeadingTerm:
    def test_toric_binomial(self):
        p = Polynomial.from_edge_terms([(1, ((1, 2), (3, 4))), (-1, ((1, 3), (2, 4)))])
        for order in both_inner_orders(4):
            m, c = leading_term(order, p)
            assert m == mono((1, 2), (3, 4)) and c == 1

    def test_pentad(self):
        pentad = master_polynomial(PENTAD_SEQ)
        expected = mono((1, 2), (1, 5), (2, 3), (3, 4), (4, 5))
        for order in both_inner_orders(5):
            m, c = leading_term(order, pentad)
            assert m == expected and c == 1

    def test_single_term(self):
        order = CircularTermOrder(6)
        m = mono((1, 2), (3, 4))
        assert leading_term(order, Polynomial.from_monomial(m, -7)) == (m, -7)

    def test_rejects_zero(self):
        order = CircularTermOrder(6)
        with pytest.raises(ValueError):
            leading_term(order, Polynomial.zero())


class TestTermOrderAxioms:
    @given(monomial_strategy(), monomial_strategy())
    def test_total_and_antisymmetric(self, m1, m2):
        order = CircularTermOrder(6)
        c = compare(order, m1, m2)
        assert c in (-1, 0, 1)
        assert (c == 0) == (m1 == m2)
        assert compare(order, m2, m1) == -c

    @given(monomial_strategy())
    def test_one_is_minimal(self, m):
        order = CircularTermOrder(6)
        assert compare(order, m, one()) >= 0

    @given(monomial_strategy(), monomial_strategy(), monomial_strategy())
    @settings(max_examples=200)
    def test_multiplicative(self, m1, m2, m3):
        for order in both_inner_orders(6):
            c = compare(order, m1, m2)
            assert compare(order, mul(m1, m3), mul(m2, m3)) == c

    @given(st.sampled_from(edges_for(7)), st.sampled_from(edges_for(7)))
    def test_class_dominance(self, e1, e2):
        c1, c2 = edge_class(7, e1), edge_class(7, e2)
        if c1 < c2:
            for order in both_inner_orders(7):
                assert compare(order, mono(e1), mono(e2)) == 1

    def test_both_inner_orders_disagree_somewhere(self):
        # Distinct instantiations of the family: they disagree on some pair.
        grevlex, lex = both_inner_orders(6)
        found = False
        for m1, m2 in itertools.combinations(
            (mono(e, f) for e, f in itertools.combinations(edges_for(6), 2)), 2
        ):
            if compare(grevlex, m1, m2) != compare(lex, m1, m2):
                found = True
                break
        assert found


class TestPackedWidths:
    """The packed key is sized from a degree bound, so degrees 2**b - 1, 2**b
    and 2**b + 1 straddle a field width."""

    @staticmethod
    def boundary_monomials(n, b, rng):
        edges = edges_for(n)
        out = []
        for d in (2**b - 1, 2**b, 2**b + 1):
            out += [mono(*[(1, 2)] * d), mono(*[(2, 3)] * d), mono(*[(1, 2)] * (d - 1), (1, 3))]
            out.append(Monomial({edge_var(*rng.choice(edges)): d}))
            for _ in range(3):
                cuts = sorted(rng.randint(0, d) for _ in range(2))
                exps = (cuts[0], cuts[1] - cuts[0], d - cuts[1])
                out.append(Monomial({edge_var(*e): x for e, x in zip(rng.sample(edges, 3), exps)}))
        return list(dict.fromkeys(out))

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_mixed_degree_polynomial_agrees_with_reference(self, n):
        rng = random.Random(n)
        for b in range(1, 7):
            monos = self.boundary_monomials(n, b, rng) + [one()]
            p = Polynomial((m, k + 1) for k, m in enumerate(monos))
            assert p.degree == 2**b + 1 and not p.is_homogeneous
            for order in both_inner_orders(n):
                ref = {m: reference_order_key(order, m) for m in monos}
                top = max(monos, key=ref.get)
                assert leading_term(order, p) == (top, p.coefficient(top))
                assert sorted(p.monomials(), key=sort_key(order, p.degree)) == sorted(monos, key=ref.get)
                for m1, m2 in itertools.product(monos, repeat=2):
                    assert compare(order, m1, m2) == (ref[m1] > ref[m2]) - (ref[m1] < ref[m2])

    def test_one_packing_per_width(self):
        gens = candidate_polynomials(7, "symbolic-square")
        widths = {max(g.degree, 1).bit_length() for g in gens}
        for order in both_inner_orders(7):
            for g in gens:
                leading_term(order, g)
            table = dict(order._packings)
            assert set(table) == widths
            assert all(pk.bits == bits for bits, pk in table.items())
            for g in gens:
                leading_term(order, g)
            assert order._packings == table

    def test_packing_holds_its_degree(self):
        # The fewest-bit fields whose limit is at least the degree.
        order = CircularTermOrder(5)
        for degree in range(70):
            pk = order.packing(degree)
            assert pk.limit >= degree
            assert pk.limit >> 1 < max(degree, 1)
            assert order.packing(pk.limit) is pk


class TestRows:
    """Every polynomial a command writes goes through rows; a product of two
    polynomials can be given its rows from their packed terms."""

    @staticmethod
    def expected_rows(p, order):
        return [(p.coefficient(m), m.factors) for m in sorted(p.monomials(), key=sort_key(order, p.degree), reverse=True)]

    @settings(max_examples=80, deadline=None)
    @given(
        p=polynomial_strategy(max_coeff=2),
        q=polynomial_strategy(max_coeff=2),
        inner=st.sampled_from(["grevlex", "lex"]),
    )
    @example(  # (x12 + x34)(x12 - x34): the cross terms cancel
        p=Polynomial.from_edge_terms([(1, [(1, 2)]), (1, [(3, 4)])]),
        q=Polynomial.from_edge_terms([(1, [(1, 2)]), (-1, [(3, 4)])]),
        inner="grevlex",
    )
    def test_product_rows_are_rows_of_the_product(self, p, q, inner):
        order = CircularTermOrder(6, inner)
        assert order_rows(order, p) == self.expected_rows(p, order)
        pk = order.packing(max(p.degree, 0) + max(q.degree, 0))
        rows = pk.product_rows(pk.terms(poly_rows(p)), pk.terms(poly_rows(q)))
        assert rows == order_rows(order, p * q) == self.expected_rows(p * q, order)
        assert all(c for c, _ in rows)

    def test_cancelled_terms_leave_no_row(self):
        order = CircularTermOrder(6)
        p = Polynomial.from_edge_terms([(1, [(1, 2)]), (1, [(3, 4)])])
        q = Polynomial.from_edge_terms([(1, [(1, 2)]), (-1, [(3, 4)])])
        pk = order.packing(2)
        x12, x34 = edge_var(1, 2), edge_var(3, 4)
        assert pk.product_rows(pk.terms(poly_rows(p)), pk.terms(poly_rows(q))) == [(1, ((x12, 2),)), (-1, ((x34, 2),))]
