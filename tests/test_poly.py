from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersecant import (
    Monomial,
    Polynomial,
    edge_var,
    format_monomial,
    format_polynomial,
    master_polynomial,
    param_t,
    param_u,
    parse_monomial,
    parse_polynomial,
    partial_derivative,
    substitute_rank,
)
from hypersecant.noncrossing import AdmissibleSequence

from conftest import edges_for, monomial_strategy, polynomial_strategy

X = lambda a, b: Polynomial.variable(edge_var(a, b))
PENTAD_SEQ = AdmissibleSequence.from_arrays((1, 2, 3, 4, 5), (1, 2, 3, 4, 5))
CUBIC_SEQ = AdmissibleSequence.from_arrays((1, 3, 5), (2, 4, 6))


def reference_substitute_rank(p, r):
    """x[a,b] -> t_a*t_b (+ u_a*u_b), one factor at a time on Monomial-style
    sorted tuples, with no packing."""
    acc = {}
    for m, c in p.terms():
        expansion = {(): c}
        for (_, a, b), e in m.factors:
            pairs = [(param_t(a), param_t(b)), (param_u(a), param_u(b))][:r]
            for _ in range(e):
                nxt = {}
                for pm, pc in expansion.items():
                    for pair in pairs:
                        d = dict(pm)
                        for v in pair:
                            d[v] = d.get(v, 0) + 1
                        key = tuple(sorted(d.items()))
                        nxt[key] = nxt.get(key, 0) + pc
                expansion = nxt
        for pm, pc in expansion.items():
            mm = Monomial(pm)
            acc[mm] = acc.get(mm, 0) + pc
    return Polynomial(acc)


def with_power_term():
    """A random polynomial on 8 vertices plus c*x[a,b]^e with e up to 40; e = 0
    adds a constant and c = 0 adds nothing."""
    def add_power(p, edge, e, c):
        return p + Polynomial.from_monomial(Monomial(((edge_var(*edge), e),)), c)

    return st.builds(
        add_power,
        polynomial_strategy(n=8, max_terms=4, max_factors=4, max_exp=3, max_coeff=9),
        st.sampled_from(edges_for(8)),
        st.integers(0, 40),
        st.integers(-9, 9),
    )


class TestConstructors:
    def test_any_mapping_or_pair_iterable_is_accepted(self):
        v, w = edge_var(1, 2), edge_var(3, 4)
        m = Monomial({v: 2, w: 1})
        assert Monomial(MappingProxyType({w: 1, v: 2})) == m
        assert Monomial(iter([(w, 1), (v, 1), (v, 1)])) == m
        p = Polynomial({m: 3})
        assert Polynomial(MappingProxyType({m: 3})) == p
        assert Polynomial([(m, 1), (m, 2)]) == p

    @given(m1=monomial_strategy(), m2=monomial_strategy())
    def test_trusted_product_equals_checked_construction(self, m1, m2):
        # mul builds its result through the unchecked Monomial._of.
        product = m1.mul(m2)
        checked = Monomial([*m1.factors, *m2.factors])
        assert (product.factors, hash(product)) == (checked.factors, hash(checked))
        assert product == checked


class TestAdd:
    def test_identity(self):
        p = X(1, 2) * X(3, 4) - X(1, 3) * X(2, 4)
        assert p + Polynomial.zero() == p

    def test_cancellation(self):
        assert (X(1, 2) + (-1 * X(1, 2))).is_zero

    def test_cubic_plus_negation_cancels(self):
        cubic = master_polynomial(CUBIC_SEQ)
        assert (cubic + (-cubic)).is_zero


class TestMul:
    def test_monomial_product(self):
        p = X(1, 2) * X(3, 4)
        assert p.term_count == 1
        assert p.degree == 2
        assert p.coefficient(Monomial.from_edges([(1, 2), (3, 4)])) == 1

    def test_binomial_product_expands_to_four_terms(self):
        # (x12*x34 - x13*x24)(x14*x23 - x13*x24), expanded by hand.
        f = X(1, 2) * X(3, 4) - X(1, 3) * X(2, 4)
        g = X(1, 4) * X(2, 3) - X(1, 3) * X(2, 4)
        expected = Polynomial.from_edge_terms(
            [
                (1, ((1, 2), (1, 4), (2, 3), (3, 4))),
                (-1, ((1, 2), (1, 3), (2, 4), (3, 4))),
                (-1, ((1, 3), (1, 4), (2, 3), (2, 4))),
                (1, ((1, 3), (1, 3), (2, 4), (2, 4))),
            ]
        )
        assert f * g == expected
        assert (f * g).term_count == 4
        assert (f * g).degree == 4

    def test_absorbing_zero(self):
        p = X(1, 2) * X(3, 4) - X(1, 3) * X(2, 4)
        assert (p * Polynomial.zero()).is_zero


class TestPartialDerivative:
    def test_single_edge(self):
        p = X(1, 2) * X(3, 4)
        assert partial_derivative(p, [(1, 2)]) == X(3, 4)

    def test_power_rule(self):
        p = X(1, 2) * X(1, 2)
        assert partial_derivative(p, [(1, 2)]) == 2 * X(1, 2)

    def test_pentad_derivative_in_toric_kernel(self):
        pentad = master_polynomial(PENTAD_SEQ)
        d = partial_derivative(pentad, [(1, 2)])
        assert d.degree == 4
        assert d.term_count % 2 == 0  # pairs up into binomials
        assert substitute_rank(d, 1).is_zero

    def test_empty_multiset_rejected(self):
        with pytest.raises(ValueError):
            partial_derivative(X(1, 2), [])


class TestSubstituteRank:
    def test_rank_one_single_edge(self):
        got = substitute_rank(X(1, 2), 1)
        assert got == Polynomial.from_monomial(Monomial(((param_t(1), 1), (param_t(2), 1))))

    def test_rank_one_kills_toric_generator(self):
        p = X(1, 2) * X(3, 4) - X(1, 3) * X(2, 4)
        assert substitute_rank(p, 1).is_zero

    def test_rank_two_kills_pentad(self):
        assert substitute_rank(master_polynomial(PENTAD_SEQ), 2).is_zero

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            substitute_rank(X(1, 2), 0)
        with pytest.raises(ValueError):
            substitute_rank(X(1, 2), 3)

    def test_rejects_parameter_polynomials(self):
        with pytest.raises(ValueError):
            substitute_rank(Polynomial.variable(param_t(1)), 1)
        with pytest.raises(ValueError):
            substitute_rank(Polynomial.variable(param_u(2)) + X(1, 2), 2)

    @pytest.mark.parametrize("r", [1, 2])
    def test_zero_and_constants(self, r):
        assert substitute_rank(Polynomial.zero(), r).is_zero
        assert substitute_rank(Polynomial.constant(-7), r) == Polynomial.constant(-7)
        assert substitute_rank(X(1, 2) + Polynomial.constant(3), r) == reference_substitute_rank(
            X(1, 2) + Polynomial.constant(3), r
        )

    @pytest.mark.parametrize("e", [1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 40])
    def test_powers_at_field_width_boundaries(self, e):
        # The fields hold exactly the degree: t_1 reaches e in x[1,2]^e.
        p = Polynomial.from_monomial(Monomial(((edge_var(1, 2), e),)), 5) - X(3, 8) * X(1, 2)
        for r in (1, 2):
            assert substitute_rank(p, r) == reference_substitute_rank(p, r)
        image = substitute_rank(Polynomial.from_monomial(Monomial(((edge_var(1, 2), e),))), 2)
        assert image.term_count == e + 1
        t_part = Monomial(((param_t(1), e), (param_t(2), e)))
        assert image.coefficient(t_part) == 1

    @given(with_power_term(), st.integers(1, 2))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_expansion(self, p, r):
        assert substitute_rank(p, r) == reference_substitute_rank(p, r)


class TestRingLaws:
    @given(polynomial_strategy(), polynomial_strategy())
    def test_add_commutes(self, p, q):
        assert p + q == q + p

    @given(polynomial_strategy(), polynomial_strategy())
    def test_mul_commutes(self, p, q):
        assert p * q == q * p

    @given(polynomial_strategy(), polynomial_strategy(), polynomial_strategy())
    def test_distributive(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(polynomial_strategy(), polynomial_strategy(), polynomial_strategy())
    def test_mul_associative(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @given(polynomial_strategy())
    def test_normalization_idempotent(self, p):
        assert Polynomial(dict(p.terms())) == p
        assert all(c != 0 for _, c in p.terms())

    @given(polynomial_strategy(), polynomial_strategy())
    @settings(max_examples=50)
    def test_leibniz(self, p, q):
        d = lambda f: partial_derivative(f, [(1, 2)])
        assert d(p * q) == d(p) * q + p * d(q)

    @given(polynomial_strategy(max_terms=3), polynomial_strategy(max_terms=3), st.integers(1, 2))
    @settings(max_examples=50)
    def test_substitute_rank_is_ring_hom(self, p, q, r):
        assert substitute_rank(p + q, r) == substitute_rank(p, r) + substitute_rank(q, r)
        assert substitute_rank(p * q, r) == substitute_rank(p, r) * substitute_rank(q, r)

    @given(monomial_strategy(max_factors=4, max_exp=3), st.integers(1, 3))
    @settings(max_examples=50)
    def test_derivative_homogeneity(self, m, times):
        p = Polynomial.from_monomial(m, 3)
        d = p
        for _ in range(times):
            d = partial_derivative(d, [(1, 2)])
        assert d.is_zero or d.degree == m.degree - times


class TestTextGrammar:
    def test_monomial_round_trip(self):
        m = Monomial(((edge_var(1, 2), 2), (edge_var(3, 4), 1)))
        assert parse_monomial(format_monomial(m)) == m
        assert format_monomial(m) == "x[1,2]^2*x[3,4]"

    def test_zero(self):
        assert format_polynomial(Polynomial.zero()) == "0"
        assert parse_polynomial("0").is_zero

    @given(polynomial_strategy(max_terms=5, max_exp=3))
    def test_polynomial_round_trip(self, p):
        assert parse_polynomial(format_polynomial(p)) == p

    def test_signed_term_format(self):
        p = X(1, 2) * X(3, 4) - X(1, 3) * X(2, 4)
        text = format_polynomial(p)
        assert "+1*" in text and "-1*" in text

    def test_parameter_factors(self):
        p = substitute_rank(X(1, 2), 2)
        assert parse_polynomial(format_polynomial(p)) == p
        assert "t[1]*t[2]" in format_polynomial(p)
        assert "u[1]*u[2]" in format_polynomial(p)
