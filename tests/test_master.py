import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersecant import (
    AdmissibleSequence,
    CircularTermOrder,
    NoncrossingGraph,
    all_admissible_sequences,
    cycle_monomial,
    secant_of_edge_ideal,
    verify_prolongation,
)
from hypersecant.hypersimplex import SecantClasses
from hypersecant.master import master_terms
from hypersecant.poly import degree, edge_factors
from hypersecant.fixtures import (
    REFERENCE_CUBIC_TERMS,
    REFERENCE_PENTAD_TERMS,
)

from conftest import (
    ConjugationSubset,
    LetterSet,
    Polynomial,
    base_involution,
    both_inner_orders,
    conjugate,
    crossing_number,
    edges_for,
    ideal_contains,
    involution_monomial,
    is_multilinear,
    is_squarefree,
    master_polynomial,
    monomial,
    order_rows,
    param_t,
    partial_derivative,
    poly_rows,
    reference_master_polynomial,
    reference_polynomial,
    reference_prolongation,
    substitute_rank,
    toric_gb_polynomials,
)

CUBIC_SEQ = AdmissibleSequence.from_arrays((1, 3, 5), (2, 4, 6))
PENTAD_SEQ = AdmissibleSequence.from_arrays((1, 2, 3, 4, 5), (1, 2, 3, 4, 5))
GENERIC_SEQ = AdmissibleSequence.from_arrays((1, 3, 5, 7, 9), (2, 4, 6, 8, 10))


def subset(k, *indices):
    return ConjugationSubset(k, frozenset(indices))


class TestBaseInvolution:
    def test_k1(self):
        assert set(base_involution(1).pairs) == {
            (("I", 1), ("J", 1)),
            (("I", 2), ("J", 2)),
            (("I", 3), ("J", 3)),
        }

    def test_k2_shifted_pairs(self):
        assert set(base_involution(2).pairs) == {
            (("I", 1), ("J", 2)),
            (("I", 2), ("J", 3)),
            (("I", 3), ("J", 4)),
            (("I", 4), ("J", 5)),
            (("I", 5), ("J", 1)),
        }

    def test_fixed_point_free_perfect_matching(self):
        for k in range(1, 5):
            inv = base_involution(k)
            assert len(inv.pairs) == 2 * k + 1
            letters = [l for p in inv.pairs for l in p]
            assert len(letters) == len(set(letters)) == 4 * k + 2


class TestConjugate:
    def test_empty_subset_is_identity(self):
        inv = base_involution(2)
        assert conjugate(inv, subset(2)) == inv

    def test_single_transposition_k1(self):
        # Swapping I_2 with J_1 re-pairs the first two base pairs.
        got = conjugate(base_involution(1), subset(1, 2))
        assert set(got.pairs) == {
            (("I", 1), ("I", 2)),
            (("J", 1), ("J", 2)),
            (("I", 3), ("J", 3)),
        }

    def test_full_subset_is_all_crossing(self):
        for k in (1, 2, 3):
            full = conjugate(base_involution(k), subset(k, *range(1, 2 * k + 2)))
            assert crossing_number(full) == comb(2 * k + 1, 2)

    def test_preserves_fixed_point_freeness(self):
        for k in (1, 2):
            for r in range(2 * k + 2):
                for chosen in itertools.combinations(range(1, 2 * k + 2), r):
                    inv = conjugate(base_involution(k), subset(k, *chosen))
                    assert len(inv.pairs) == 2 * k + 1


class TestInvolutionMonomial:
    def test_cubic_base(self):
        letters = LetterSet.from_sequence(CUBIC_SEQ)
        m = involution_monomial(base_involution(1), letters)
        assert m == edge_factors([(1, 2), (3, 4), (5, 6)])

    def test_pentad_base(self):
        letters = LetterSet.from_sequence(PENTAD_SEQ)
        m = involution_monomial(base_involution(2), letters)
        assert m == edge_factors([(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])

    def test_degree(self):
        letters = LetterSet.from_sequence(GENERIC_SEQ)
        for r in (0, 1, 3):
            chosen = tuple(range(1, r + 1))
            m = involution_monomial(conjugate(base_involution(2), subset(2, *chosen)), letters)
            assert degree(m) == 5

    def test_loop_is_an_error(self):
        letters = LetterSet(1, {("I", 1): 1, ("J", 1): 1, ("I", 2): 2,
                                ("J", 2): 3, ("I", 3): 4, ("J", 3): 5})
        with pytest.raises(ValueError):
            involution_monomial(base_involution(1), letters)

    def test_sign_example_from_cubic(self):
        # Transposition (I_2, J_1) sends the lead monomial to x13*x24*x56,
        # which carries coefficient -1 in the eight-term cubic.
        letters = LetterSet.from_sequence(CUBIC_SEQ)
        m = involution_monomial(conjugate(base_involution(1), subset(1, 2)), letters)
        assert m == edge_factors([(1, 3), (2, 4), (5, 6)])
        assert master_polynomial(CUBIC_SEQ).coefficient(m) == -1


class TestCrossingNumber:
    def test_base_k2(self):
        assert crossing_number(base_involution(2)) == comb(5, 2) - 5 == 5

    def test_base_k1_parallel_chords(self):
        assert crossing_number(base_involution(1)) == 0

    def test_ladder_small(self):
        for k in (1, 2):
            base = base_involution(k)
            offset = comb(2 * k + 1, 2) - (2 * k + 1)
            for r in range(2 * k + 2):
                for chosen in itertools.combinations(range(1, 2 * k + 2), r):
                    assert crossing_number(conjugate(base, subset(k, *chosen))) == offset + r


class TestMasterPolynomial:
    def test_cubic_reproduces_reference(self):
        assert master_polynomial(CUBIC_SEQ) == reference_polynomial(REFERENCE_CUBIC_TERMS)

    def test_pentad_reproduces_reference(self):
        assert master_polynomial(PENTAD_SEQ) == reference_polynomial(REFERENCE_PENTAD_TERMS)

    def test_generic_quintic_32_unit_terms(self):
        f = master_polynomial(GENERIC_SEQ)
        assert f.term_count == 32
        assert all(c in (1, -1) for _, c in f.terms())

    def test_injective_assignment_term_count(self):
        # Trivial stabilizer: 2^{2k+1} distinct signed monomials.
        f = master_polynomial(CUBIC_SEQ)
        assert f.term_count == 8

    def test_sign_correctness_injective(self):
        letters = LetterSet.from_sequence(GENERIC_SEQ)
        f = master_polynomial(GENERIC_SEQ)
        base = base_involution(2)
        for r in range(6):
            for chosen in itertools.combinations(range(1, 6), r):
                m = involution_monomial(conjugate(base, subset(2, *chosen)), letters)
                assert f.coefficient(m) == (-1) ** r

    def test_matches_formal_letter_reference(self):
        # Every admissible sequence with indices up to 8, the degenerate
        # (i_l = j_l) ones included.
        seqs = list(all_admissible_sequences(8))
        assert any(a == b for s in seqs for a, b in zip(s.i, s.j))
        for s in seqs:
            assert master_polynomial(s) == reference_master_polynomial(s)

    def test_conjugate_with_a_loop_is_an_error(self):
        # i_1 = j_1 pairs one index with itself in the base pairing for k = 1;
        # the sequence is built past AdmissibleSequence's own loop check.
        s = tuple.__new__(AdmissibleSequence, (1, (1, 3, 5), (1, 4, 6)))
        with pytest.raises(ValueError):
            reference_master_polynomial(s)
        with pytest.raises(ValueError):
            master_polynomial(s)

    def test_homogeneous_of_odd_degree(self):
        for n in (5, 6):
            for s in all_admissible_sequences(n):
                f = master_polynomial(s)
                assert f.is_homogeneous
                assert f.degree == s.length

    def test_degenerate_nonvanishing_and_unit_cycle_coefficient(self):
        for n in (5, 6, 7):
            for s in all_admissible_sequences(n):
                f = master_polynomial(s)
                assert not f.is_zero
                assert f.coefficient(cycle_monomial(s)) in (1, -1)

    def test_cycle_monomial_is_unique_survivor_of_initial_filter(self):
        # The lead is the only monomial of the master polynomial divisible by
        # an odd-cycle generator of the secant of the initial ideal.
        for n in (5, 6, 7):
            max_len = n if n % 2 else n - 1
            ideal = secant_of_edge_ideal(NoncrossingGraph(n), max_len)
            for s in all_admissible_sequences(n):
                f = master_polynomial(s)
                survivors = [m for m in f.monomials() if ideal_contains(ideal, m)]
                assert survivors == [cycle_monomial(s)]


class TestMasterTerms:
    @pytest.mark.parametrize("inner", ["grevlex", "lex"])
    @pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
    def test_rows_equal_the_sorted_polynomial(self, n, inner):
        # Every admissible sequence at n: the same rows as master_polynomial
        # sorted by the order, descending in the order's packing for degree
        # n, which ranks every master at n.
        order = CircularTermOrder(n, inner)
        packing = order.packing(n)
        for s in all_admissible_sequences(n):
            rows = master_terms(s, order)
            assert rows == order_rows(order, master_polynomial(s)), s
            keys = [packing.pack(f) for _, f in rows]
            assert keys == sorted(keys, reverse=True), s

    def test_factors_are_interned_as_a_monomials(self):
        order = CircularTermOrder(6)
        rows = master_terms(PENTAD_SEQ, order)
        for _, f in rows:
            assert all(a is b for a, b in zip(f, monomial(f)))
        keys = [order.packing(6).pack(f) for _, f in rows]
        assert keys == sorted(keys, reverse=True)

    def test_order_too_narrow_raises(self):
        with pytest.raises(ValueError):
            master_terms(CUBIC_SEQ, CircularTermOrder(5))


class TestVerifiers:
    def test_membership_pentad(self):
        assert SecantClasses(5)(master_terms(PENTAD_SEQ, CircularTermOrder(5)))

    def test_membership_cubic(self):
        assert SecantClasses(6)(master_terms(CUBIC_SEQ, CircularTermOrder(6)))

    # The verdict at each bound 0..deg f + 1.  Bound 0, and any bound on a
    # constant or zero f, passes vacuously; a bound above deg f asks for
    # vanishing derivatives only, so it has the verdict of bound deg f.
    @pytest.mark.parametrize("n, f, verdicts", [
        (6, master_polynomial(CUBIC_SEQ), [True, True, False, False, False]),
        (5, master_polynomial(PENTAD_SEQ), [True, True, True, False, False, False, False]),
        # A toric binomial is a member, but its first derivatives are monomials.
        (4, Polynomial.from_edge_terms([(1, ((1, 2), (3, 4))), (-1, ((1, 3), (2, 4)))]), [True, False, False, False]),
        # A bare noncrossing pair has first derivatives outside the kernel.
        (4, Polynomial.from_edge_terms([(1, ((1, 2), (3, 4)))]), [True, False, False, False]),
        (4, Polynomial.from_edge_terms([(3, ())]), [True, True]),
        (4, Polynomial.from_edge_terms([]), [True, True]),
    ], ids=["cubic", "pentad", "toric-binomial", "noncrossing-pair", "constant", "zero"])
    def test_prolongation_at_every_bound(self, n, f, verdicts):
        rows = poly_rows(f)
        assert len(verdicts) == max(map(degree, (m for _, m in rows)), default=0) + 2
        assert [verify_prolongation(n, rows, bound) for bound in range(len(verdicts))] == verdicts
        assert [reference_prolongation(n, f, bound) for bound in range(len(verdicts))] == verdicts

    def test_prolongation_rejects_inhomogeneous(self):
        p = Polynomial.from_edge_terms([(1, ((1, 2),)), (1, ((1, 2), (3, 4)))])
        with pytest.raises(ValueError):
            verify_prolongation(4, poly_rows(p), 1)

    def test_leading_term_pentad_and_cubic_both_orders(self):
        for order in both_inner_orders(5):
            assert master_terms(PENTAD_SEQ, order)[0][1] == cycle_monomial(PENTAD_SEQ)
        for order in both_inner_orders(6):
            assert master_terms(CUBIC_SEQ, order)[0][1] == cycle_monomial(CUBIC_SEQ)

    def test_derivative_pairing_for_injective_assignment(self):
        # Squarefree derivatives of a distinct-index master split into
        # binomials with equal index multisets, so the rank-1 image vanishes.
        import itertools

        f = master_polynomial(GENERIC_SEQ)
        edges = [(v[1], v[2]) for v in f.variables()]
        for size in (1, 2):
            for multiset in itertools.combinations(edges, size):
                d = partial_derivative(f, multiset)
                assert substitute_rank(d, 1).is_zero


@st.composite
def prolongation_cases(draw, n=6):
    """b^p * m, plus up to two stray terms of its degree, and a bound in 0..4.

    b is a toric binomial and p is 1..3, so every derivative of b^p * m of
    order < p lies in the toric ideal; the bound is drawn near p, and the
    stray terms, drawn a third of the time, usually break the verdict.  Edges
    come from a pool of at most four, so exponents repeat; a stray term has
    none above 3.
    """
    b = draw(st.sampled_from(toric_gb_polynomials(n)))
    p = draw(st.integers(1, 3))
    bound = draw(st.integers(max(p - 2, 0), p + 1))
    pool = draw(st.lists(st.sampled_from(edges_for(n)), min_size=1, max_size=4, unique=True))
    m = draw(st.lists(st.sampled_from(pool), max_size=3))
    f = Polynomial.from_edge_terms([(draw(st.sampled_from((-2, -1, 1, 3))), m)])
    for _ in range(p):
        f = f * b
    if draw(st.integers(0, 2)) == 0:
        capped = st.lists(st.sampled_from(pool), min_size=f.degree, max_size=f.degree).filter(
            lambda es: max(map(es.count, es)) <= 3
        )
        f = f + Polynomial.from_edge_terms(draw(st.lists(st.tuples(st.integers(-3, 3), capped), max_size=2)))
    return f, bound


class TestProlongationAgainstOracle:
    """verify_prolongation against conftest.reference_prolongation, which
    builds and tests every derivative."""

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_every_admissible_sequence(self, n):
        masters = [(master_polynomial(s), s.k) for s in all_admissible_sequences(n)]
        assert [verify_prolongation(n, poly_rows(f), k) for f, k in masters] == [True] * len(masters)
        assert [reference_prolongation(n, f, k) for f, k in masters] == [True] * len(masters)
        if n == 7:
            assert sum(not is_multilinear(f) for f, _ in masters) == 50

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_every_master_with_one_term_changed_or_dropped_fails(self, n):
        for s in all_admissible_sequences(n):
            f = master_polynomial(s)
            # The lead, and a term with a repeated edge where there is one.
            for m in {cycle_monomial(s), max(f.monomials(), key=lambda m: (not is_squarefree(m), m))}:
                c = f.coefficient(m)
                for g in (f + Polynomial.from_monomial(m, c), f - Polynomial.from_monomial(m, c)):
                    assert not verify_prolongation(n, poly_rows(g), s.k), (s, m)
                    assert not reference_prolongation(n, g, s.k), (s, m)

    @given(prolongation_cases())
    @settings(max_examples=300, deadline=None)
    def test_drawn_homogeneous_polynomials(self, case):
        f, bound = case
        assert verify_prolongation(6, poly_rows(f), bound) == reference_prolongation(6, f, bound)

    def test_repeated_edges_carry_falling_factorial_weights(self):
        # d/dx[1,2] of (x[1,2]x[3,4] - x[1,3]x[2,4])^2 is 2 b x[3,4], a member,
        # only because x[1,2]^2 contributes with weight 2.
        b = Polynomial.from_edge_terms([(1, ((1, 2), (3, 4))), (-1, ((1, 3), (2, 4)))])
        f = b * b
        assert [verify_prolongation(4, poly_rows(f), k) for k in range(4)] == [True, True, False, False]
        assert [reference_prolongation(4, f, k) for k in range(4)] == [True, True, False, False]

    def test_squares_of_binomials_of_quadrics(self):
        # (A - B)^2 has its first derivatives in the toric ideal iff A - B is
        # in it.  Where A and B differ, A^2, AB and B^2 cancel per derivative
        # only if their images are merged, e.g. by a too-narrow image field.
        monomials = [edge_factors(es) for es in itertools.combinations_with_replacement(edges_for(5), 2)]
        for a, b in itertools.combinations(monomials, 2):
            g = Polynomial.from_monomial(a) - Polynomial.from_monomial(b)
            f = g * g
            member = substitute_rank(g, 1).is_zero
            assert verify_prolongation(5, poly_rows(f), 1) == member == reference_prolongation(5, f, 1), (a, b)

    # An inhomogeneous f: TestVerifiers.test_prolongation_rejects_inhomogeneous.
    @pytest.mark.parametrize("n, f, bound", [
        (4, Polynomial.from_edge_terms([(1, ((1, 2), (3, 4)))]), -1),
        (4, Polynomial.from_edge_terms([(1, ((1, 2), (3, 4)))]), 1.0),
        (4, Polynomial.variable(param_t(1)), 1),
        (4, Polynomial.variable(param_t(1)), 0),
        (4, Polynomial.from_edge_terms([(1, ((1, 5), (2, 3)))]), 1),
        (4, Polynomial.from_edge_terms([(1, ((1, 5), (2, 3)))]), 0),
    ])
    def test_invalid_input_raises(self, n, f, bound):
        with pytest.raises(ValueError):
            verify_prolongation(n, poly_rows(f), bound)
