import hashlib
import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersecant import (
    CircularTermOrder,
    MonomialIdeal,
    NoncrossingGraph,
    crosses,
    edge_var,
    in_secant_ideal,
    in_toric_ideal,
    initial_edge_ideal,
    symbolic_square_of_edge_ideal,
    toric_gb,
)
from hypersecant import hypersimplex
from hypersecant.groebner import candidate_basis
from hypersecant.hypersimplex import SecantClasses, _pinned_vertex
from hypersecant.poly import canonical_sorted, degree, edge_factors, format_factors
from hypersecant.noncrossing import AdmissibleSequence

from conftest import (
    Polynomial,
    both_inner_orders,
    candidate_polynomials,
    canonical_key,
    divides,
    edges_for,
    flip_lowest_tail,
    ideal_contains,
    ideal_keys,
    label_polynomials,
    leading_monomial,
    leading_term,
    master_polynomial,
    monomial,
    monomial_strategy,
    mul,
    off_diagonal_minor,
    packed_ideal,
    param_t,
    param_u,
    poly_rows,
    polynomial_of,
    reference_minimal_generators,
    relabel,
    substitute_rank,
    term_rows,
    variables,
)

PENTAD_SEQ = AdmissibleSequence.from_arrays((1, 2, 3, 4, 5), (1, 2, 3, 4, 5))


def mono(*edges):
    return edge_factors(edges)


mixed_monomial = st.lists(
    st.tuples(
        st.sampled_from(
            [edge_var(a, b) for a, b in edges_for(5)] + [param_t(1), param_t(2), param_u(1), param_u(3)]
        ),
        st.integers(1, 3),
    ),
    max_size=4,
).map(monomial)


class TestCrosses:
    def test_interleaving_pair(self):
        assert crosses(6, (1, 3), (2, 4))

    def test_disjoint_arcs(self):
        assert not crosses(6, (1, 2), (3, 4))

    def test_shared_endpoint_counts_as_crossing(self):
        assert crosses(6, (1, 2), (2, 3))

    def test_symmetric(self):
        for e, f in itertools.combinations(edges_for(7), 2):
            assert crosses(7, e, f) == crosses(7, f, e)

    def test_rotation_invariant(self):
        n = 7
        rot = lambda v: v % n + 1
        for e, f in itertools.combinations(edges_for(n), 2):
            re = tuple(sorted((rot(e[0]), rot(e[1]))))
            rf = tuple(sorted((rot(f[0]), rot(f[1]))))
            assert crosses(n, e, f) == crosses(n, re, rf)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            crosses(5, (1, 6), (2, 3))


class TestToricGb:
    def test_n3_empty(self):
        assert toric_gb(3) == []

    def test_n4_exact(self):
        gens = toric_gb(4)
        polys = {polynomial_of(g.rows()) for g in gens}
        assert polys == {
            Polynomial.from_edge_terms([(1, ((1, 2), (3, 4))), (-1, ((1, 3), (2, 4)))]),
            Polynomial.from_edge_terms([(1, ((1, 4), (2, 3))), (-1, ((1, 3), (2, 4)))]),
        }

    def test_n5_count(self):
        assert len(toric_gb(5)) == 2 * comb(5, 4) == 10

    def test_leads_are_leading_terms_under_both_orders(self):
        for n in range(4, 8):
            for order in both_inner_orders(n):
                for g in toric_gb(n):
                    m, c = leading_term(order, polynomial_of(g.rows()))
                    assert m == g.lead and c == 1

    def test_reduced_basis_property(self):
        # No term of any generator is divisible by another generator's lead.
        for n in (5, 6):
            gens = toric_gb(n)
            for gi, g in enumerate(gens):
                for m in (g.lead, g.trail):
                    for hj, h in enumerate(gens):
                        if hj != gi:
                            assert not divides(h.lead, m)

    def test_members_of_kernel(self):
        for g in toric_gb(7):
            assert in_toric_ideal(7, g.rows())


class TestInitialEdgeIdeal:
    def test_n4_exact(self):
        assert set(initial_edge_ideal(4).generators) == {
            mono((1, 2), (3, 4)),
            mono((1, 4), (2, 3)),
        }

    def test_n5_count_by_enumeration(self):
        # Oracle: count noncrossing unordered pairs directly.
        expected = sum(
            1 for e, f in itertools.combinations(edges_for(5), 2) if not crosses(5, e, f)
        )
        assert len(initial_edge_ideal(5)) == expected == 10

    def test_n3_empty(self):
        assert not ideal_keys(initial_edge_ideal(3))

    def test_matches_crossing_enumeration(self):
        # Oracle: every unordered chord pair that does not cross.
        for n in range(3, 10):
            pairs = itertools.combinations(edges_for(n), 2)
            assert initial_edge_ideal(n) == packed_ideal([mono(e, f) for e, f in pairs if not crosses(n, e, f)], n=n)

    @pytest.mark.parametrize("n", [2, 0, "4"])
    def test_rejects_n_below_3(self, n):
        with pytest.raises(ValueError, match="need n >= 3"):
            initial_edge_ideal(n)

    def test_matches_toric_leads(self):
        for n in range(3, 10):
            leads = packed_ideal([g.lead for g in toric_gb(n)], n=n)
            assert leads == initial_edge_ideal(n)


class TestMembershipOracles:
    def test_toric_generator(self):
        p = Polynomial.from_edge_terms([(1, ((1, 2), (3, 4))), (-1, ((1, 3), (2, 4)))])
        assert in_toric_ideal(4, poly_rows(p))

    def test_single_variable_not_member(self):
        assert not in_toric_ideal(4, poly_rows(Polynomial.variable(edge_var(1, 2))))

    def test_pentad_in_secant(self):
        assert in_secant_ideal(5, poly_rows(master_polynomial(PENTAD_SEQ)))

    def test_two_by_two_minor_not_in_secant(self):
        p = Polynomial.from_edge_terms([(1, ((1, 2), (3, 4))), (-1, ((1, 3), (2, 4)))])
        assert not in_secant_ideal(4, poly_rows(p))

    def test_zero_in_secant(self):
        assert in_secant_ideal(5, poly_rows(Polynomial.zero()))

    def test_secant_oracle_rejects_inhomogeneous(self):
        p = Polynomial.variable(edge_var(1, 2)) + Polynomial.constant(1)
        with pytest.raises(ValueError):
            in_secant_ideal(4, poly_rows(p))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            in_toric_ideal(4, poly_rows(Polynomial.variable(edge_var(1, 5))))


class TestSecantClasses:
    """Rank-2 verdicts memoized by relabelling class against the oracle
    called once per polynomial."""

    @pytest.mark.parametrize("kind", ["secant", "symbolic-square"])
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_class_verdicts_equal_direct_calls(self, monkeypatch, n, kind):
        # Every master and minor, and at n <= 6 each with its lowest tail
        # flipped, in basis order through one memo.
        order = CircularTermOrder(n)
        labels = [l for l in candidate_basis(n, kind) if l[0] != "product"]
        gens = label_polynomials(n, labels)
        if n <= 6:
            gens += [flip_lowest_tail(g, order) for g in gens]
        calls = []
        oracle = hypersimplex.in_secant_ideal

        def counted(n, rows):
            calls.append(rows)
            return oracle(n, rows)

        monkeypatch.setattr(hypersimplex, "in_secant_ideal", counted)
        member = SecantClasses(n)
        verdicts = [member(rows) for rows in term_rows(gens)]
        monkeypatch.undo()
        assert verdicts == [in_secant_ideal(n, poly_rows(g)) for g in gens]
        assert verdicts == [True] * len(labels) + [False] * (len(gens) - len(labels))
        assert len(calls) == len({member._key(rows) for rows in term_rows(gens)}) <= len(gens)
        if n == 8 and kind == "secant":
            # 508 generators, 51 classes up to an increasing relabelling.
            assert (len(gens), len(calls)) == (508, 51)

    @given(st.permutations(range(1, 8)), st.data())
    @settings(max_examples=30, deadline=None)
    def test_verdict_is_invariant_under_vertex_permutations(self, perm, data):
        n = 7
        vertex = dict(zip(range(1, 8), perm))
        g = data.draw(st.sampled_from(SECANT_GENERATORS[n]))
        if data.draw(st.booleans()):
            g = flip_lowest_tail(g, CircularTermOrder(n))
        assert in_secant_ideal(n, poly_rows(relabel(g, vertex))) == in_secant_ideal(n, poly_rows(g))

    def test_relabelled_copy_shares_a_key_and_a_flip_does_not(self):
        pentad = master_polynomial(PENTAD_SEQ)
        shifted = relabel(pentad, {a: a + 2 for a in range(1, 6)})
        member = SecantClasses(7)
        rows, shifted_rows = term_rows([pentad, shifted])
        assert member._key(rows) == member._key(shifted_rows)
        flipped = flip_lowest_tail(shifted, CircularTermOrder(7))
        assert member._key(term_rows([flipped])[0]) != member._key(rows)
        assert member(rows) and member(shifted_rows)
        assert not member(term_rows([flipped])[0])

    def test_a_vertex_above_n_raises_despite_a_shared_class(self):
        minor = off_diagonal_minor((1, 2, 3), (4, 5, 6))
        member = SecantClasses(6)
        assert member(term_rows([minor])[0])
        outside = relabel(minor, {a: a + 1 for a in range(1, 7)})
        with pytest.raises(ValueError):
            member(term_rows([outside])[0])


    @pytest.mark.parametrize("extra", [(1, -1), (1, 1, -1), (0,)], ids=["m-m", "m+m-m", "0m"])
    def test_rows_that_break_the_row_invariant_raise(self, extra):
        # minor + m - m is the minor, and minor + m + m - m is minor + m, yet
        # both once fell into the minor's class.  Rows name each monomial at
        # most once, with a nonzero coefficient.
        minor = term_rows([off_diagonal_minor((1, 2, 3), (4, 5, 6))])[0]
        m = mono((1, 2), (3, 4), (5, 6))
        with pytest.raises(ValueError, match="a monomial twice|a zero coefficient"):
            SecantClasses(6)(minor + [(c, m) for c in extra])


# Masters and minors of the secant bases, the generators the rank-2 oracle
# must accept, with degrees 3, 5 and 7.
SECANT_GENERATORS = {n: candidate_polynomials(n, "secant") for n in (5, 6, 7)}


@st.composite
def secant_sums(draw):
    """(n, f): f = sum c*m*g over masters and minors g, homogeneous, n <= 7."""
    n = draw(st.integers(5, 7))
    gens = SECANT_GENERATORS[n]
    degree = draw(st.integers(min(g.degree for g in gens), 7))
    gens = [g for g in gens if g.degree <= degree]
    edges = edges_for(n)
    f = Polynomial.zero()
    for _ in range(draw(st.integers(1, 3))):
        g = draw(st.sampled_from(gens))
        m = edge_factors(draw(st.lists(st.sampled_from(edges), min_size=degree - g.degree,
                                       max_size=degree - g.degree)))
        f = f + Polynomial.from_monomial(m, draw(st.integers(-3, 3).filter(bool))) * g
    return n, f


class TestPinnedRankTwoOracle:
    """in_secant_ideal pins one vertex; the unpinned image is the reference."""

    @given(secant_sums())
    @settings(max_examples=150, deadline=None)
    def test_members_agree_with_unpinned_image(self, case):
        n, f = case
        assert substitute_rank(f, 2).is_zero
        assert in_secant_ideal(n, poly_rows(f))

    @given(secant_sums(), st.sampled_from(["flip", "monomial", "binomial"]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_broken_members_agree_with_unpinned_image(self, case, how, data):
        n, f = case
        degree = max(f.degree, 3)
        draw_monomial = lambda d: edge_factors(
            data.draw(st.lists(st.sampled_from(edges_for(n)), min_size=d, max_size=d))
        )
        c = data.draw(st.integers(-3, 3).filter(bool))
        if how == "flip" and not f.is_zero:
            m = data.draw(st.sampled_from(sorted(f.monomials(), key=canonical_key)))
            g = f - Polynomial.from_monomial(m, 2 * f.coefficient(m))
        elif how == "binomial":
            # A toric binomial vanishes on the rank-1 locus but not on the
            # rank-2 one, so an oracle that dropped the u choices would accept g.
            b = polynomial_of(data.draw(st.sampled_from(toric_gb(n))).rows())
            g = f + Polynomial.from_monomial(draw_monomial(degree - 2), c) * b
        else:
            g = f + Polynomial.from_monomial(draw_monomial(degree), c)
        # The secant ideal is prime and holds no monomial and no toric
        # binomial, so g lies outside it.
        assert not substitute_rank(g, 2).is_zero
        assert not in_secant_ideal(n, poly_rows(g))

    def test_pinned_vertex_meets_every_term(self):
        pentad = master_polynomial(PENTAD_SEQ)
        f = Polynomial.variable(edge_var(3, 6)) * pentad
        assert _pinned_vertex(term_rows([f])[0]) == 3
        assert all(any(3 in v[1:] for v in variables(m)) for m in f.monomials())
        assert in_secant_ideal(6, poly_rows(f))
        g = f + Polynomial.from_monomial(mono((3, 6), (3, 4), (1, 2), (1, 5), (2, 4), (5, 6)))
        assert _pinned_vertex(term_rows([g])[0]) == 3
        assert not in_secant_ideal(6, poly_rows(g))
        assert not substitute_rank(g, 2).is_zero

    def test_tie_for_largest_degree_pins_smallest_label(self):
        # Every vertex of a 3x3 minor meets each term once.
        minor = off_diagonal_minor((2, 3, 5), (1, 6, 7))
        assert _pinned_vertex(term_rows([minor])[0]) == 1
        assert in_secant_ideal(7, poly_rows(minor))
        m = next(iter(minor.monomials()))
        flipped = minor - Polynomial.from_monomial(m, 2 * minor.coefficient(m))
        assert _pinned_vertex(term_rows([flipped])[0]) == 1
        assert not in_secant_ideal(7, poly_rows(flipped))
        assert not substitute_rank(flipped, 2).is_zero

    def test_zero_and_constant(self):
        assert _pinned_vertex(term_rows([Polynomial.zero()])[0]) is None
        assert _pinned_vertex(term_rows([Polynomial.constant(5)])[0]) is None
        assert in_secant_ideal(5, poly_rows(Polynomial.zero())) == substitute_rank(Polynomial.zero(), 2).is_zero
        c = Polynomial.constant(5)
        assert not substitute_rank(c, 2).is_zero
        assert not in_secant_ideal(5, poly_rows(c))

    def test_toric_binomials_n6_are_toric_not_secant(self):
        for g in toric_gb(6):
            assert in_toric_ideal(6, g.rows())
            assert not in_secant_ideal(6, g.rows())


class TestMonomialIdeal:
    """Minimalization and membership on packed generators, built and probed
    through conftest's packed_ideal and ideal_contains."""

    def test_minimalization(self):
        big = mono((1, 2), (3, 4), (1, 3))
        small = mono((1, 2), (3, 4))
        ideal = packed_ideal([big, small])
        assert ideal.generators == (small,)

    def test_membership(self):
        ideal = initial_edge_ideal(5)
        assert ideal_contains(ideal, mono((1, 2), (3, 4)))
        assert not ideal_contains(ideal, mono((1, 3), (2, 4)))
        assert not ideal_contains(ideal, ())
        ideal = packed_ideal(ideal.generators, [mono((1, 2), (3, 4), (2, 4))], n=5)
        assert ideal_contains(ideal, mono((1, 2), (3, 4), (2, 4)))

    def test_empty(self):
        ideal = packed_ideal([])
        assert not ideal_keys(ideal)
        assert not ideal_contains(ideal, mono((1, 2)))

    @given(st.lists(monomial_strategy(max_factors=3), max_size=6))
    @settings(max_examples=200)
    def test_minimalization_idempotent(self, gens):
        ideal = packed_ideal(gens)
        again = packed_ideal(ideal.generators)
        assert again == ideal
        # No generator divides another.
        for a, b in itertools.permutations(ideal.generators, 2):
            assert not divides(a, b)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force_minimalization(self, data):
        # Duplicates, powers and mixed degrees.
        gens = data.draw(st.lists(monomial_strategy(n=5, max_factors=4, max_exp=3), max_size=12))
        gens += data.draw(st.lists(st.sampled_from(gens), max_size=4)) if gens else []
        probes = data.draw(st.lists(monomial_strategy(n=5, max_factors=4, max_exp=3), max_size=8))
        ideal = packed_ideal(gens, probes)
        assert ideal.generators == reference_minimal_generators(gens)
        for probe in probes + gens:
            assert ideal_contains(ideal, probe) == any(divides(g, probe) for g in gens)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_support_index_matches_pairwise_oracle(self, data):
        # Generators with exponents up to 3, some repeated and sometimes the
        # constant monomial.  Many narrow ones on the pentagon's 10 chords
        # give the index enough supports for a small support's submasks to
        # be enumerated; wide ones use up to all 15 chords of the hexagon, so
        # a lookup meets more submasks than supports and scans instead.
        narrow = monomial_strategy(n=5, max_factors=2, max_exp=3)
        wide = monomial_strategy(n=6, max_factors=15, max_exp=3)
        gens = data.draw(st.lists(narrow, max_size=40)) + data.draw(st.lists(wide, max_size=4))
        if gens:
            gens += data.draw(st.lists(st.sampled_from(gens), max_size=5))
        if data.draw(st.integers(0, 4)) == 0:
            gens.append(())
        # Products of generators have divisors on proper submasks; probes on
        # the octagon's chords may use variables no generator uses, and
        # membership must not grow the index.
        probes = data.draw(st.lists(monomial_strategy(n=8, max_factors=6, max_exp=3), max_size=10))
        probes += gens + [mul(a, b) for a, b in zip(gens, gens[1:])]
        ideal = packed_ideal(gens, probes)
        minimal = reference_minimal_generators(gens)
        assert ideal.generators == minimal
        # Each minimal generator is filed once, under its own support: a
        # squarefree one as the marker False and no key; any other alone as
        # a packed int, or in a tuple where two or more share the support.
        packing, index = ideal.packing, dict(ideal._by_support)
        squarefree = {g for g in minimal if all(e == 1 for _, e in g)}
        filed = []
        for support, held in index.items():
            if held is False:
                g = packing.factors(packing.join(support >> packing.bits))
                assert g in squarefree
                filed.append(g)
                continue
            assert isinstance(held, int) or (isinstance(held, tuple) and len(held) >= 2)
            held = (held,) if isinstance(held, int) else held
            assert all(((g | packing.guard) - packing.ones) & packing.guard == support for g in held)
            assert not squarefree & set(map(packing.factors, held))
            filed += map(packing.factors, held)
        assert sorted(filed, key=canonical_key) == list(minimal)
        # The keys rebuilt from the index are the minimal generators.
        assert sorted(ideal_keys(ideal)) == sorted(map(packing.pack, minimal))
        assert len(ideal) == ideal.unmet == len(minimal)
        assert ideal.degrees() == tuple(sorted(set(map(degree, minimal))))
        for probe in probes:
            assert ideal_contains(ideal, probe) == any(divides(g, probe) for g in minimal)
        assert ideal._by_support == index

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_stream_matches_brute_force_minimalization(self, data):
        # The packed keys themselves, streamed in nondecreasing degree and in
        # any order within a degree, with duplicates, powers and mixed
        # degrees: the kept keys are the minimal generators, every copy of
        # a repeat but the first is dropped, and membership is divisibility.
        gens = data.draw(st.lists(monomial_strategy(n=5, max_factors=4, max_exp=3), max_size=14))
        if gens:
            gens += data.draw(st.lists(st.sampled_from(gens), max_size=5))
            gens += [mul(a, b) for a, b in zip(gens, gens[1:3])]
        gens = sorted(data.draw(st.permutations(gens)), key=degree)
        inner = data.draw(st.sampled_from(["grevlex", "lex"]))
        packing = CircularTermOrder(6, inner).packing(max([8, *map(degree, gens)]))
        keys = list(map(packing.pack, gens))
        assert list(map(packing.degree, keys)) == list(map(degree, gens))
        ideal = MonomialIdeal(iter(keys), packing)
        minimal = reference_minimal_generators(gens)
        # The kept keys, in the order of their first copies, except that
        # keys sharing a support come together, at the first one's place.
        minimal_keys = set(map(packing.pack, minimal))
        kept = [p for p in dict.fromkeys(keys) if p in minimal_keys]
        support = {p: ((p | packing.guard) - packing.ones) & packing.guard for p in kept}
        assert ideal_keys(ideal) == tuple(p for s in dict.fromkeys(map(support.get, kept)) for p in kept if support[p] == s)
        assert ideal.generators == minimal
        probes = data.draw(st.lists(monomial_strategy(n=6, max_factors=4, max_exp=2), max_size=8))
        for probe in probes + gens:
            assert ideal_contains(ideal, probe) == any(divides(g, probe) for g in gens)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_meet_counts_each_minimal_generator_once(self, data):
        # A stream of leads with repeats: the generators, other monomials
        # and products of the two, in any order.  meet counts `unmet` down
        # once per distinct lead that is a minimal generator, squarefree or
        # not, answers True exactly inside the ideal, and leaves membership
        # as it was.
        gens = data.draw(st.lists(monomial_strategy(n=5, max_factors=4, max_exp=2), max_size=12))
        others = data.draw(st.lists(monomial_strategy(n=5, max_factors=4, max_exp=2), max_size=6))
        leads = gens + others + [mul(a, b) for a, b in zip(gens, others)]
        if leads:
            leads += data.draw(st.lists(st.sampled_from(leads), max_size=8))
        leads = data.draw(st.permutations(leads))
        ideal = packed_ideal(gens, leads)
        minimal = reference_minimal_generators(gens)

        def membership():
            return [ideal_contains(ideal, m) for m in leads]

        inside = [any(divides(g, m) for g in minimal) for m in leads]
        assert membership() == inside
        assert ideal.unmet == len(minimal)
        first = 0
        for m, want in zip(leads, inside):
            unmet = ideal.unmet
            assert ideal.meet(ideal.packing.pack(m)) is want, m
            assert unmet - ideal.unmet in (0, 1)
            first += unmet - ideal.unmet
        assert first == len(set(leads) & set(minimal))
        assert ideal.unmet == len(minimal) - first
        assert membership() == inside
        assert ideal.generators == minimal and len(ideal) == len(minimal)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_marks_change_no_reading_of_the_ideal(self, data):
        # Whatever subset of the leads is met, and in whatever order,
        # contains_key, generators, degrees() and len() read as before.
        gens = data.draw(st.lists(monomial_strategy(n=5, max_factors=4, max_exp=2), max_size=12))
        probes = data.draw(st.lists(monomial_strategy(n=5, max_factors=4, max_exp=3), max_size=8))
        leads = gens + probes + [mul(a, b) for a, b in zip(gens, probes)]
        ideal = packed_ideal(gens, leads)
        pack = ideal.packing.pack

        def readings():
            ideal._generators = None  # read afresh from the index, marks and all
            return [ideal.contains_key(pack(m)) for m in leads], ideal.generators, ideal.degrees(), len(ideal)

        before = readings()
        for m in data.draw(st.lists(st.sampled_from(leads), max_size=20)) if leads else []:
            ideal.meet(pack(m))
            assert readings() == before
        for m in gens:
            ideal.meet(pack(m))
        assert ideal.unmet == 0
        assert readings() == before

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_meeting_every_generator_twice_empties_unmet_once(self, data):
        # Each minimal generator twice, in any order: unmet never goes below
        # 0 and reaches it exactly once, at the last first meeting.
        gens = data.draw(st.lists(monomial_strategy(n=5, max_factors=4, max_exp=2), min_size=1, max_size=12))
        ideal = packed_ideal(gens)
        minimal = reference_minimal_generators(gens)
        stream = data.draw(st.permutations(list(minimal) * 2))
        seen, trace = set(), []
        for m in stream:
            assert ideal.meet(ideal.packing.pack(m))
            seen.add(m)
            trace.append(ideal.unmet)
            assert ideal.unmet == len(minimal) - len(seen) >= 0
        assert sum(1 for u, v in zip([len(minimal)] + trace, trace) if u and not v) == 1
        assert trace[-1] == 0

    def test_len_is_kept_not_counted(self, monkeypatch):
        ideal = initial_edge_ideal(6)
        want = len(ideal_keys(ideal))

        def refuse(self):
            raise AssertionError("len() walked the index")

        monkeypatch.setattr(MonomialIdeal, "_filed", refuse)
        assert len(ideal) == want == 30
        assert repr(ideal) == "MonomialIdeal(30 minimal generators)"

    @pytest.mark.parametrize("inner", ["grevlex", "lex"])
    def test_generators_sharing_a_support_are_both_kept_and_found(self, inner):
        # x12^2*x34 and x12*x34^2 have one support and divide neither each
        # other nor anything else here; x12*x34 shares their support too and
        # lies in neither's ideal, x12^2*x34^2 in both.
        a, b = mono((1, 2), (1, 2), (3, 4)), mono((1, 2), (3, 4), (3, 4))
        for gens in ([a, b], [b, a], [a, mono((5, 6)), b, a]):
            ideal = packed_ideal(gens, [mono((1, 2), (1, 2), (3, 4), (3, 4))], n=6, inner=inner)
            assert set(ideal.generators) == set(gens)
            pa, pb = map(ideal.packing.pack, (a, b))
            support = ((pa | ideal.packing.guard) - ideal.packing.ones) & ideal.packing.guard
            assert sorted(ideal._by_support[support]) == sorted((pa, pb))
            assert ideal_contains(ideal, a) and ideal_contains(ideal, b)
            assert ideal_contains(ideal, mono((1, 2), (1, 2), (3, 4), (3, 4)))
            assert not ideal_contains(ideal, mono((1, 2), (3, 4)))
            assert not ideal_contains(ideal, mono((1, 2), (1, 2), (1, 2)))

    def test_stream_whose_degree_decreases_is_refused(self):
        packing = CircularTermOrder(6).packing(4)
        cubic, quadric = (packing.pack(mono(*edges)) for edges in ([(1, 2)] * 3, [(3, 4)] * 2))
        with pytest.raises(ValueError, match="nondecreasing degree: 2 after 3"):
            MonomialIdeal([quadric, cubic, quadric], packing)
        # A multiple after its divisor, and a repeat, are dropped, not refused.
        assert ideal_keys(MonomialIdeal([quadric, quadric, quadric + cubic], packing)) == (quadric,)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_ranked_sort_matches_canonical_key(self, data):
        # Prefixes of one another (x12 < x12*x13), equal degrees split by a
        # later factor or an exponent, parameters after edges, duplicates.
        gens = data.draw(st.lists(mixed_monomial, max_size=12))
        gens += [mul(a, b) for a, b in zip(gens, gens[1:])]
        gens += data.draw(st.lists(st.sampled_from(gens), max_size=4)) if gens else []
        assert canonical_sorted(gens) == sorted(set(gens), key=canonical_key)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_ideal_is_the_same_under_either_inner_order(self, data):
        # The same edge monomials packed under grevlex and under lex: the
        # same minimal generators, and the same verdict on every probe.
        gens = data.draw(st.lists(monomial_strategy(n=6, max_factors=4, max_exp=2), max_size=20))
        probes = data.draw(st.lists(monomial_strategy(n=6, max_factors=6, max_exp=3), max_size=10))
        grevlex, lex = (packed_ideal(gens, probes, n=6, inner=inner) for inner in ("grevlex", "lex"))
        assert grevlex.generators == lex.generators == reference_minimal_generators(gens)
        assert grevlex == lex and len(grevlex) == len(lex)
        for probe in probes + gens:
            want = any(divides(g, probe) for g in gens)
            assert ideal_contains(grevlex, probe) == ideal_contains(lex, probe) == want

    def test_divisors_on_proper_submasks(self):
        # Six supports, so a probe on two known variables enumerates its
        # four submasks and a probe on three or more scans the supports.
        squares = [mono(e, e) for e in ((1, 5), (1, 3), (2, 3))]
        ideal = packed_ideal([mono((1, 2)), mono((3, 4)), mono((4, 5))] + squares, [mono(*[(1, 2)] * 4)])
        assert ideal_contains(ideal, mono((1, 2), (1, 5)))
        assert ideal_contains(ideal, mono((1, 5), (4, 5)))
        assert ideal_contains(ideal, mono((1, 5), (1, 5), (2, 6)))
        assert not ideal_contains(ideal, mono((1, 5), (1, 3)))
        assert ideal_contains(ideal, mono((1, 5), (1, 3), (2, 3), (2, 3)))
        assert not ideal_contains(ideal, mono((1, 5), (1, 3), (2, 3), (2, 6)))

    def test_n7_generators_pinned(self):
        # Count and digest of the generator tuple, recorded with the earlier
        # linear-scan minimalization.
        digest = "b42141ca26ca85d8065d34d0f0f7ef7083734d75c3c58ef81e0af0907b1000bc"
        ideals = [symbolic_square_of_edge_ideal(NoncrossingGraph(7))] + [
            packed_ideal([leading_monomial(order, p) for p in candidate_polynomials(7, "symbolic-square")],
                         n=7, inner=order.inner)
            for order in both_inner_orders(7)
        ]
        for ideal in ideals:
            assert len(ideal) == 1673
            text = " ".join(map(format_factors, ideal.generators))
            assert hashlib.sha256(text.encode()).hexdigest() == digest

    @given(st.lists(monomial_strategy(max_factors=2), max_size=5))
    @settings(max_examples=200)
    def test_membership_agrees_with_divisibility(self, gens):
        probe = mono((1, 2), (3, 4))
        ideal = packed_ideal(gens, [probe])
        assert ideal_contains(ideal, probe) == any(divides(g, probe) for g in ideal.generators)
