import itertools

import pytest

from hypersecant import (
    AdmissibleSequence,
    CircularTermOrder,
    Monomial,
    NoncrossingGraph,
    admissible_sequences,
    all_admissible_sequences,
    cycle_monomial,
    induced_odd_cycles,
    secant_of_edge_ideal,
    symbolic_square_of_edge_ideal,
)
from hypersecant.noncrossing import odd_floor

from conftest import (
    mul,
    nested_triple_monomials,
    packed_ideal,
    reference_induced_odd_cycles,
    symbolic_square_identity_holds,
    target_by_definition,
)


def mono(*edges):
    return Monomial.from_edges(edges)


class TestBuildGraph:
    def test_n4_adjacency(self):
        g = NoncrossingGraph(4)
        assert g.vertex_count == 6
        assert set(g.adjacency_pairs()) == {
            ((1, 2), (3, 4)),
            ((1, 4), (2, 3)),
        }

    def test_n3_no_adjacency(self):
        g = NoncrossingGraph(3)
        assert g.vertex_count == 3
        assert g.adjacency_pairs() == ()

    def test_degree_of_boundary_edge_n5(self):
        g = NoncrossingGraph(5)
        assert {f for f in g.vertices if g.adjacent((1, 2), f)} == {(3, 4), (3, 5), (4, 5)}

    def test_vertex_count(self):
        for n in range(3, 9):
            g = NoncrossingGraph(n)
            assert g.vertex_count == n * (n - 1) // 2

    def test_adjacency_symmetric(self):
        g = NoncrossingGraph(6)
        for e, f in itertools.combinations(g.vertices, 2):
            assert g.adjacent(e, f) == g.adjacent(f, e)


class TestInducedOddCycles:
    def test_n5_single_pentagon(self):
        cycles = induced_odd_cycles(NoncrossingGraph(5), 5)
        assert cycles == [((1, 2), (1, 5), (2, 3), (3, 4), (4, 5))]

    def test_n5_no_triangles(self):
        assert induced_odd_cycles(NoncrossingGraph(5), 3) == []

    def test_n6_triangles(self):
        # Five noncrossing triples: two short-chord patterns and the three
        # circular rotations of the nested pattern.
        tris = {frozenset(c) for c in induced_odd_cycles(NoncrossingGraph(6), 3)}
        assert frozenset({(1, 2), (3, 4), (5, 6)}) in tris
        assert frozenset({(1, 6), (2, 5), (3, 4)}) in tris
        assert tris == {
            frozenset({(1, 2), (3, 4), (5, 6)}),
            frozenset({(1, 6), (2, 3), (4, 5)}),
            frozenset({(1, 2), (3, 6), (4, 5)}),
            frozenset({(1, 4), (2, 3), (5, 6)}),
            frozenset({(1, 6), (2, 5), (3, 4)}),
        }

    def test_rejects_even_max_len(self):
        with pytest.raises(ValueError):
            induced_odd_cycles(NoncrossingGraph(5), 4)

    @pytest.mark.parametrize("n", range(4, 9))
    def test_path_growth_matches_subset_enumeration(self, n):
        # Same cycles in the same order: by size, then sorted vertex indices.
        # The reference lists by size, so a smaller max_len keeps a prefix.
        g = NoncrossingGraph(n)
        reference = reference_induced_odd_cycles(g, odd_floor(n))
        for max_len in range(3, odd_floor(n) + 1, 2):
            assert induced_odd_cycles(g, max_len) == [c for c in reference if len(c) <= max_len]

    def test_cycles_are_induced(self):
        g = NoncrossingGraph(6)
        for cyc in induced_odd_cycles(g, 5):
            for v in cyc:
                assert sum(1 for w in cyc if w != v and g.adjacent(v, w)) == 2


class TestSecantOfEdgeIdeal:
    def test_n5(self):
        ideal = secant_of_edge_ideal(NoncrossingGraph(5), 5)
        assert ideal.generators == (mono((1, 2), (1, 5), (2, 3), (3, 4), (4, 5)),)

    def test_n4_empty(self):
        assert not secant_of_edge_ideal(NoncrossingGraph(4), 3).keys

    def test_n6_counts(self):
        ideal = secant_of_edge_ideal(NoncrossingGraph(6), 5)
        assert len(ideal) == 17
        assert ideal.degrees() == (3, 5)
        assert sum(1 for m in ideal.generators if m.degree == 3) == 5
        assert sum(1 for m in ideal.generators if m.degree == 5) == 12

    def test_minimalization_is_noop(self):
        for n in (5, 6, 7):
            g = NoncrossingGraph(n)
            max_len = n if n % 2 else n - 1
            cycles = induced_odd_cycles(g, max_len)
            ideal = secant_of_edge_ideal(g, max_len)
            assert len(ideal) == len(cycles)


class TestSymbolicSquareOfEdgeIdeal:
    def test_n4_exact(self):
        ideal = symbolic_square_of_edge_ideal(NoncrossingGraph(4))
        a = mono((1, 2), (3, 4))
        b = mono((1, 4), (2, 3))
        assert set(ideal.generators) == {mul(a, a), mul(b, b), mul(a, b)}

    def test_n5_no_degree_three(self):
        ideal = symbolic_square_of_edge_ideal(NoncrossingGraph(5))
        assert ideal.degrees() == (4,)

    def test_n3_empty(self):
        assert not symbolic_square_of_edge_ideal(NoncrossingGraph(3)).keys

    def test_identity_square_plus_secant(self):
        for n in range(4, 7):
            assert symbolic_square_identity_holds(n)


def _target(n, kind):
    g = NoncrossingGraph(n)
    return secant_of_edge_ideal(g, odd_floor(n)) if kind == "secant" else symbolic_square_of_edge_ideal(g)


def _through(ideal, degree):
    return {m for m in ideal.generators if m.degree <= degree}


def _monomial_target(n, kind):
    """The target of `kind` at n built from Monomials, each cycle and product
    of adjacent pairs by Monomial.from_edges and mul, packed by packed_ideal."""
    g = NoncrossingGraph(n)
    if kind == "secant":
        return packed_ideal([Monomial.from_edges(c) for c in induced_odd_cycles(g, odd_floor(n))], n=n)
    pairs = [Monomial.from_edges(p) for p in g.adjacency_pairs()]
    gens = [Monomial.from_edges(c) for c in induced_odd_cycles(g, 3)]
    gens += [mul(a, b) for k, a in enumerate(pairs) for b in pairs[k:]]
    return packed_ideal(gens, n=n)


class TestPackedTargets:
    @pytest.mark.parametrize("kind", ["secant", "symbolic-square"])
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9])
    def test_packed_target_equals_the_monomial_one(self, n, kind):
        want = _monomial_target(n, kind)
        g = NoncrossingGraph(n)
        for inner in ("grevlex", "lex"):
            order = CircularTermOrder(n, inner)
            if kind == "secant":
                target = secant_of_edge_ideal(g, odd_floor(n), order)
            else:
                target = symbolic_square_of_edge_ideal(g, order)
            assert target.generators == want.generators
            assert target == want and len(target) == len(want)
            packing = target.packing
            assert sorted(target.keys) == sorted(packing.pack(m.factors) for m in want.generators)

    def test_order_for_another_n_is_refused(self):
        with pytest.raises(ValueError):
            secant_of_edge_ideal(NoncrossingGraph(6), 5, CircularTermOrder(7))


class TestTargetsMatchTheirDefinitions:
    """The initial-ideal leg compares leading monomials with these targets
    alone, so each is checked against its definition, not against odd cycles:
    the split criterion for the secant, vertex covers for the symbolic square."""

    @pytest.mark.parametrize("kind", ["secant", "symbolic-square"])
    @pytest.mark.parametrize("n,degree", [(5, 5), (6, 4)])
    def test_minimal_generators_through_degree(self, n, degree, kind):
        want = target_by_definition(n, kind, degree)
        assert want
        assert _through(_target(n, kind), degree) == want

    def test_secant_target_at_its_top_degree(self):
        # n = 6 at D = 5 reaches the degree-5 generators, the largest the
        # secant target has there: the whole target, built on the packed
        # monomials of either inner order, against its definition.
        want = target_by_definition(6, "secant", 5)
        for inner in ("grevlex", "lex"):
            target = secant_of_edge_ideal(NoncrossingGraph(6), 5, CircularTermOrder(6, inner))
            assert target.degrees() == (3, 5)
            assert set(target.generators) == want

    @pytest.mark.parametrize("kind", ["secant", "symbolic-square"])
    def test_target_with_a_generator_dropped_or_added_disagrees(self, kind):
        # Added: a noncrossing pair, which lies in the edge ideal but in
        # neither target, and divides some of the target's generators.
        want = target_by_definition(6, kind, 4)
        gens = _target(6, kind).generators
        dropped = packed_ideal(gens[1:], n=6)
        added = packed_ideal(gens + (mono((1, 2), (3, 4)),), n=6)
        assert gens[0] in want
        assert _through(dropped, 4) != want
        assert _through(added, 4) != want
        assert mono((1, 2), (3, 4)) in _through(added, 4)


class TestAdmissibleSequences:
    def test_n5_k2_unique_degenerate(self):
        seqs = admissible_sequences(5, 2)
        assert len(seqs) == 1
        assert seqs[0].i == (1, 2, 3, 4, 5) and seqs[0].j == (1, 2, 3, 4, 5)

    def test_n4_k1_empty(self):
        assert admissible_sequences(4, 1) == []

    def test_n6_k1_both_rotholder_types(self):
        # The ascending chain plus the chain whose last pair wraps the seam.
        seqs = admissible_sequences(6, 1)
        assert [(s.i, s.j) for s in seqs] == [
            ((1, 3, 5), (2, 4, 6)),
            ((2, 4, 6), (3, 5, 1)),
        ]

    def test_counts_frozen_by_enumeration(self):
        expected = {
            (5, 1): 0, (5, 2): 1,
            (6, 1): 2, (6, 2): 12,
            (7, 1): 14, (7, 2): 77, (7, 3): 1,
            (8, 1): 56, (8, 2): 352, (8, 3): 16,
        }
        for (n, k), count in expected.items():
            assert len(admissible_sequences(n, k)) == count, (n, k)

    def test_from_arrays_canonicalizes_rotations(self):
        canonical = AdmissibleSequence.from_arrays((1, 2, 3, 4, 5), (1, 2, 3, 4, 5))
        for r in range(5):
            ii = tuple([1, 2, 3, 4, 5][r:] + [1, 2, 3, 4, 5][:r])
            seq = AdmissibleSequence.from_arrays(ii, ii)
            assert seq == canonical

    def test_from_arrays_wrapped(self):
        seq = AdmissibleSequence.from_arrays((4, 6, 2), (5, 1, 3))
        assert (seq.i, seq.j) == ((2, 4, 6), (3, 5, 1))
        assert seq.j[-1] < seq.i[-1]

    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            AdmissibleSequence(1, (1, 3, 5), (1, 4, 6))  # i_1 == j_1 for k=1

    def test_rejects_non_chain(self):
        with pytest.raises(ValueError):
            AdmissibleSequence.from_arrays((1, 2, 5), (3, 4, 6))  # j_1 > i_2

    def test_loop_freeness_forces_distinct_for_k1(self):
        for s in admissible_sequences(7, 1):
            assert len(set(s.i + s.j)) == 6


class TestCycleMonomial:
    def test_cubic(self):
        s = AdmissibleSequence.from_arrays((1, 3, 5), (2, 4, 6))
        assert cycle_monomial(s) == mono((1, 2), (3, 4), (5, 6))

    def test_pentad(self):
        s = AdmissibleSequence.from_arrays((1, 2, 3, 4, 5), (1, 2, 3, 4, 5))
        assert cycle_monomial(s) == mono((1, 2), (1, 5), (2, 3), (3, 4), (4, 5))

    def test_degree(self):
        for n in (6, 7):
            for s in all_admissible_sequences(n):
                assert cycle_monomial(s).degree == s.length

    def test_rotation_invariance(self):
        for canon in admissible_sequences(6, 2)[:4] + admissible_sequences(6, 1):
            pairs = list(zip(canon.i, canon.j))
            for r in range(canon.length):
                rot = pairs[r:] + pairs[:r]
                seq = AdmissibleSequence.from_arrays(
                    tuple(p[0] for p in rot), tuple(p[1] for p in rot)
                )
                assert seq == canon
                assert cycle_monomial(seq) == cycle_monomial(canon)


class TestFamilyCompleteness:
    def test_small_n_families_match_brute_force(self):
        # Cycle monomials of admissible sequences plus nested triples equal
        # the brute-force induced odd cycle generators (n=8 in acceptance).
        for n in (5, 6, 7):
            g = NoncrossingGraph(n)
            max_len = n if n % 2 else n - 1
            brute = secant_of_edge_ideal(g, max_len)
            family = [cycle_monomial(s) for s in all_admissible_sequences(n)]
            family.extend(nested_triple_monomials(n))
            assert packed_ideal(family, n=n) == brute
