import collections.abc
import heapq
import itertools
import json
import os
import re
import sys
from collections import Counter
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersecant import (
    AdmissibleSequence,
    CircularTermOrder,
    MonomialIdeal,
    NoncrossingGraph,
    admissible_sequences,
    all_admissible_sequences,
    buchberger_verify,
    circular_minor_splits,
    delightful_check,
    in_secant_ideal,
    induced_odd_cycles,
    initial_edge_ideal,
    secant_of_edge_ideal,
    symbolic_square_of_edge_ideal,
)

from hypersecant import groebner
from hypersecant.noncrossing import odd_floor
from hypersecant.order import _Packing, edge_class
from hypersecant.poly import degree, edge_factors, format_factors, format_rows

from conftest import (
    Polynomial,
    antidiagonal_monomial,
    both_inner_orders,
    candidate_polynomials,
    child_peak_rss,
    compare,
    divide_by,
    divides,
    dying_row,
    eager_labels,
    edges_for,
    flip_lowest_tail,
    forking_sweep,
    format_polynomial,
    label_polynomials,
    lcm,
    leading_monomial,
    leading_term,
    master_polynomial,
    monomial,
    monomial_strategy,
    mul,
    off_diagonal_minor,
    off_diagonal_minor_3x3,
    order_rows,
    packed_ideal,
    packed_polynomial,
    poly_rows,
    polynomial_strategy,
    reduce,
    reference_first_divisor,
    reference_order_key,
    relabel,
    run_script,
    s_polynomial,
    sort_key,
    substitute_generators,
    substitute_toric,
    term_rows,
    toric_gb_polynomials,
    variables,
)


def mono(*edges):
    return edge_factors(edges)


def binom(lead, trail):
    return Polynomial.from_edge_terms([(1, lead), (-1, trail)])


def power(a, b, e=1):
    return Polynomial.from_monomial(monomial({("x", a, b): e}))


def mutated_secant_basis_6():
    """The secant basis at n = 6 with one non-leading coefficient of its last
    minor tripled."""
    gens = candidate_polynomials(6, "secant")
    minor = gens[-1]
    lead = leading_monomial(CircularTermOrder(6), minor)
    m = min(x for x in minor.monomials() if x != lead)
    gens[-1] = minor + Polynomial.from_monomial(m, 2 * minor.coefficient(m))
    return gens


def reference_normal_form(f, G, order):
    """Division on Polynomial values, the rule spelled out: the
    largest remaining term is rewritten by the first reducer whose leading
    term divides it, or else moved to the remainder.  Returns the remainder
    and max_terms, the largest number of terms of f plus the remainder,
    initially and after each rewrite."""
    leads = [leading_term(order, g) for g in G]
    rem = {}
    max_terms = f.term_count
    while not f.is_zero:
        m, c = leading_term(order, f)
        for g, (lt, ltc) in zip(G, leads):
            if divides(lt, m):
                f = f - g * Polynomial.from_monomial(divide_by(m, lt), c * ltc)
                max_terms = max(max_terms, f.term_count + len(rem))
                break
        else:
            rem[m] = c
            f = f - Polynomial.from_monomial(m, c)
    return Polynomial(rem), max_terms


@st.composite
def unit_reducers(draw, order, n):
    """Up to three homogeneous reducers of up to three terms each, with
    leading coefficient +-1."""
    out = []
    for degree in draw(st.lists(st.integers(1, 4), max_size=3)):
        edges = st.lists(st.sampled_from(edges_for(n)), min_size=degree, max_size=degree)
        terms = st.tuples(edges.map(edge_factors), st.integers(-4, 4))
        p = Polynomial(draw(st.lists(terms, min_size=1, max_size=3)))
        if p.is_zero:
            continue
        lm, lc = leading_term(order, p)
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
        leads = [leading_monomial(order, g) for g in G]
        f = Polynomial.from_monomial(mono((1, 2), (2, 3), (3, 4), (4, 5)), 3)
        r = reduce(f, G, order)
        for m in r.monomials():
            assert not any(divides(lt, m) for lt in leads)

    def test_rejects_non_unit_leading_coefficient(self):
        order = CircularTermOrder(4)
        g = Polynomial.from_edge_terms([(2, ((1, 2), (3, 4)))])
        with pytest.raises(ValueError):
            reduce(Polynomial.from_monomial(mono((1, 2), (3, 4))), [g], order)

    def test_rejects_zero_reducer(self):
        order = CircularTermOrder(4)
        with pytest.raises(ValueError):
            reduce(Polynomial.from_monomial(mono((1, 2))), [Polynomial.zero()], order)

    def test_rejects_non_homogeneous_reducer(self):
        # Whichever term leads, and even when no rewrite would use it; f
        # itself may mix degrees.
        mixed = (
            power(1, 2) - power(2, 4, 3),
            power(1, 2, 3) - power(2, 4),
            power(1, 2) + Polynomial.constant(1),
        )
        for order in both_inner_orders(6):
            for g in mixed:
                for f in (power(1, 2, 5), power(3, 5), power(1, 2, 2) + power(1, 3)):
                    with pytest.raises(ValueError, match="reducers must be homogeneous"):
                        reduce(f, [g], order)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_division(self, data):
        inner = data.draw(st.sampled_from(("grevlex", "lex")))
        order = CircularTermOrder(5, inner)
        G = data.draw(unit_reducers(order, 5))
        f = data.draw(polynomial_strategy(n=5, max_terms=4, max_exp=3))
        assert reduce(f, G, order) == reference_normal_form(f, G, order)[0]

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
            assert compare(order, leading_monomial(order, r), leading_monomial(order, f)) <= 0


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
            assert p1 + p2 == pk.pack(mul(m1, m2))
            assert pk.factors(p1) == m1
            assert pk.factors(p1 + p2) == mul(m1, m2)


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
            both = lcm(leading_monomial(order, f), leading_monomial(order, g))
            assert compare(order, leading_monomial(order, s), both) == -1


class TestBuchbergerVerify:
    def test_toric_n5_passes(self):
        for order in both_inner_orders(5):
            cert = buchberger_verify(term_rows(toric_gb_polynomials(5)), order, n=5, kind="toric")
            assert cert.passed
            assert cert.spair_stats.count == comb(10, 2)

    def test_secant_n5_passes(self):
        gens = term_rows(candidate_polynomials(5, "secant"))
        cert = buchberger_verify(gens, CircularTermOrder(5), n=5, kind="secant")
        assert cert.passed

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_spairs(self, data):
        # Each failing pair against its S-polynomial divided in Polynomial
        # arithmetic.  Coprime pairs are skipped, as the engine skips them.
        order = CircularTermOrder(5, data.draw(st.sampled_from(("grevlex", "lex"))))
        G = data.draw(unit_reducers(order, 5))
        leads = [leading_monomial(order, g) for g in G]
        want = []
        for i, j in itertools.combinations(range(len(G)), 2):
            if set(variables(leads[i])) & set(variables(leads[j])):
                r, _ = reference_normal_form(s_polynomial(G[i], G[j], order), G, order)
                if not r.is_zero:
                    want.append(([i, j], format_polynomial(r, sort_key(order, r.degree))))
        witness = buchberger_verify(term_rows(G), order).checks[0].witness or []
        assert [(w["pair"], w["remainder"]) for w in witness] == want

    def test_spair_exponent_past_generator_degree(self):
        # The S-pair of these cubics leaves x23^5, an exponent past 3, the
        # largest that fields sized from the generators' degree hold.
        G = [
            power(1, 2, 3) - power(2, 3, 3),
            Polynomial.from_monomial(mono((1, 2), (2, 3), (2, 3))) - power(3, 4, 3),
        ]
        remainder = {"grevlex": "-1*x[2,3]^5 +1*x[1,2]^2*x[3,4]^3", "lex": "+1*x[1,2]^2*x[3,4]^3 -1*x[2,3]^5"}
        for order in both_inner_orders(5):
            witness = buchberger_verify(term_rows(G), order).checks[0].witness
            assert witness == [{"pair": [0, 1], "remainder_terms": 2, "remainder": remainder[order.inner]}]

    def test_negative_control_records_failure(self):
        # Two binomials sharing the same lex-inner leading term x12*x34; their
        # S-polynomial has an irreducible remainder, which must be witnessed.
        order = CircularTermOrder(4, "lex")
        g1 = binom(((1, 2), (3, 4)), ((1, 3), (2, 4)))
        g2 = binom(((1, 2), (3, 4)), ((1, 4), (2, 3)))
        cert = buchberger_verify(term_rows([g1, g2]), order)
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
        cert = buchberger_verify(term_rows([g1, g2]), order)
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
        gens = term_rows(candidate_polynomials(n, "secant" if kind == "secant" else "symbolic-square"))
        for order in both_inner_orders(n):
            cert = buchberger_verify(gens, order, n=n)
            assert cert.passed
            assert stats_tuple(cert) == self.PINNED[kind, n][order.inner]

    @pytest.mark.parametrize("kind,n", [("secant", 6), ("symbolic", 5)])
    def test_pinned_counters_without_front_memo(self, kind, n, monkeypatch):
        # Every lookup goes to the block tables: the same reduction path.
        monkeypatch.setattr(groebner, "_FRONT_MEMO_CAP", 0)
        self.test_pinned_counters(kind, n)

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
        gens = term_rows(mutated_secant_basis_6())
        for order in both_inner_orders(6):
            cert = buchberger_verify(gens, order, n=6)
            assert not cert.passed
            assert stats_tuple(cert) == self.PINNED["secant", 6][order.inner]
            (check,) = cert.checks
            assert len(check.witness) == 75
            got = [(*w["pair"], w["remainder_terms"]) for w in check.witness]
            assert got == self.MUTATED_FAILURES

    def test_non_homogeneous_basis_is_rejected_before_forking(self, pool_of_two):
        # 136 S-pairs would take a pool of two; the check comes first.
        gens = candidate_polynomials(6, "secant")
        gens[-1] = gens[-1] + power(1, 2)
        for order in both_inner_orders(6):
            with pytest.raises(ValueError, match="reducers must be homogeneous"):
                buchberger_verify(term_rows(gens), order, threads=2)
        assert pool_of_two == []

    def test_threads_match_serial(self, pool_of_two):
        for gens, n in (
            (candidate_polynomials(6, "secant"), 6),
            (candidate_polynomials(5, "symbolic-square"), 5),
            (mutated_secant_basis_6(), 6),
        ):
            gens = term_rows(gens)
            for order in both_inner_orders(n):
                serial = buchberger_verify(gens, order, threads=1)
                parallel = buchberger_verify(gens, order, threads=2)
                assert stats_tuple(parallel) == stats_tuple(serial)
                assert parallel._replace(spair_stats=None) == serial._replace(spair_stats=None)
        # One pool per parallel sweep.
        assert pool_of_two == [2] * 6

    @staticmethod
    def _family_member(family):
        """(n, basis, labels, index, name) of one generator of the family,
        checked to be one, where name is the family a witness gives it."""
        if family == "product":
            labels = groebner.candidate_basis(5, "symbolic-square")
            gens = label_polynomials(5, labels)
            last = toric_gb_polynomials(5)[-1]
            assert gens[-1] == last * last
            k = len(toric_gb_polynomials(5)) - 1
            return 5, gens, labels, len(gens) - 1, {"family": "product", "factors": [k, k]}
        labels = groebner.candidate_basis(6, "secant")
        gens = label_polynomials(6, labels)
        if family == "master":
            s = all_admissible_sequences(6)[0]
            assert gens[0] == master_polynomial(s)
            return 6, gens, labels, 0, {"family": "master", "k": s.k, "i": list(s.i), "j": list(s.j)}
        rows, cols = circular_minor_splits(range(1, 7))[-1]
        assert gens[-1] == off_diagonal_minor(rows, cols)
        name = {"family": "minor", "rows": list(rows), "cols": list(cols)}
        return 6, gens, labels, len(gens) - 1, name

    @pytest.mark.parametrize("family", ["master", "minor", "product"])
    def test_flipped_coefficient_fails_spairs(self, family, pool_of_two):
        # Negating a non-leading coefficient keeps every leading term, so the
        # pair criteria are unchanged and only the S-pair reductions can fail.
        n, gens, labels, index, name = self._family_member(family)
        for order in both_inner_orders(n):
            g = gens[index]
            lead = leading_monomial(order, g)
            m = min(x for x in g.monomials() if x != lead)
            mutated = list(gens)
            mutated[index] = g - Polynomial.from_monomial(m, 2 * g.coefficient(m))
            mutated = term_rows(mutated)
            serial = buchberger_verify(mutated, order, threads=1, labels=labels)
            (check,) = serial.checks
            assert (check.name, check.status) == ("spairs_reduce_to_zero", "fail")
            assert any(index in w["pair"] for w in check.witness)
            # Each witness names both generators of its pair, in pair order,
            # right after the pair; the mutated one by its own family.
            for w in check.witness:
                assert list(w)[:2] == ["pair", "generators"]
                assert w["generators"] == [groebner._family(labels[k]) for k in w["pair"]]
                if index in w["pair"]:
                    assert w["generators"][w["pair"].index(index)] == name
            # A secant witness pairs a master with a minor, by both labels.
            families = {tuple(f["family"] for f in w["generators"]) for w in check.witness}
            assert ("master", "minor") in families if n == 6 else families == {("product", "product")}
            parallel = buchberger_verify(mutated, order, threads=2, labels=labels)
            assert parallel.checks[0].witness == check.witness
            unnamed = buchberger_verify(mutated, order, threads=1)
            assert unnamed.checks[0].witness == [
                {k: v for k, v in w.items() if k != "generators"} for w in check.witness
            ]
        assert pool_of_two == [2, 2]

    # The end of a forking_sweep script: one sweep, whose error it prints,
    # whether the sweep ended within 10 s, and whether a worker is left,
    # running or unreaped.
    SWEEP = (
        "order = CircularTermOrder(6)\n"
        "rows = groebner.generator_rows(6, groebner.candidate_basis(6, 'secant'), order)\n"
        "started = time.perf_counter()\n"
        "try:\n"
        "    groebner.buchberger_verify(rows, order, threads=2)\n"
        "except BaseException as exc:\n"
        "    print(repr(exc))\n"
        "print(time.perf_counter() - started < 10)\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "except ChildProcessError:\n"
        "    print('no child')\n"
    )

    @pytest.mark.parametrize("row", ["os._exit(1)", dying_row(0), dying_row(1)], ids=["all", "0", "1"])
    def test_dead_worker_raises_instead_of_hanging(self, row):
        """A worker that dies raises RuntimeError, in bounded time, and no
        worker is left: with every row dying, or with one row dying while
        the other worker would sleep 30 s on each of its rows, whichever of
        the two pipes closes first."""
        proc = run_script(forking_sweep(row) + self.SWEEP)
        assert proc.returncode == 0, proc.stderr
        want = r"RuntimeError\('S-pair worker \d+ exited with code 1'\)\nTrue\nno child\n"
        assert re.fullmatch(want, proc.stdout), proc.stdout

    @pytest.mark.parametrize("error", ["ValueError", "KeyboardInterrupt"])
    def test_parent_error_leaves_no_worker(self, error):
        # Worker 0 sends its rows at once and worker 1 sleeps 30 s on each
        # of its own; the parent fails to decode worker 0's rows, so the
        # error propagates, and worker 1 is killed and reaped first.
        script = forking_sweep("if i % 2:\n    time.sleep(30)\nreturn [], 0, 0, 0") + (
            "def decode(data):\n"
            f"    raise {error}('decode')\n"
            "groebner.marshal = types.SimpleNamespace(dumps=groebner.marshal.dumps, loads=decode)\n"
        )
        proc = run_script(script + self.SWEEP)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{error}('decode')\nTrue\nno child\n"

    def test_raising_worker_prints_its_traceback(self):
        """A worker whose row raises prints that exception's traceback, then
        dies like any other: the sweep raises RuntimeError and leaves no worker."""
        row = "if i == 0:\n    raise ValueError(f'row {i} failed')\ntime.sleep(30)"
        proc = run_script(forking_sweep(row) + self.SWEEP)
        assert proc.returncode == 0, proc.stderr
        want = r"RuntimeError\('S-pair worker \d+ exited with code 1'\)\nTrue\nno child\n"
        assert re.fullmatch(want, proc.stdout), proc.stdout
        assert proc.stderr.startswith("Traceback (most recent call last):\n"), proc.stderr
        assert proc.stderr.endswith("\nValueError: row 0 failed\n"), proc.stderr

    def test_failed_fork_closes_its_pipe(self):
        # The second fork fails, as it does at the process limit, while
        # worker 0 sleeps: the error propagates, worker 0 is killed and
        # reaped, and the failed worker's pipe is closed with it.
        script = forking_sweep("time.sleep(30)") + (
            "fork, forks = os.fork, []\n"
            "def failing_fork():\n"
            "    forks.append(1)\n"
            "    if len(forks) == 2:\n"
            "        raise BlockingIOError(11, 'fork')\n"
            "    return fork()\n"
            "os.fork = failing_fork\n"
            "fds = sorted(os.listdir('/dev/fd'))\n"
        )
        proc = run_script(script + self.SWEEP + "print(sorted(os.listdir('/dev/fd')) == fds)\n")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "BlockingIOError(11, 'fork')\nTrue\nno child\nTrue\n"


class TestWorkerCount:
    """How many pool workers a sweep uses: derived from the usable CPUs and
    the pair count, and capped by threads when it is given."""

    @pytest.mark.parametrize("cpus,pairs,workers", [
        (1, 110215, 1),  # symbolic n = 6
        (2, 136, 1),  # secant n = 6
        (2, 1485, 1),  # symbolic n = 5
        (2, 2415, 1),  # toric n = 7
        (2, 6328, 2),  # secant n = 7
        (2, 110215, 2),
        (64, 6328, 6328 // groebner._PAIRS_PER_WORKER),
        (64, 110215, 110215 // groebner._PAIRS_PER_WORKER),
        (64, 10, 1),
    ])
    def test_derived_count(self, cpus, pairs, workers, monkeypatch):
        monkeypatch.setattr(groebner, "_usable_cpus", lambda: cpus)
        assert groebner._workers(pairs, None) == workers

    @pytest.mark.parametrize("cpus,pairs,threads,workers", [
        (2, 110215, 1, 1),
        (2, 110215, 8, 2),
        (1, 110215, 2, 1),
        (64, 110215, 100000, 110215 // groebner._PAIRS_PER_WORKER),
        (64, 6328, 2, 2),
        (2, 136, 2, 1),
    ])
    def test_threads_cap_the_derived_count(self, cpus, pairs, threads, workers, monkeypatch):
        monkeypatch.setattr(groebner, "_usable_cpus", lambda: cpus)
        assert groebner._workers(pairs, threads) == workers

    def test_usable_cpus_without_affinity(self, monkeypatch):
        monkeypatch.delattr(groebner.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(groebner.os, "cpu_count", lambda: None)
        assert groebner._usable_cpus() == 1
        monkeypatch.setattr(groebner.os, "cpu_count", lambda: 3)
        assert groebner._usable_cpus() == 3

    @staticmethod
    def _forbid_fork(monkeypatch):
        def refuse():
            raise AssertionError("a worker was forked")

        monkeypatch.setattr(os, "fork", refuse)

    def test_small_sweeps_start_no_pool(self, monkeypatch):
        # Serial however many CPUs there are: each has fewer pairs than two
        # workers' worth.
        monkeypatch.setattr(groebner, "_usable_cpus", lambda: 64)
        self._forbid_fork(monkeypatch)
        for gens, n in (
            (toric_gb_polynomials(7), 7),
            (candidate_polynomials(6, "secant"), 6),
            (candidate_polynomials(5, "symbolic-square"), 5),
        ):
            order = CircularTermOrder(n)
            assert buchberger_verify(term_rows(gens), order).passed
        assert delightful_check(6, "secant", CircularTermOrder(6), with_buchberger=True).passed

    def test_pool_rejects_non_unit_reducer_before_forking(self, pool_of_two, monkeypatch):
        self._forbid_fork(monkeypatch)
        order = CircularTermOrder(6)
        gens = candidate_polynomials(6, "secant")
        gens[-1] = gens[-1] * 2
        with pytest.raises(ValueError):
            buchberger_verify(term_rows(gens), order, threads=2)

    def test_derived_pool_matches_serial_secant_n7(self, pool_of_two):
        gens = term_rows(candidate_polynomials(7, "secant"))
        for order in both_inner_orders(7):
            derived = buchberger_verify(gens, order, n=7, kind="secant")
            serial = buchberger_verify(gens, order, n=7, kind="secant", threads=1)
            assert derived.passed
            assert stats_tuple(derived) == stats_tuple(serial)
            assert derived._replace(spair_stats=None) == serial._replace(spair_stats=None)
        assert pool_of_two == [2, 2]


class TestPairStreaming:
    """No sweep builds its list of S-pairs: one row loop, _Divider.verify_row,
    reduces the pairs (i, j) of row i, and a sweep maps it over range(m),
    serially with the builtin map or, on forked workers, over each worker's
    share of range(m)."""

    @given(m=st.integers(0, 200), workers=st.integers(1, 9))
    @settings(max_examples=200, deadline=None)
    def test_shares_split_the_rows_in_turn(self, m, workers):
        shares = groebner._shares(m, workers)
        assert len(shares) == workers
        assert all(type(share) is range for share in shares)
        # Row i goes to worker i mod workers, so every row goes to one worker.
        assert sorted(i for share in shares for i in share) == list(range(m))
        assert all(i % workers == w for w, share in enumerate(shares) for i in share)

    @given(m=st.integers(2, 60), threads=st.integers(2, 4))
    @settings(max_examples=200, deadline=None)
    def test_rows_cover_every_pair_in_order(self, m, threads):
        # Every S-pair of the binomials x12*v - x13^2 fails: their leads
        # share x12, and no term v*x13^2 of a remainder has it.  So the
        # witness lists every pair the rows reduced, in aggregation order.
        # Each process that reduces a row, a worker or this one, writes
        # its pid and the row to a pipe, to record which rows it reduced.
        edges = [e for e in itertools.combinations(range(1, 13), 2) if e not in ((1, 2), (1, 3))]
        rows = [[(1, mono((1, 2), e)), (-1, mono((1, 3), (1, 3)))] for e in edges[:m]]
        split, forks = [], []
        shares, fork, verify_row = groebner._shares, os.fork, groebner._Divider.verify_row
        r, w = os.pipe()

        def shares_spy(m, workers):
            split.append((m, workers))
            return shares(m, workers)

        def fork_spy():
            pid = fork()
            forks.append(pid)
            return pid

        def spy(self, i):
            os.write(w, f"{os.getpid()} {i}\n".encode())
            return verify_row(self, i)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(groebner, "_PAIRS_PER_WORKER", 1)
            mp.setattr(groebner, "_usable_cpus", lambda: 4)
            mp.setattr(groebner, "_shares", shares_spy)
            mp.setattr(os, "fork", fork_spy)
            mp.setattr(groebner._Divider, "verify_row", spy)
            check = buchberger_verify(rows, CircularTermOrder(12), threads=threads).checks[0]
        os.close(w)
        with open(r) as pipe:
            seen = [tuple(map(int, line.split())) for line in pipe]
        workers = min(threads, m * (m - 1) // 2)
        assert split == ([(m, workers)] if workers > 1 else [])
        # Each row was reduced once, by the process its share went to, and
        # each process reduced its rows in order.
        pids = forks if workers > 1 else [os.getpid()]
        assert len(pids) == workers
        for pid, share in zip(pids, shares(m, workers)):
            assert [i for p, i in seen if p == pid] == list(share)
        assert sorted(i for _, i in seen) == list(range(m))
        assert [tuple(f["pair"]) for f in check.witness] == list(itertools.combinations(range(m), 2))

    def test_serial_sweep_is_given_no_sequence(self, monkeypatch):
        received = []
        verify_row = groebner._Divider.verify_row

        def spy(self, i):
            received.append(i)
            return verify_row(self, i)

        monkeypatch.setattr(groebner._Divider, "verify_row", spy)
        sizes = []
        for gens, n in ((candidate_polynomials(6, "secant"), 6), (candidate_polynomials(5, "symbolic-square"), 5)):
            for order in both_inner_orders(n):
                buchberger_verify(term_rows(gens), order, threads=1)
                sizes.append(len(gens))
        # One call per row, with its row number.
        assert received == [i for m in sizes for i in range(m)]
        assert all(type(i) is int for i in received)

    def test_sweep_runs_with_no_basis_in_the_frame(self, pool_of_two, monkeypatch):
        # buchberger_verify drops its list of generators once the divider is
        # built, and the labels are no list either, so neither a serial
        # sweep nor a forked worker holds a list of the basis.
        held = []
        sweep = groebner._sweep

        def spy(divider, threads):
            frame = sys._getframe(1)
            held.append((frame.f_code.co_name, sorted(k for k, v in frame.f_locals.items() if isinstance(v, list))))
            return sweep(divider, threads)

        monkeypatch.setattr(groebner, "_sweep", spy)
        labels = groebner.candidate_basis(5, "symbolic-square")
        for threads in (1, 2):
            for order in both_inner_orders(5):
                rows = groebner.generator_rows(5, labels, order)
                assert buchberger_verify(rows, order, threads=threads, labels=labels).passed
        assert held == [("buchberger_verify", [])] * 4
        assert pool_of_two == [2, 2]

    def test_labelled_rows_reach_the_divider_unlisted(self, monkeypatch):
        # Given labels, the packing is sized from them, so the divider reads
        # the very iterator of rows it was given, one generator at a time.
        read = []
        init = groebner._Divider.__init__

        def spy(self, packing, rows, degree=None):
            read.append((rows, packing.limit, degree))
            init(self, packing, rows, degree)

        monkeypatch.setattr(groebner._Divider, "__init__", spy)
        for n, kind in ((6, "secant"), (5, "symbolic-square")):
            labels = groebner.candidate_basis(n, kind)
            order = CircularTermOrder(n)
            rows = groebner.generator_rows(n, labels, order)
            assert buchberger_verify(rows, order, labels=labels).passed
            degree = 5 if kind == "secant" else 4
            assert read[-1] == (rows, order.packing(2 * degree).limit, degree)

    @pytest.mark.parametrize("kind", ["secant", "symbolic-square"])
    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_label_degree_is_the_generator_degree(self, n, kind):
        labels = groebner.candidate_basis(n, kind)
        assert [groebner._label_degree(l) for l in labels] == [g.degree for g in label_polynomials(n, labels)]
        assert groebner._label_degree(("binomial", (1, 2, 3, 4), 1)) == 2

    def test_row_above_its_declared_degree_is_rejected_before_forking(self, pool_of_two, monkeypatch):
        # A degree-6 product filed under a minor's label: the packing sized
        # from the labels, whose largest degree is 5, could not hold its
        # S-pairs.
        labels = groebner.candidate_basis(6, "secant")
        toric = toric_gb_polynomials(6)
        substitute_generators(monkeypatch, {labels[-1]: toric[0] * toric[1] * toric[2]})
        for order in both_inner_orders(6):
            rows = groebner.generator_rows(6, labels, order)
            with pytest.raises(ValueError, match="a reducer of degree 6 exceeds the declared degree 5"):
                buchberger_verify(rows, order, threads=2, labels=labels)
        assert pool_of_two == []
        labels = [("minor", (1, 2, 3), (4, 5, 6)), ("minor", (2, 3, 4), (5, 6, 1))]
        rows = [term_rows([toric[0] * toric[1]])[0], term_rows([off_diagonal_minor(*labels[1][1:])])[0]]
        with pytest.raises(ValueError, match="a reducer of degree 4 exceeds the declared degree 3"):
            buchberger_verify(iter(rows), CircularTermOrder(6), labels=labels)

    @pytest.mark.parametrize("coefficients", [(1, -1, 2), (1, 0)], ids=["repeated-monomial", "zero-coefficient"])
    def test_rows_that_break_the_row_invariant_raise(self, coefficients):
        # (1, -1, 2) is 2*x13*x24 with x12*x34 named twice: its leading
        # coefficient is 2, not a unit, yet the divider once led with the
        # first copy of x12*x34.  (1, 0) has a zero tail coefficient.
        lead, tail = mono((1, 2), (3, 4)), mono((1, 3), (2, 4))
        rows = [(c, lead) for c in coefficients[:-1]] + [(coefficients[-1], tail)]
        for order in both_inner_orders(4):
            with pytest.raises(ValueError, match="a monomial twice|a zero coefficient"):
                buchberger_verify([rows], order)

    def test_worker_shares_are_interleaved_row_ranges(self, pool_of_two, monkeypatch):
        # A worker is forked with its share of the rows in memory, a range:
        # no row number or pair is sent to it.
        given_shares = []
        shares = groebner._shares  # the fixture's recording split

        def spy(m, workers):
            given_shares.append(shares(m, workers))
            return given_shares[-1]

        monkeypatch.setattr(groebner, "_shares", spy)
        gens = term_rows(candidate_polynomials(5, "symbolic-square"))
        for order in both_inner_orders(5):
            parallel = buchberger_verify(gens, order, threads=2)
            serial = buchberger_verify(gens, order, threads=1)
            assert stats_tuple(parallel) == stats_tuple(serial)
            assert parallel.checks == serial.checks
        assert pool_of_two == [2, 2]
        # The 55 rows, the even ones to worker 0 and the odd ones to worker 1.
        m = len(gens)
        assert given_shares == [[range(0, m, 2), range(1, m, 2)]] * 2

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB, os.posix_spawn")
    def test_serial_symbolic_n6_peak_rss(self):
        # Building the 110,215 pairs as a list took this command to 27.6-29.0
        # MiB under Python 3.11 and 24.7-25.5 MiB under 3.10; streamed, it
        # peaks at 20.0-21.4 and 17.0-18.0 MiB.  Its counters pin the
        # serial sweep under grevlex.
        argv = ["verify", "buchberger", "--n", "6", "--kind", "symbolic", "--threads", "1", "--format", "json"]
        code, peak_mib, out = child_peak_rss(argv, str(Path(__file__).resolve().parent.parent / "src"))
        assert code == 0
        assert peak_mib < 24
        spairs = json.loads(out)["spairs"]
        assert spairs == {"count": 110215, "skipped_coprime": 32944, "reduced": 77271, "max_terms": 51}


class TestNormalForm:
    """_Divider.normal_form against reference_normal_form: the same remainder
    and the same max_terms."""

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_remainder_and_max_terms_match_reference(self, data):
        # Random inputs seldom cancel a pending term and then grow the work
        # past its largest size so far; CANCELLING below pins that path.
        order = CircularTermOrder(4, data.draw(st.sampled_from(("grevlex", "lex"))))
        G = data.draw(unit_reducers(order, 4))
        f = data.draw(polynomial_strategy(n=4, max_terms=6, max_exp=2))
        packing = order.packing(max([f.degree] + [g.degree for g in G]))
        divider = groebner._Divider(packing, term_rows(G))
        want = reference_normal_form(f, G, order)
        # The second division finds every first divisor in the memo.
        for _ in range(2):
            rem, max_terms = divider.normal_form({-packing.pack(m): c for m, c in f.terms()})
            assert (packed_polynomial(packing, {-q: c for q, c in rem.items()}), max_terms) == want

    # Linear cases over v[0] > v[1] > ... > v[9], the ten variables of
    # n = 5 in the order, as (f, reducers, max_terms, pushes); each reducer
    # is (leading index, tail indices), v[lead] minus the sum of its tail.
    # In the first, rewriting v[0] cancels v[6], which is still pending when
    # v[1] grows the work to four terms.  In the second, v[8] is cancelled,
    # re-created by the rewrite of v[2] while its heap entry is pending, and
    # counted when v[3] grows the work to six terms.
    CANCELLING = [
        ({0: 1, 1: 1, 6: -1}, [(0, [6]), (1, [2, 3, 4, 5])], 4, 4),
        ({0: 1, 1: 1, 8: -1}, [(0, [8]), (1, [2, 3, 4, 5]), (2, [8]), (3, [6, 7, 9])], 6, 7),
    ]

    @pytest.mark.parametrize("f,reducers,max_terms,pushes", CANCELLING)
    def test_cancelled_terms_leave_the_count_and_are_not_pushed_again(
        self, f, reducers, max_terms, pushes, monkeypatch
    ):
        order = CircularTermOrder(5)
        variables = sorted((mono(e) for e in edges_for(5)), key=sort_key(order, 1), reverse=True)
        v = [Polynomial.from_monomial(m) for m in variables]
        f = sum((c * v[k] for k, c in f.items()), Polynomial.zero())
        G = [v[lead] - sum((v[k] for k in tail), Polynomial.zero()) for lead, tail in reducers]
        rem, want = reference_normal_form(f, G, order)
        assert want == max_terms
        pushed = []

        def counting_push(heap, q):
            pushed.append(q)
            heapq.heappush(heap, q)

        monkeypatch.setattr(groebner, "heappush", counting_push)
        packing = order.packing(1)
        divider = groebner._Divider(packing, term_rows(G))
        got, got_max = divider.normal_form({-packing.pack(m): c for m, c in f.terms()})
        assert (packed_polynomial(packing, {-q: c for q, c in got.items()}), got_max) == (rem, max_terms)
        assert len(pushed) == pushes


class TestDivisorIndex:
    """The first-divisor index of the S-pair engine: per-block tables behind
    a front memo from exact negated monomials to their first divisor, capped
    at groebner._FRONT_MEMO_CAP."""

    @pytest.mark.parametrize("cap", [groebner._FRONT_MEMO_CAP, 0])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_first_divisor_matches_brute_force(self, cap, data):
        order = CircularTermOrder(7, data.draw(st.sampled_from(("grevlex", "lex"))))
        # Leading terms of mixed degrees and exponents up to 3.  Each term
        # is looked up twice: below the cap the first lookup misses and the
        # second hits the memo.
        leads = data.draw(st.lists(monomial_strategy(n=7, max_factors=4, max_exp=3), max_size=12))
        terms = data.draw(
            st.lists(monomial_strategy(n=7, max_factors=6, max_exp=3), min_size=1, max_size=8)
        )
        packing = order.packing(max(map(degree, leads + terms)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(groebner, "_FRONT_MEMO_CAP", cap)
            divider = groebner._Divider(packing, [[(1, lt)] for lt in leads])
            misses = 0
            for m in terms + terms:
                q = -packing.pack(m)
                want = reference_first_divisor(leads, m)
                if q in divider.memo:
                    assert divider.memo[q] == want
                else:
                    misses += 1
                    assert divider._first_divisor(q) == want
            assert misses == (len(set(terms)) if cap else 2 * len(terms))
            assert len(divider.memo) <= cap

    def test_index_stays_bounded_over_a_sweep(self):
        # Secant n = 7 meets more distinct monomials than the memo may hold.
        gens = candidate_polynomials(7, "secant")
        order = CircularTermOrder(7)
        packing = order.packing(2 * max(g.degree for g in gens))
        divider = groebner._Divider(packing, term_rows(gens))
        for i in range(len(gens)):
            divider.verify_row(i)
        assert len(divider.memo) == groebner._FRONT_MEMO_CAP
        assert [block.bit_count() for block, _ in divider.blocks] == [7, 7, 7]
        for block, table in divider.blocks:
            assert 0 < len(table) <= 2 ** block.bit_count()


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
            assert leading_term(order, m) == (anti, 1)

    def test_circular_splits_lead_with_antidiagonal(self):
        for n in (6, 7):
            for order in both_inner_orders(n):
                for sub in itertools.combinations(range(1, n + 1), 6):
                    for rows, cols in circular_minor_splits(sub):
                        minor = off_diagonal_minor(rows, cols)
                        anti = antidiagonal_monomial(rows, cols)
                        assert leading_term(order, minor) == (anti, 1)

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_packed_builder_matches_the_polynomial_minor(self, n):
        # groebner._generator signs each permutation's packed term by its
        # parity; off_diagonal_minor sums Monomials and normalizes by the
        # antidiagonal.  Every circular split, and at n = 6 every ordered one.
        splits = list(groebner._minor_splits(n))
        if n == 6:
            splits += [(p[:3], p[3:]) for p in itertools.permutations(range(1, 7))]
        for order in both_inner_orders(n):
            for rows, cols in splits:
                got = groebner._generator(("minor", rows, cols), order)
                assert got == order_rows(order, off_diagonal_minor(rows, cols)), (rows, cols)

    def test_vanishes_on_rank_two(self):
        assert in_secant_ideal(6, poly_rows(off_diagonal_minor_3x3((1, 2, 3, 4, 5, 6))))
        assert in_secant_ideal(7, poly_rows(off_diagonal_minor((2, 3, 5), (1, 6, 7))))

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
    def test_secant_basis_5_is_single_pentad(self):
        (pentad,) = candidate_polynomials(5, "secant")
        assert pentad == master_polynomial(admissible_sequences(5, 2)[0])

    def test_secant_basis_4_empty(self):
        assert candidate_polynomials(4, "secant") == []
        assert not secant_of_edge_ideal(NoncrossingGraph(4), 3).keys

    def test_secant_basis_6_composition(self):
        gens = candidate_polynomials(6, "secant")
        # 2 cubic masters, 12 quintic masters, 3 minors on the single 6-subset.
        assert len(gens) == 17
        degrees = sorted(g.degree for g in gens)
        assert degrees.count(3) == 5 and degrees.count(5) == 12

    def test_symbolic_gb_4_is_three_products(self):
        gens = candidate_polynomials(4, "symbolic-square")
        assert len(gens) == 3
        assert all(g.degree == 4 for g in gens)

    def test_symbolic_gb_product_leads_multiply(self):
        order = CircularTermOrder(5)
        toric = toric_gb_polynomials(5)
        for f, g in itertools.combinations(toric, 2):
            lt_f, lt_g = leading_monomial(order, f), leading_monomial(order, g)
            assert leading_monomial(order, f * g) == mul(lt_f, lt_g)

    def test_symbolic_gb_5_buchberger_passes(self):
        cert = buchberger_verify(term_rows(candidate_polynomials(5, "symbolic-square")), CircularTermOrder(5))
        assert cert.passed


class TestLabels:
    """candidate_basis is a read-only sequence whose product labels are made
    when asked for; it must read as conftest's eager list does."""

    @pytest.mark.parametrize("kind", ["secant", "symbolic-square"])
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9])
    def test_labels_equal_the_eager_reference(self, n, kind):
        labels, want = groebner.candidate_basis(n, kind), eager_labels(n, kind)
        m = len(want)
        assert isinstance(labels, collections.abc.Sequence) and not isinstance(labels, list)
        assert len(labels) == m
        assert list(labels) == want and list(labels) == want  # iterated twice
        assert [labels[k] for k in range(m)] == want
        assert [labels[k] for k in range(-m, 0)] == want
        for s in (slice(None), slice(None, None, -1), slice(3, -2, 7), slice(-5, None), slice(m, None),
                  slice(m // 2, m // 2 + 3), slice(-m - 4, 2), slice(None, None, 97)):
            assert labels[s] == want[s], s
        for k in (m, m + 1, -m - 1):
            with pytest.raises(IndexError):
                labels[k]
        with pytest.raises(TypeError):
            labels[0] = None


class TestGeneratorRows:
    """Commands write a basis and the S-pair leg certifies it from
    generator_rows; its rows must be those of the reference Polynomials of
    label_polynomials, term for term."""

    @pytest.mark.parametrize("inner", ["grevlex", "lex"])
    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_product_rows_equal_polynomial_product(self, n, inner):
        order = CircularTermOrder(n, inner)
        key = sort_key(order, 4)
        toric = toric_gb_polynomials(n)
        labels = [label for label in groebner.candidate_basis(n, "symbolic-square") if label[0] == "product"]
        coefficients, exponents = set(), set()
        for (_, a, b), rows in zip(labels, groebner.generator_rows(n, labels, order), strict=True):
            p = toric[a] * toric[b]
            assert rows == [(p.coefficient(m), m) for m in sorted(p.monomials(), key=key, reverse=True)]
            coefficients.update(c for c, _ in rows)
            exponents.update(e for _, f in rows for _, e in f)
        # A square merges its two cross terms into -2 and raises exponents to
        # 2; no row has coefficient 0.
        assert coefficients == {-2, -1, 1}
        assert exponents == {1, 2}

    @pytest.mark.parametrize("kind", ["secant", "symbolic-square"])
    def test_rows_of_every_label_are_rows_of_its_polynomial(self, kind):
        labels = groebner.candidate_basis(6, kind)
        for order in both_inner_orders(6):
            got = list(groebner.generator_rows(6, labels, order))
            assert got == [order_rows(order, g) for g in label_polynomials(6, labels)]


class TestSecantBasisIsOddCycleBijection:
    """One candidate secant generator per induced odd cycle, led by its monomial."""

    @pytest.mark.parametrize("n, count", [(5, 1), (6, 17), (7, 113), (8, 508), (9, 1843)])
    def test_generators_and_cycles_correspond(self, n, count):
        gens = candidate_polynomials(n, "secant")
        cycles = induced_odd_cycles(NoncrossingGraph(n), odd_floor(n))
        assert len(gens) == len(cycles) == count
        want = set(map(edge_factors, cycles))
        for order in both_inner_orders(n):
            assert {leading_monomial(order, g) for g in gens} == want


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
        g6 = NoncrossingGraph(6)
        for order in both_inner_orders(6):
            lt = packed_ideal([leading_monomial(order, p) for p in candidate_polynomials(6, "secant")], n=6)
            assert lt == secant_of_edge_ideal(g6, 5)
            lt2 = packed_ideal([leading_monomial(order, p) for p in candidate_polynomials(6, "symbolic-square")], n=6)
            assert lt2 == symbolic_square_of_edge_ideal(g6)

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_product_leads_read_through_labels(self, n):
        # The initial-ideal leg takes LT(toric[a]) * LT(toric[b]) as the
        # leading monomial of the product labelled ("product", a, b).
        toric = toric_gb_polynomials(n)
        _, _, products = _families(n, "symbolic-square")
        assert len(products) == comb(len(toric) + 1, 2)
        for order in both_inner_orders(n):
            leads = [leading_monomial(order, t) for t in toric]
            for a, b, g in products:
                assert mul(leads[a], leads[b]) == leading_monomial(order, g), (a, b)

    @pytest.mark.parametrize("kind", ["secant", "symbolic-square"])
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_generators_build_their_labels(self, n, kind):
        # The oracles are master_polynomial, off_diagonal_minor and
        # Polynomial.__mul__, row for row, over the product labels a <= b
        # in combinations_with_replacement order.
        toric = toric_gb_polynomials(n)
        labels = groebner.candidate_basis(n, kind)
        order = CircularTermOrder(n)
        rows = list(groebner.generator_rows(n, labels, order))
        assert len(rows) == len(labels)
        for label, got in zip(labels, rows):
            if label[0] == "master":
                want = master_polynomial(label[1])
            elif label[0] == "minor":
                want = off_diagonal_minor(label[1], label[2])
            else:
                want = toric[label[1]] * toric[label[2]]
            assert got == order_rows(order, want), label
        pairs = itertools.combinations_with_replacement(range(len(toric)), 2)
        products = [label[1:] for label in labels if label[0] == "product"]
        assert products == (list(pairs) if kind == "symbolic-square" else [])

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            delightful_check(5, "cubic", CircularTermOrder(5))

    @pytest.mark.parametrize(
        "kind,target", [("secant", "secant_of_edge_ideal"), ("symbolic-square", "symbolic_square_of_edge_ideal")]
    )
    def test_monomial_ideal_is_built_once_for_the_target(self, monkeypatch, kind, target):
        # A passing initial-ideal leg holds one ideal, the target, packed in
        # the order's packing: the packed leading monomials are checked
        # against it as they are computed, and no leading-term ideal is built.
        built = []
        init = MonomialIdeal.__init__

        def recording_init(self, gens=(), packing=None):
            built.append((sys._getframe(1).f_code.co_name, packing))
            init(self, gens, packing)

        monkeypatch.setattr(MonomialIdeal, "__init__", recording_init)
        order = CircularTermOrder(6)
        assert delightful_check(6, kind, order).passed
        assert built == [(target, order.packing(5 if kind == "secant" else 4))]

    @pytest.mark.parametrize("kind", ["secant", "symbolic-square"])
    @pytest.mark.parametrize("n", [5, 6, 7])
    @pytest.mark.parametrize("inner", ["grevlex", "lex"])
    def test_streamed_verdict_is_leading_term_ideal_equality(self, monkeypatch, n, kind, inner):
        # The streamed leg passes iff the ideal of the leads is the target: on the
        # full basis, without its first generator, and, where the basis is
        # not LT-minimal (symbolic n >= 6), without the last generator whose
        # leading monomial another generator shares or strictly divides.
        order = CircularTermOrder(n, inner)
        labels = groebner.candidate_basis(n, kind)
        variants = [labels, labels[1:]]
        leads, _ = _leads_and_target(n, kind, order)
        shared, minimal = Counter(leads), set(packed_ideal(leads, n=n).generators)
        spare = [k for k, m in enumerate(leads) if shared[m] > 1 or m not in minimal]
        assert bool(spare) == (kind == "symbolic-square" and n >= 6)
        if spare:
            variants.append(labels[: spare[-1]] + labels[spare[-1] + 1 :])
        verdicts = []
        for kept in variants:
            substitute_generators(monkeypatch, {}, labels=kept)
            leg = _check(delightful_check(n, kind, order), "initial_ideal_matches_combinatorial_target")
            leads, target = _leads_and_target(n, kind, order)
            verdicts.append(packed_ideal(leads, n=n) == target)
            assert leg.status == ("pass" if verdicts[-1] else "fail"), len(kept)
        assert verdicts == [True, False, True][: len(variants)]


def _check(cert, name):
    return next(c for c in cert.checks if c.name == name)


def _leads_and_target(n, kind, order):
    """The leading monomial of every generator of the candidate basis, each
    product built in full, and the combinatorial target."""
    labels = groebner.candidate_basis(n, kind)
    leads = [leading_monomial(order, g) for g in label_polynomials(n, labels)]
    g = NoncrossingGraph(n)
    target = secant_of_edge_ideal(g, odd_floor(n)) if kind == "secant" else symbolic_square_of_edge_ideal(g)
    return leads, target


def _reference_witness(n, kind, order):
    """The initial-ideal leg's failure witness by its definition: the minimal
    generators of the leading-term ideal and of the target, each side's
    missing from the other."""
    leads, target = _leads_and_target(n, kind, order)
    got, want = set(packed_ideal(leads, n=n).generators), set(target.generators)
    return {
        "missing": sorted(map(format_factors, want - got)),
        "unexpected": sorted(map(format_factors, got - want)),
    }


def _families(n, kind):
    """The minors, the masters and the (a, b, product) triples of the
    candidate basis of `kind` at n."""
    labels = groebner.candidate_basis(n, kind)
    basis = list(zip(labels, label_polynomials(n, labels)))
    minors = [g for label, g in basis if label[0] == "minor"]
    masters = [g for label, g in basis if label[0] == "master"]
    products = [(*label[1:], g) for label, g in basis if label[0] == "product"]
    return minors, masters, products


def _flip(monkeypatch, n, kind, k, order):
    """Certify the candidate basis with generator k's lowest tail flipped."""
    labels = groebner.candidate_basis(n, kind)
    (g,) = label_polynomials(n, labels[k : k + 1])
    substitute_generators(monkeypatch, {labels[k]: flip_lowest_tail(g, order)})


class TestDelightfulNegativeControls:
    """Each certification leg without S-pairs fails on a deliberately broken basis."""

    @pytest.mark.parametrize("inner", ["grevlex", "lex"])
    def test_flipped_master_coefficient_fails_membership(self, monkeypatch, inner):
        order = CircularTermOrder(6, inner)
        k = len(all_admissible_sequences(6)) - 1  # the last master
        _flip(monkeypatch, 6, "secant", k, order)
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
    def test_flipped_relabelled_master_fails_membership(self, monkeypatch, inner):
        # The master of a sequence shifted up by one is the first one
        # relabelled, so both share a relabelling class, whose verdict the
        # first sets.  The second, with one coefficient flipped, must be
        # asked of the oracle again, and fail under its own name.
        n, order = 7, CircularTermOrder(7, inner)
        labels = groebner.candidate_basis(n, "secant")
        s = all_admissible_sequences(n)[0]
        shifted = AdmissibleSequence.from_arrays([a + 1 for a in s.i], [a + 1 for a in s.j])
        first, k = labels.index(("master", s)), labels.index(("master", shifted))
        assert first < k
        copy = relabel(master_polynomial(s), {a: a + 1 for a in range(1, n)})
        assert copy == master_polynomial(shifted)
        substitute_generators(monkeypatch, {labels[k]: flip_lowest_tail(copy, order)})
        cert = delightful_check(n, "secant", order)
        leg = _check(cert, "generators_vanish_on_rank_two_locus")
        assert leg.status == "fail"
        assert [(w["index"], w["family"], w["k"], w["i"], w["j"]) for w in leg.witness] == [
            (k, "master", shifted.k, list(shifted.i), list(shifted.j))
        ]
        assert leg.witness[0]["generator"] == format_rows(order_rows(order, flip_lowest_tail(copy, order)))
        assert _check(cert, "initial_ideal_matches_combinatorial_target").status == "pass"

    @pytest.mark.parametrize("inner", ["grevlex", "lex"])
    def test_flipped_minor_coefficient_fails_membership(self, monkeypatch, inner):
        order = CircularTermOrder(7, inner)
        k = len(groebner.candidate_basis(7, "secant")) - 2  # the middle split of the last 6-subset
        _flip(monkeypatch, 7, "secant", k, order)
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
        labels = groebner.candidate_basis(6, "secant")
        (dropped,) = label_polynomials(6, labels[-1:])  # the last minor
        substitute_generators(monkeypatch, {}, labels=labels[:-1])
        cert = delightful_check(6, "secant", order)
        assert _check(cert, "generators_vanish_on_rank_two_locus").status == "pass"
        leg = _check(cert, "initial_ideal_matches_combinatorial_target")
        assert leg.status == "fail"
        assert leg.witness["missing"] == [format_factors(leading_monomial(order, dropped))]
        assert leg.witness["unexpected"] == []
        assert leg.witness == _reference_witness(6, "secant", order)

    @pytest.mark.parametrize("inner", ["grevlex", "lex"])
    def test_dropped_minor_fails_symbolic_initial_ideal(self, monkeypatch, inner):
        order = CircularTermOrder(6, inner)
        labels = list(groebner.candidate_basis(6, "symbolic-square"))
        minors, _, _ = _families(6, "symbolic-square")
        del labels[len(minors) - 1]  # the last minor
        substitute_generators(monkeypatch, {}, labels=labels)
        cert = delightful_check(6, "symbolic-square", order)
        assert _check(cert, "generators_member_of_symbolic_square").status == "pass"
        leg = _check(cert, "initial_ideal_matches_combinatorial_target")
        assert leg.status == "fail"
        assert leg.witness["missing"]
        assert leg.witness == _reference_witness(6, "symbolic-square", order)

    @pytest.mark.parametrize("inner", ["grevlex", "lex"])
    def test_mutated_toric_factor_fails_membership(self, monkeypatch, inner):
        order = CircularTermOrder(6, inner)
        toric = toric_gb_polynomials(6)
        k = 7
        lead = leading_monomial(order, toric[k])
        trail = next(m for m in toric[k].monomials() if m != lead)
        toric = list(toric)
        toric[k] = toric[k] + Polynomial.from_monomial(trail, toric[k].coefficient(trail))
        products = [
            (a, b, toric[a] * toric[b])
            for a, b in itertools.combinations_with_replacement(range(len(toric)), 2)
        ]
        substitute_toric(monkeypatch, toric)
        minors, masters, built = _families(6, "symbolic-square")
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
    def test_toric_factor_with_term_above_its_lead_fails_initial_ideal(self, monkeypatch, inner):
        order = CircularTermOrder(6, inner)
        toric = list(toric_gb_polynomials(6))
        k = 7
        lead = leading_monomial(order, toric[k])
        top = max(
            (mono(e, f) for e, f in itertools.combinations_with_replacement(edges_for(6), 2)),
            key=sort_key(order, 2),
        )
        assert compare(order, top, lead) == 1
        toric[k] = toric[k] + Polynomial.from_monomial(top)
        substitute_toric(monkeypatch, toric)
        cert = delightful_check(6, "symbolic-square", order)
        leg = _check(cert, "initial_ideal_matches_combinatorial_target")
        assert leg.status == "fail"
        assert leg.witness["unexpected"] or leg.witness["missing"]
        assert leg.witness == _reference_witness(6, "symbolic-square", order)

    @pytest.mark.parametrize("inner", ["grevlex", "lex"])
    def test_extra_lead_outside_target_fails_initial_ideal(self, monkeypatch, inner):
        # A degree-2 toric binomial among the symbolic candidates: every
        # minimal generator of the target is still a lead, but the
        # binomial's noncrossing pair lies outside the target.  It is filed
        # under a minor label that no split produces.
        order = CircularTermOrder(6, inner)
        labels = list(groebner.candidate_basis(6, "symbolic-square"))
        binomial = toric_gb_polynomials(6)[0]
        extra = ("minor", (1, 2), (3, 4))
        substitute_generators(monkeypatch, {extra: binomial}, labels=labels + [extra])
        cert = delightful_check(6, "symbolic-square", order)
        leg = _check(cert, "initial_ideal_matches_combinatorial_target")
        assert leg.status == "fail"
        lead = format_factors(leading_monomial(order, binomial))
        assert leg.witness["unexpected"] == [lead]
        assert leg.witness == _reference_witness(6, "symbolic-square", order)
        membership = _check(cert, "generators_member_of_symbolic_square")
        assert [w["index"] for w in membership.witness] == [len(labels)]

    @pytest.mark.parametrize("inner", ["grevlex", "lex"])
    def test_flipped_symbolic_master_fails_membership(self, monkeypatch, inner):
        order = CircularTermOrder(6, inner)
        minors, _, _ = _families(6, "symbolic-square")
        _flip(monkeypatch, 6, "symbolic-square", len(minors), order)  # the first master
        cert = delightful_check(6, "symbolic-square", order)
        leg = _check(cert, "generators_member_of_symbolic_square")
        assert leg.status == "fail"
        s = admissible_sequences(6, 1)[0]
        assert leg.witness == [{
            "index": len(minors), "family": "master", "k": 1, "i": list(s.i), "j": list(s.j),
            "reason": "rank-2 oracle failed",
        }]


def _sympy_initial_ideal(polys, order):
    """The ideal of the leading monomials of sympy.groebner(polys) under
    `order`, written as a sympy ProductOrder: one (grevlex or lex, slice)
    per circular block, in class order, each block's variables listed by
    decreasing order.packing(1) key."""
    sympy = pytest.importorskip("sympy")
    from operator import itemgetter

    from sympy.polys.orderings import ProductOrder, grevlex, lex

    key = order.packing(1).pack
    blocks = [[] for _ in range(len(order._blocks))]
    for a, b in edges_for(order.n):
        blocks[edge_class(order.n, (a, b)) - 1].append(("x", a, b))
    inner = grevlex if order.inner == "grevlex" else lex
    variables, slices = [], []
    for block in blocks:
        block.sort(key=lambda v: key(((v, 1),)), reverse=True)
        slices.append((inner, itemgetter(slice(len(variables), len(variables) + len(block)))))
        variables += block
    sym = [sympy.Symbol(f"x_{a}_{b}") for _, a, b in variables]
    at = dict(zip(variables, sym))
    exprs = [sum(c * sympy.Mul(*(at[v] ** e for v, e in m)) for m, c in p.terms()) for p in polys]
    product_order = ProductOrder(*slices)
    basis = sympy.groebner(exprs, *sym, order=product_order)
    return packed_ideal(
        [monomial(zip(variables, g.monoms(order=product_order)[0])) for g in basis.polys],
        n=order.n,
    )


class TestSympyOracle:
    """An independent Groebner engine, where installed (a dev dependency):
    the minimal leading terms of sympy's reduced basis are the targets."""

    @pytest.mark.parametrize("inner", ["grevlex", "lex"])
    @pytest.mark.parametrize("n", [5, 6])
    def test_toric_initial_ideal(self, n, inner):
        order = CircularTermOrder(n, inner)
        assert _sympy_initial_ideal(toric_gb_polynomials(n), order) == initial_edge_ideal(n)

    @pytest.mark.parametrize("inner", ["grevlex", "lex"])
    @pytest.mark.parametrize("n", [5, 6])
    def test_secant_initial_ideal(self, n, inner):
        order = CircularTermOrder(n, inner)
        target = secant_of_edge_ideal(NoncrossingGraph(n), odd_floor(n))
        assert _sympy_initial_ideal(candidate_polynomials(n, "secant"), order) == target

    @pytest.mark.parametrize("inner", ["grevlex", "lex"])
    def test_toric_without_its_first_binomial_mismatches(self, inner):
        order = CircularTermOrder(6, inner)
        assert _sympy_initial_ideal(toric_gb_polynomials(6)[1:], order) != initial_edge_ideal(6)
