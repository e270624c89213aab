import argparse
import contextlib
import copy
import hashlib
import importlib.util
import io
import json
import os
import pickle
import re
import stat
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import hypersecant
import hypersecant.cli as cli
from hypersecant import (
    AdmissibleSequence,
    BinomialGenerator,
    CheckResult,
    CircularTermOrder,
    GroebnerCertificate,
    groebner,
)
from hypersecant.cli import (
    EXIT_FAIL,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)
from conftest import (
    Polynomial,
    candidate_polynomials,
    child_peak_rss,
    dying_row,
    flip_lowest_tail,
    forking_sweep,
    label_polynomials,
    parse_polynomial,
    polynomial_from_json,
    polynomial_to_json,
    run_script,
    substitute_generators,
    substitute_rank,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def invoke(*argv):
    """Run one command's handler: its exit code, its whole stdout and the
    stderr it wrote."""
    args = build_parser().parse_args(list(argv))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, payload = args.handler(args)
        stdout = payload if isinstance(payload, str) else "".join(payload)
    return types.SimpleNamespace(code=code, stdout=stdout, stderr=err.getvalue())


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, whatever the host has."""
    monkeypatch.setattr(groebner, "_usable_cpus", lambda: 2)


class TestCommands:
    def test_initial_secant_n5_single_generator(self):
        res = invoke("initial-secant", "--n", "5")
        assert res.code == EXIT_OK
        assert res.stdout == "x[1,2]*x[1,5]*x[2,3]*x[3,4]*x[4,5]\n"

    def test_toric_gb_text(self):
        res = invoke("toric-gb", "--n", "4")
        assert res.code == EXIT_OK
        lines = res.stdout.strip().splitlines()
        assert lines == [
            "+1*x[1,2]*x[3,4] -1*x[1,3]*x[2,4]",
            "+1*x[1,4]*x[2,3] -1*x[1,3]*x[2,4]",
        ]

    def test_toric_gb_json_schema(self):
        res = invoke("toric-gb", "--n", "4", "--format", "json")
        payload = json.loads(res.stdout)
        assert payload["order"] == {"blocks": "circular", "inner": "grevlex"}
        assert payload["count"] == 2
        assert payload["generators"][0] == {
            "lead": [["x", 1, 2, 1], ["x", 3, 4, 1]],
            "trail": [["x", 1, 3, 1], ["x", 2, 4, 1]],
        }

    def test_master_poly_pentad_text_has_12_terms(self):
        res = invoke("master-poly", "--i", "1,2,3,4,5", "--j", "1,2,3,4,5")
        assert res.code == EXIT_OK
        poly = parse_polynomial(res.stdout.strip())
        assert poly.term_count == 12
        assert res.stdout.startswith("+1*x[1,2]*x[1,5]*x[2,3]*x[3,4]*x[4,5]")

    def test_master_poly_json_round_trip(self):
        res = invoke("master-poly", "--i", "1,3,5", "--j", "2,4,6", "--format", "json")
        payload = json.loads(res.stdout)
        assert payload["term_count"] == 8
        poly = polynomial_from_json(payload["polynomial"])
        assert poly.term_count == 8

    def test_master_poly_rejects_bad_sequence(self, capsys):
        res_code = main(["master-poly", "--i", "1,2,5", "--j", "3,4,6"])
        assert res_code == EXIT_USAGE
        assert "invalid admissible sequence:" in capsys.readouterr().err

    def test_odd_cycles_json(self):
        res = invoke("odd-cycles", "--n", "5", "--format", "json")
        payload = json.loads(res.stdout)
        assert payload["count"] == 1
        assert payload["cycles"] == [[[1, 2], [1, 5], [2, 3], [3, 4], [4, 5]]]

    def test_admissible_text(self):
        res = invoke("admissible", "--n", "6", "--k", "1")
        assert res.stdout.splitlines() == ["k=1 i=1,3,5 j=2,4,6", "k=1 i=2,4,6 j=3,5,1"]

    def test_admissible_huge_k_is_empty_at_once(self):
        # A chain of length 2k+1 needs that many distinct i's, so none
        # exists past n; nothing of size k is built.
        start = time.perf_counter()
        res = invoke("admissible", "--n", "8", "--k", "1000000000", "--format", "json")
        assert time.perf_counter() - start < 1
        assert res.code == EXIT_OK
        assert json.loads(res.stdout)["count"] == 0

    def test_initial_symbolic_n4(self):
        res = invoke("initial-symbolic", "--n", "4")
        assert res.code == EXIT_OK
        assert len(res.stdout.strip().splitlines()) == 3

    def test_secant_gb_algebra_script(self):
        res = invoke("secant-gb", "--n", "5", "--format", "algebra-script")
        assert res.code == EXIT_OK
        assert res.stdout.startswith("-- generated by hypersecant")
        assert "variables: " in res.stdout
        assert "x_1_2*x_1_5*x_2_3*x_3_4*x_4_5" in res.stdout

    def test_reproduce_passes(self):
        res = invoke("reproduce")
        assert res.code == EXIT_OK
        assert res.stdout.endswith("PASS\n")

    def test_reproduce_json(self):
        res = invoke("reproduce", "--format", "json")
        payload = json.loads(res.stdout)
        assert payload["match"] is True
        assert payload["pentad"]["mismatches"] == []

    def test_reproduce_reports_each_mismatch_in_canonical_order(self, monkeypatch):
        # One sign flipped, one term dropped and one foreign term of a lower
        # degree added: the foreign square comes first, by degree, though its
        # factors sort after the cubics'.
        terms = list(hypersecant.fixtures.REFERENCE_CUBIC_TERMS)
        terms[1] = (-terms[1][0], terms[1][1])
        del terms[6]
        terms.append((-3, ((4, 5), (4, 5))))
        monkeypatch.setattr(hypersecant.fixtures, "REFERENCE_CUBIC_TERMS", tuple(terms))
        res = invoke("reproduce")
        assert res.code == EXIT_FAIL
        assert res.stdout == (
            "cubic: MISMATCH (expected 8 terms, computed 8)\n"
            "  x[4,5]^2: expected -3, computed 0\n"
            "  x[1,2]*x[3,5]*x[4,6]: expected 1, computed -1\n"
            "  x[1,5]*x[2,4]*x[3,6]: expected 0, computed 1\n"
            "pentad: ok (expected 12 terms, computed 12)\n"
            "generic_quintic: ok (expected 32 terms, computed 32)\n"
            "FAIL\n"
        )
        res = invoke("reproduce", "--format", "json")
        assert res.code == EXIT_FAIL
        payload = json.loads(res.stdout)
        assert (payload["match"], payload["cubic"]["match"], payload["pentad"]["match"]) == (False, False, True)
        assert payload["cubic"]["mismatches"] == [
            {"monomial": "x[4,5]^2", "expected": -3, "computed": 0},
            {"monomial": "x[1,2]*x[3,5]*x[4,6]", "expected": 1, "computed": -1},
            {"monomial": "x[1,5]*x[2,4]*x[3,6]", "expected": 0, "computed": 1},
        ]


class TestVerify:
    def test_membership_single_sequence(self):
        res = invoke("verify", "membership", "--n", "5", "--i", "1,2,3,4,5", "--j", "1,2,3,4,5")
        assert res.code == EXIT_OK
        assert res.stdout.endswith("PASS\n")

    def test_membership_sweep_asks_the_oracle_once_per_class(self, monkeypatch):
        # 424 masters at n = 8, one rank-2 oracle call per relabelling class.
        from hypersecant import hypersimplex
        from hypersecant.master import master_terms

        calls = []
        oracle = hypersimplex.in_secant_ideal

        def counted(n, rows):
            calls.append(rows)
            return oracle(n, rows)

        monkeypatch.setattr(hypersimplex, "in_secant_ideal", counted)
        res = invoke("verify", "membership", "--n", "8")
        assert res.code == EXIT_OK
        assert res.stdout.endswith("PASS\n")
        seqs = list(hypersecant.all_admissible_sequences(8))
        order = CircularTermOrder(8)
        rows = [master_terms(s, order) for s in seqs]
        classes = {hypersimplex.SecantClasses(8)._key(r) for r in rows}
        assert len(res.stdout.splitlines()) == len(seqs) + 1 == 425
        assert len(calls) == len(classes) < 60

    def test_membership_verdicts_do_not_depend_on_the_inner_order(self):
        # The rows are built under --order; a relabelling class is keyed by
        # the set of terms, which no order changes.
        inners = ["grevlex", "lex"]
        payloads = [
            json.loads(invoke("verify", "membership", "--n", "8", "--order", f"inner={inner}", "--format", "json").stdout)
            for inner in inners
        ]
        assert [p["order"]["inner"] for p in payloads] == inners
        assert payloads[0]["pass"] is payloads[1]["pass"] is True
        assert payloads[0]["results"] == payloads[1]["results"]
        assert len(payloads[0]["results"]) == 424

    def test_leading_term_sweep_lex(self):
        res = invoke("verify", "leading-term", "--n", "5", "--order", "inner=lex", "--format", "json")
        payload = json.loads(res.stdout)
        assert payload["pass"] is True
        assert payload["order"]["inner"] == "lex"

    def test_prolongation_sweep(self):
        res = invoke("verify", "prolongation", "--n", "5")
        assert res.code == EXIT_OK

    def test_buchberger_toric(self):
        res = invoke("verify", "buchberger", "--n", "5", "--kind", "toric", "--format", "json")
        payload = json.loads(res.stdout)
        assert payload["pass"] is True
        assert payload["spairs"]["count"] == 45
        assert "wall" not in json.dumps(payload)
        assert re.fullmatch(r"s-pair wall time: \d+\.\d\ds\n", res.stderr)

    def test_buchberger_threads(self):
        res = invoke("verify", "buchberger", "--n", "5", "--kind", "toric", "--threads", "2")
        assert res.code == EXIT_OK

    def test_delightful_secant_n5(self):
        res = invoke("verify", "delightful", "--n", "5", "--kind", "secant", "--buchberger")
        assert res.code == EXIT_OK
        assert res.stdout.endswith("PASS\n")
        assert "CITED" in res.stdout
        assert re.fullmatch(r"s-pair wall time: \d+\.\d\ds\n", res.stderr)

    def test_delightful_without_buchberger_writes_no_wall_time(self):
        res = invoke("verify", "delightful", "--n", "5")
        assert (res.code, res.stderr) == (EXIT_OK, "")

    @pytest.mark.parametrize("threads", ["1", "4"])
    def test_delightful_threads_need_buchberger(self, threads, capsys):
        assert main(["verify", "delightful", "--n", "5", "--threads", threads]) == EXIT_USAGE
        assert "--buchberger" in capsys.readouterr().err

    def test_delightful_buchberger_threads(self):
        res = invoke("verify", "delightful", "--n", "5", "--buchberger", "--threads", "2")
        assert res.code == EXIT_OK
        assert res.stdout.endswith("PASS\n")

    def test_delightful_secant_n6_with_buchberger(self):
        res = invoke("verify", "delightful", "--n", "6", "--kind", "secant", "--buchberger")
        assert res.code == EXIT_OK
        assert res.stdout.endswith("PASS\n")

    def test_buchberger_names_failing_pairs_by_generator(self, monkeypatch):
        # The last generator, a minor, with one non-leading coefficient negated.
        labels = list(groebner.candidate_basis(6, "secant"))
        (g,) = label_polynomials(6, labels[-1:])
        substitute_generators(monkeypatch, {labels[-1]: flip_lowest_tail(g, CircularTermOrder(6))})
        argv = ["verify", "buchberger", "--n", "6", "--kind", "secant"]
        res = invoke(*argv, "--format", "json")
        assert res.code == EXIT_FAIL
        (check,) = json.loads(res.stdout)["checks"]
        last = len(labels) - 1
        for w in check["witness"]:
            assert list(w)[:2] == ["pair", "generators"]
            if w["pair"][1] == last:
                assert w["generators"][1]["family"] == "minor"
        families = {tuple(f["family"] for f in w["generators"]) for w in check["witness"]}
        assert ("master", "minor") in families
        # The text witness keeps the first 400 characters, which now name
        # the pair's generators before its remainder.
        text = invoke(*argv).stdout
        assert '"generators": [{"family": "master"' in text

    def test_buchberger_names_failing_toric_pairs_by_binomial(self, monkeypatch):
        # One trail of toric n = 5 with its sign flipped: lead + trail leaves
        # the toric ideal, and S-pairs with it fail.
        class TrailFlipped(BinomialGenerator):
            def rows(self):
                return [(1, self.lead), (1, self.trail)]

        binomials = cli.toric_gb(5)
        flipped = 3
        b = binomials[flipped]
        mutated = list(binomials)
        mutated[flipped] = TrailFlipped(b.lead, b.trail, b.quadruple, b.family)
        monkeypatch.setattr(cli, "toric_gb", lambda n: mutated)
        res = invoke("verify", "buchberger", "--n", "5", "--kind", "toric", "--format", "json")
        assert res.code == EXIT_FAIL
        (check,) = json.loads(res.stdout)["checks"]
        assert any(flipped in w["pair"] for w in check["witness"])
        for w in check["witness"]:
            assert list(w)[:2] == ["pair", "generators"]
            assert w["generators"] == [
                {"family": "binomial", "quadruple": list(binomials[k].quadruple), "lead": binomials[k].family}
                for k in w["pair"]
            ]

    def test_delightful_names_failing_pairs_by_generator(self, monkeypatch):
        # The last generator, a product, with one non-leading coefficient negated.
        labels = list(groebner.candidate_basis(5, "symbolic-square"))
        (g,) = label_polynomials(5, labels[-1:])
        substitute_generators(monkeypatch, {labels[-1]: flip_lowest_tail(g, CircularTermOrder(5))})
        argv = ["verify", "delightful", "--n", "5", "--kind", "symbolic", "--buchberger"]
        res = invoke(*argv, "--format", "json")
        assert res.code == EXIT_FAIL
        checks = {c["check"]: c for c in json.loads(res.stdout)["checks"]}
        witness = checks["spairs_reduce_to_zero"]["witness"]
        assert witness
        last = len(cli.toric_gb(5)) - 1
        for w in witness:
            assert [f["family"] for f in w["generators"]] == ["product", "product"]
        assert {"family": "product", "factors": [last, last]} in witness[-1]["generators"]
        assert checks["generators_member_of_symbolic_square"]["status"] == "pass"

    def test_delightful_symbolic_n5_json(self):
        res = invoke("verify", "delightful", "--n", "5", "--kind", "symbolic", "--format", "json")
        payload = json.loads(res.stdout)
        assert payload["pass"] is True
        assert payload["kind"] == "symbolic-square"
        checks = {c["check"]: c for c in payload["checks"]}
        assert checks["initial_of_secant_inside_secant_of_initial"]["status"] == "cited"


class TestBoundsAndExitCodes:
    def test_buchberger_bound_enforced(self):
        assert main(["verify", "buchberger", "--n", "8", "--kind", "secant"]) == EXIT_USAGE

    def test_sweep_bound_enforced(self):
        assert main(["secant-gb", "--n", "9"]) == EXIT_USAGE

    def test_allow_large_lifts_bound(self):
        res = invoke("admissible", "--n", "9", "--k", "4", "--allow-large")
        assert res.code == EXIT_OK
        assert "warning" in res.stderr

    def test_unknown_command_is_usage_error(self):
        assert main(["no-such-command"]) == EXIT_USAGE

    def test_missing_n_is_usage_error(self):
        assert main(["toric-gb"]) == EXIT_USAGE

    def test_bad_order_is_usage_error(self):
        assert main(["toric-gb", "--n", "4", "--order", "inner=weight"]) == EXIT_USAGE

    @pytest.mark.parametrize("value", ["lex", "grevlex", "=lex", "outer=lex", "inner=lex=lex", "inner="])
    def test_order_is_spelled_inner_only(self, value, capsys):
        # inner=grevlex and inner=lex are the only spellings; a bare order
        # name is refused, not read as one.
        assert main(["toric-gb", "--n", "4", "--order", value]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert f"--order must be inner=grevlex or inner=lex, got {value!r}" in err

    @pytest.mark.parametrize("argv", [
        ["initial-secant", "--n", "6", "--max-len", "4"],
        ["odd-cycles", "--n", "6", "--max-len", "1"],
        ["admissible", "--n", "6", "--k", "0"],
        ["verify", "buchberger", "--n", "5", "--threads", "0"],
        ["verify", "delightful", "--n", "3"],
    ])
    def test_invalid_input_is_usage_error(self, argv, capsys):
        assert main(argv) == EXIT_USAGE
        assert "internal" not in capsys.readouterr().err

    def test_library_fault_is_internal_error(self, monkeypatch, capsys):
        def broken(n):
            raise ValueError("broken invariant")

        monkeypatch.setattr(cli, "toric_gb", broken)
        assert main(["toric-gb", "--n", "4"]) == EXIT_INTERNAL
        assert "error: internal: broken invariant" in capsys.readouterr().err

    def test_master_poly_k_bound(self, monkeypatch):
        i_vals = ",".join(str(2 * a + 1) for a in range(15))
        j_vals = ",".join(str(2 * a + 2) for a in range(15))
        assert main(["master-poly", "--i", i_vals, "--j", j_vals]) == EXIT_USAGE
        monkeypatch.setattr(cli, "MASTER_K_BOUND", 0)
        assert main(["master-poly", "--i", "1,3,5", "--j", "2,4,6"]) == EXIT_USAGE
        res = invoke("master-poly", "--i", "1,3,5", "--j", "2,4,6", "--allow-large")
        assert res.code == EXIT_OK
        assert res.stderr.startswith("warning: k=1 exceeds")

    @pytest.mark.parametrize("argv", [
        ["master-poly", "--i", "1,3,5", "--j", "2,4,6", "--n", "9"],
        ["master-poly", "--i", "1,3,5,7,9", "--j", "2,4,6,8,10", "--n", "11"],
        ["odd-cycles", "--n", "5", "--max-len", "7"],
        ["initial-secant", "--n", "5", "--max-len", "7"],
        ["odd-cycles", "--n", "11"],
        ["verify", "membership", "--n", "11", "--i", "1,3,5,7,9", "--j", "2,4,6,8,10"],
        ["verify", "leading-term", "--n", "11", "--i", "1,3,5,7,9", "--j", "2,4,6,8,10"],
        ["verify", "prolongation", "--n", "11", "--i", "1,3,5", "--j", "2,4,6"],
    ])
    def test_size_inputs_past_their_bound_need_allow_large(self, argv, capsys):
        assert main(argv) == EXIT_USAGE
        assert "pass --allow-large" in capsys.readouterr().err
        res = invoke(*argv, "--allow-large")
        assert res.code == EXIT_OK
        assert res.stderr.startswith("warning: ")

    @pytest.mark.parametrize("argv", [
        ["master-poly", "--i", "1,3,5,7,9", "--j", "2,4,6,8,10"],
        ["master-poly", "--i", "1,3,5,7,9", "--j", "2,4,6,8,10", "--n", "10"],
        ["master-poly", "--i", "1,3,5", "--j", "2,4,6", "--n", "8"],
        ["odd-cycles", "--n", "5"],
        ["odd-cycles", "--n", "5", "--max-len", "5"],
        ["initial-secant", "--n", "5", "--max-len", "5"],
        ["odd-cycles", "--n", "10"],
        ["verify", "membership", "--n", "10", "--i", "1,3,5,7,9", "--j", "2,4,6,8,10"],
        ["verify", "leading-term", "--n", "10", "--i", "1,3,5,7,9", "--j", "2,4,6,8,10"],
        ["verify", "prolongation", "--n", "10", "--i", "1,3,5", "--j", "2,4,6"],
    ])
    def test_size_inputs_at_their_bound_need_no_flag(self, argv):
        res = invoke(*argv)
        assert res.code == EXIT_OK
        assert res.stderr == ""

    def test_delightful_bound_is_certify_bound_without_buchberger(self, monkeypatch):
        def certificate(n, kind, order):
            return GroebnerCertificate(order.descriptor(), 0, (), n=n, kind=kind)

        monkeypatch.setattr(cli, "delightful_check", certificate)
        for kind in ("secant", "symbolic"):
            res = invoke("verify", "delightful", "--n", "10", "--kind", kind)
            assert (res.code, res.stderr) == (EXIT_OK, "")
            assert main(["verify", "delightful", "--n", "11", "--kind", kind]) == EXIT_USAGE
            res = invoke("verify", "delightful", "--n", "11", "--kind", kind, "--allow-large")
            assert res.code == EXIT_OK
            assert res.stderr.startswith("warning: n=11 exceeds the desk-scale bound 10")
        assert main(["verify", "delightful", "--n", "8", "--kind", "secant", "--buchberger"]) == EXIT_USAGE

    @pytest.mark.parametrize("i_vals", ["1,3,,5", ",1,3,5", "1,3,5,", ""])
    def test_empty_index_token_is_usage_error(self, i_vals, capsys):
        assert main(["master-poly", "--i", i_vals, "--j", "2,4,6"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert f"expected a comma-separated index list, got {i_vals!r}" in err

    def test_warning_is_written_before_the_work(self, monkeypatch):
        seen = []

        def certificate(n, kind, order):
            seen.append(sys.stderr.getvalue())
            return GroebnerCertificate(order.descriptor(), 0, (), n=n, kind=kind)

        monkeypatch.setattr(cli, "delightful_check", certificate)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            assert main(["verify", "delightful", "--n", "11", "--allow-large"]) == EXIT_OK
        warning = "warning: n=11 exceeds the desk-scale bound 10 for delightful secant; continuing\n"
        assert seen == [warning]
        assert err.getvalue() == warning

    @pytest.mark.parametrize("argv, error", [
        (["initial-secant", "--n", "9", "--allow-large", "--max-len", "4"],
         "--max-len must be odd and >= 3, got 4"),
        (["admissible", "--n", "9", "--allow-large", "--k", "0"], "--k must be at least 1, got 0"),
        (["verify", "membership", "--n", "11", "--allow-large", "--i", "1,3,5", "--j", "2,4,12"],
         "sequence uses indices above n=11"),
    ])
    def test_rejected_command_prints_no_warning(self, argv, error, capsys):
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {error}\n")

    @pytest.mark.parametrize("argv", [
        ["verify", "buchberger", "--n", "5", "--threads", "3"],
        ["verify", "delightful", "--n", "5", "--buchberger", "--threads", "3"],
    ])
    def test_threads_past_usable_cpus_only_cap(self, argv, two_cpus):
        # --threads caps the derived count and has no bound of its own; at
        # n = 5 each sweep has too few S-pairs for a second worker.
        serial = invoke(*argv[:-2]).stdout
        for extra in ((), ("--allow-large",)):
            res = invoke(*argv, *extra)
            assert res.code == EXIT_OK
            assert "warning" not in res.stderr
            assert res.stdout == serial

    @pytest.mark.parametrize("argv", [
        ["verify", "membership", "--n", "5", "--all"],
        ["toric-gb", "--n", "4", "--threads", "2"],
        ["reproduce", "--format", "algebra-script"],
        ["reproduce", "--allow-large"],
        ["admissible", "--n", "6", "--order", "inner=lex"],
        ["odd-cycles", "--n", "6", "--format", "algebra-script"],
        ["verify", "buchberger", "--n", "5", "--format", "algebra-script"],
    ])
    def test_flags_a_command_does_not_read_are_rejected(self, argv):
        assert main(argv) == EXIT_USAGE


# Every command at its least --n, as the arguments after the command.
# master-poly reads its n from the sequence, the pentad (n = 5) being the
# smallest; reproduce takes no --n.
FLOOR = {
    ("toric-gb",): [["--n", "3"]],
    ("initial-ideal",): [["--n", "3"]],
    ("initial-symbolic",): [["--n", "3"]],
    ("initial-secant",): [["--n", "3"]],
    ("secant-gb",): [["--n", "4"]],
    ("symbolic-gb",): [["--n", "4"]],
    ("odd-cycles",): [["--n", "3"]],
    ("admissible",): [["--n", "3"]],
    ("master-poly",): [["--i", "1,2,3,4,5", "--j", "1,2,3,4,5", "--n", "5"]],
    ("verify", "membership"): [["--n", "3"]],
    ("verify", "prolongation"): [["--n", "3"]],
    ("verify", "leading-term"): [["--n", "3"]],
    ("verify", "buchberger"): [
        ["--n", "3", "--kind", "toric"],
        ["--n", "4", "--kind", "secant"],
        ["--n", "4", "--kind", "symbolic"],
    ],
    ("verify", "delightful"): [
        ["--n", "4", "--kind", kind, *leg] for kind in ("secant", "symbolic") for leg in ([], ["--buchberger"])
    ],
    ("reproduce",): [[]],
}


def _leaf_commands(parser, prefix=()):
    """(command words, parser) of every command the CLI parser accepts."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaf_commands(sub, (*prefix, name))
            return
    yield prefix, parser


def _floor_invocations():
    for words, parser in _leaf_commands(build_parser()):
        options = {o: a for a in parser._actions for o in a.option_strings}
        orders = [["--order", f"inner={inner}"] for inner in ("grevlex", "lex")] if "--order" in options else [[]]
        for args in FLOOR.get(words, []):
            for order in orders:
                for fmt in options["--format"].choices:
                    yield [*words, *args, *order, "--format", fmt]


class TestFloor:
    @pytest.mark.parametrize("argv", [
        ["verify", "buchberger", "--kind", "secant"],
        ["verify", "delightful", "--kind", "secant", "--buchberger"],
    ])
    def test_empty_secant_basis_passes(self, argv):
        res = invoke(*argv, "--n", "4")
        assert res.code == EXIT_OK
        assert "s-pairs: 0 total" in "".join(res.stdout)

    def test_every_command_has_a_floor(self):
        assert {words for words, _ in _leaf_commands(build_parser())} == set(FLOOR)

    @pytest.mark.parametrize("argv", list(_floor_invocations()), ids=" ".join)
    def test_least_n_never_faults(self, argv):
        assert main(argv) in (EXIT_OK, EXIT_FAIL)

    def test_one_below_the_floor_is_usage_error(self):
        for words, variants in FLOOR.items():
            for args in variants:
                if "--n" in args:
                    at = args.index("--n") + 1
                    below = [*args[:at], str(int(args[at]) - 1), *args[at + 1:]]
                    assert main([*words, *below]) == EXIT_USAGE, below


class TestDeterminism:
    def test_repeated_runs_byte_identical(self):
        for argv in (
            ("secant-gb", "--n", "6", "--format", "json"),
            ("verify", "buchberger", "--n", "5", "--kind", "toric", "--format", "json"),
            ("initial-secant", "--n", "6"),
            ("reproduce", "--format", "json"),
        ):
            a = invoke(*argv)
            b = invoke(*argv)
            assert a.stdout == b.stdout
            assert a.code == b.code

    def test_threads_do_not_change_output(self, workers_of_two):
        argv = ("verify", "buchberger", "--n", "5", "--kind", "toric", "--format", "json")
        base = invoke(*argv, "--threads", "1")
        threaded = invoke(*argv, "--threads", "2")
        assert base.stdout == threaded.stdout
        assert workers_of_two == [2]

    def test_output_flag_writes_file(self, tmp_path):
        target = tmp_path / "out.json"
        code = main(["toric-gb", "--n", "4", "--format", "json", "--output", str(target)])
        assert code == EXIT_OK
        assert json.loads(target.read_text())["count"] == 2
        umask = os.umask(0)
        os.umask(umask)
        assert target.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_output_to_missing_directory_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "out.txt"
        assert main(["toric-gb", "--n", "4", "--output", str(target)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"error: cannot write --output {target}:" in err
        assert "Traceback" not in err
        assert not target.parent.exists()

    def test_failed_output_write_keeps_old_file(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "out.txt"
        target.write_text("old content\n")

        def refuse(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli.os, "replace", refuse)
        assert main(["toric-gb", "--n", "4", "--output", str(target)]) == EXIT_USAGE
        assert "error: cannot write --output" in capsys.readouterr().err
        assert target.read_text() == "old content\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_output_replaces_existing_file(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old content that is longer than the new payload\n" * 20)
        assert main(["toric-gb", "--n", "4", "--output", str(target)]) == EXIT_OK
        assert target.read_text() == invoke("toric-gb", "--n", "4").stdout
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    @pytest.mark.parametrize("mode", [0o600, 0o640], ids=oct)
    def test_output_keeps_the_replaced_file_mode(self, tmp_path, mode):
        target = tmp_path / "priv.txt"
        target.write_text("old content\n")
        target.chmod(mode)
        assert main(["toric-gb", "--n", "4", "--output", str(target)]) == EXIT_OK
        assert target.read_text() == invoke("toric-gb", "--n", "4").stdout
        assert stat.S_IMODE(target.stat().st_mode) == mode

    def test_output_new_file_mode_follows_umask(self, tmp_path):
        target = tmp_path / "new.txt"
        umask = os.umask(0o022)
        try:
            assert main(["toric-gb", "--n", "4", "--output", str(target)]) == EXIT_OK
        finally:
            os.umask(umask)
        assert stat.S_IMODE(target.stat().st_mode) == 0o644

    def test_output_through_symlink_replaces_its_target(self, tmp_path):
        real = tmp_path / "real.txt"
        real.write_text("old content\n")
        link = tmp_path / "link.txt"
        link.symlink_to(real.name)
        assert main(["toric-gb", "--n", "4", "--output", str(link)]) == EXIT_OK
        assert link.is_symlink() and os.readlink(link) == real.name
        assert real.read_text() == invoke("toric-gb", "--n", "4").stdout
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "real.txt"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
    def test_output_to_fifo_is_usage_error(self, tmp_path, capsys):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        assert main(["toric-gb", "--n", "4", "--output", str(fifo)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"error: cannot write --output {fifo}:" in err
        assert "not a regular file" in err
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["fifo"]

    def test_closed_stdout_is_usage_error(self):
        # The reader takes one line and closes the pipe, as `| head -1` does;
        # the 301 kB of text is far more than the pipe buffers.
        proc = subprocess.Popen(
            [sys.executable, "-m", "hypersecant", "symbolic-gb", "--n", "7", "--format", "text"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        err = err.decode()
        assert proc.returncode == EXIT_USAGE
        assert first.startswith(b"+1*x[")
        assert err == "error: cannot write stdout: [Errno 32] Broken pipe\n"


def _break_renderer_after_first(monkeypatch):
    """Make the JSON polynomial renderer raise on its second generator."""
    real = cli._JsonText.polynomial
    calls = []

    def polynomial(self, p, depth):
        calls.append(p)
        if len(calls) > 1:
            raise RuntimeError("renderer broke")
        return real(self, p, depth)

    monkeypatch.setattr(cli._JsonText, "polynomial", polynomial)


class TestStreamedOutput:
    """The payload goes out one generator at a time, never as one document."""

    @pytest.mark.parametrize("command", ["secant-gb", "symbolic-gb", "toric-gb", "initial-symbolic"])
    def test_no_write_is_longer_than_one_generator(self, command):
        argv = [command, "--n", "6", "--format", "json"]
        writes = []
        # A stdout with write and the flush that ends the payload.
        with contextlib.redirect_stdout(types.SimpleNamespace(write=writes.append, flush=lambda: None)):
            assert main(argv) == EXIT_OK
        whole = invoke(*argv).stdout
        assert "".join(writes) == whole
        # The header, then each generator's text at depth 2 led by its
        # separator, then the array's closing bracket and the closing brace.
        texts = [json.dumps(g, indent=2).replace("\n", "\n    ") for g in json.loads(whole)["generators"]]
        assert writes[1:-2] == ["[\n    " + texts[0]] + [",\n    " + t for t in texts[1:]]
        assert max(map(len, writes)) <= max(map(len, texts)) + len(",\n    ")

    def test_fault_mid_emission_is_internal_error(self, monkeypatch, capsys):
        _break_renderer_after_first(monkeypatch)
        assert main(["secant-gb", "--n", "6", "--format", "json"]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert "error: internal: renderer broke" in captured.err
        # stdout holds the header and the first generator: a truncated document.
        assert captured.out.startswith('{\n  "command": "secant-gb",')
        assert captured.out.count('"terms"') == 1
        with pytest.raises(json.JSONDecodeError):
            json.loads(captured.out)

    def test_fault_mid_emission_keeps_output_file(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "out.json"
        target.write_text("old content\n")
        _break_renderer_after_first(monkeypatch)
        code = main(["secant-gb", "--n", "6", "--format", "json", "--output", str(target)])
        assert code == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert "error: internal: renderer broke" in captured.err
        assert "cannot write" not in captured.err
        assert captured.out == ""
        assert target.read_text() == "old content\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    @pytest.mark.parametrize("inner", ["grevlex", "lex"])
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_symbolic_gb_count_matches_generators(self, n, inner):
        # The header's count is computed before the streamed products are
        # built, so it is checked against what each format then writes.
        argv = ["symbolic-gb", "--n", str(n), "--order", f"inner={inner}", "--format"]
        payload = json.loads(invoke(*argv, "json").stdout)
        count = len(candidate_polynomials(n, "symbolic-square"))
        assert payload["count"] == len(payload["generators"]) == count
        assert len(invoke(*argv, "text").stdout.splitlines()) == payload["count"]
        script = invoke(*argv, "algebra-script").stdout
        assert len(script.split("generators:\n", 1)[1].splitlines()) == payload["count"]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB, os.posix_spawn")
    def test_n8_emission_peak_rss(self):
        # symbolic-gb --n 8 --format json writes 18.6 MB, 9,870 of its 10,010
        # generators products of two toric binomials.  Holding every product
        # took this process to about 31 MiB; with each product built as it is
        # rendered and dropped after, every format stays near 17 MiB.
        for fmt in ("json", "text", "algebra-script"):
            code, peak_mib, _ = child_peak_rss(["symbolic-gb", "--n", "8", "--format", fmt], SRC)
            assert code == EXIT_OK
            assert peak_mib < 26, fmt
        # The 508 secant generators, built one at a time from their labels:
        # holding them all took secant-gb to 19.7-21.5 MiB and verify
        # delightful to 20.4 MiB; streamed, they peak near 16 and 17 MiB.
        for argv in (
            *(["secant-gb", "--n", "8", "--format", fmt] for fmt in ("json", "text", "algebra-script")),
            ["verify", "delightful", "--n", "8", "--kind", "secant"],
        ):
            code, peak_mib, _ = child_peak_rss(argv, SRC)
            assert code == EXIT_OK
            assert peak_mib < 18.5, argv
        # The symbolic certification checks each of its 10,010 leading
        # monomials against the target as it is computed: about 21 MiB with
        # both held as Monomials, against 26.5 MiB when it held the leads,
        # their minimalized ideal and the target together.  On packed ints it
        # peaked at 18.1-19.1 MiB with a list of its labels, a set of the
        # target's candidates and a list per support in the target's index.
        # With product labels made when read, the target streamed and one
        # key per support, it peaked at 16.4-17.0 MiB at n = 8 and near
        # 25.6 MiB at n = 10, where those structures took it to 41.5 MiB.
        # With each squarefree generator of the target filed by its support
        # alone and marked in place when met, it peaks near 15.4 MiB at
        # n = 8 and 20.4 MiB at n = 10, against 16.2-16.4 and 25.2-25.4 MiB.
        for n, bound in ((8, 16.5), (10, 23)):
            code, peak_mib, _ = child_peak_rss(["verify", "delightful", "--n", str(n), "--kind", "symbolic"], SRC)
            assert code == EXIT_OK
            assert peak_mib < bound, n


class TestJsonRoundTrip:
    def test_polynomial_json_round_trip(self):
        from hypersecant import CircularTermOrder

        order = CircularTermOrder(6)
        for p in candidate_polynomials(6, "secant"):
            assert polynomial_from_json(polynomial_to_json(p, order)) == p

    def test_parameter_polynomial_round_trip(self):
        from hypersecant import edge_var

        p = substitute_rank(Polynomial.variable(edge_var(1, 2)), 2)
        assert polynomial_from_json(polynomial_to_json(p)) == p


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "hypersecant", "initial-secant", "--n", "5"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert proc.stdout == "x[1,2]*x[1,5]*x[2,3]*x[3,4]*x[4,5]\n"


# Modules that only some commands run: --output (tempfile, shutil), the
# exit-3 path (traceback), the forking S-pair sweep (select, signal), and
# what dataclasses pulls in.  No command loads multiprocessing or
# concurrent.futures.
DEFERRED_MODULES = {
    "dataclasses", "inspect", "ast", "dis", "tokenize", "traceback",
    "tempfile", "shutil", "select", "signal", "multiprocessing", "concurrent.futures",
}


def test_cold_start_loads_only_what_every_command_runs():
    """Every command starts a fresh interpreter and pays for what importing
    the CLI loads; -S keeps site's .pth imports out of the check."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, hypersecant.cli; print(*sys.modules)"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "hypersecant.cli" in loaded
    assert not loaded & DEFERRED_MODULES, sorted(loaded & DEFERRED_MODULES)


def test_certificate_header_is_required():
    # Every certificate names its n and kind; neither has a default.
    with pytest.raises(TypeError):
        GroebnerCertificate({}, 0, ())
    with pytest.raises(TypeError):
        GroebnerCertificate({}, 0, (), 6)


def test_records_stay_immutable_values():
    """The records are tuples or __slots__ classes, not dataclasses: fields
    cannot be assigned, and equal sequences are one set element."""
    s = AdmissibleSequence(1, (1, 3, 5), (2, 4, 6))
    check = CheckResult("leg", "pass")
    cert = GroebnerCertificate({}, 0, (check,), 6, "secant")
    for record, field in ((s, "k"), (s, "i"), (check, "status"), (cert, "n")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        del s.j
    assert len({s, AdmissibleSequence(1, (1, 3, 5), (2, 4, 6))}) == 1
    assert s != AdmissibleSequence(1, (1, 3, 5), (2, 4, 7))
    assert repr(s) == "AdmissibleSequence(k=1, i=(1, 3, 5), j=(2, 4, 6))"
    assert copy.copy(s) == pickle.loads(pickle.dumps(s)) == s
    assert s._replace(j=(2, 4, 7)) == (1, (1, 3, 5), (2, 4, 7))
    with pytest.raises(ValueError):
        s._replace(j=(1, 4, 6))  # a loop: i_1 == j_1


# Exit code and SHA-256 of stdout per invocation, recorded at commit c3aee7a:
# every subcommand, format and inner order at small n, plus rejected inputs.
GOLDEN = {
    "toric-gb --n 5 --format text --order inner=grevlex": (0, "5e1581db777cc4e1f23c6efb791dba48d020517bf196953122c2a7a06fecb165"),
    "toric-gb --n 5 --format text --order inner=lex": (0, "5e1581db777cc4e1f23c6efb791dba48d020517bf196953122c2a7a06fecb165"),
    "toric-gb --n 5 --format json --order inner=grevlex": (0, "52b64b4dc5ec951bf13fafdb69706d312622ad37e5ae4fe6b04ab2c26644d8c7"),
    "toric-gb --n 5 --format json --order inner=lex": (0, "69ff201a7ee1b4b19ca8999e4e5128c192f51f0ae672e89aa334c94d54d439e8"),
    "toric-gb --n 5 --format algebra-script --order inner=grevlex": (0, "22e44bdb448694923ba2f3eae05c7cb66a510f3fc8ad383b6c5472eec2ae4d97"),
    "toric-gb --n 5 --format algebra-script --order inner=lex": (0, "6b43c32dba32470d53d4fea4adb3c252430bec7650a9b7ed5d7da9fc11503821"),
    "initial-ideal --n 5 --format text --order inner=grevlex": (0, "abed7f6facb35bb11907a95e425b4a165344ee436656cde790559910119688a3"),
    "initial-ideal --n 5 --format text --order inner=lex": (0, "abed7f6facb35bb11907a95e425b4a165344ee436656cde790559910119688a3"),
    "initial-ideal --n 5 --format json --order inner=grevlex": (0, "d664567a9420505a73c50f52bc9669bb64060d4c574e82dfbc5934f3c8594a91"),
    "initial-ideal --n 5 --format json --order inner=lex": (0, "329a6f7ebb7b0dcc906682b7d84d53e0cafa237a950c8e07634ec6f5bcdd02bd"),
    "initial-ideal --n 5 --format algebra-script --order inner=grevlex": (0, "5ef00de4b172b9362ae48c4a19dea7b09400ef191e504124a7b126f1df2a8701"),
    "initial-ideal --n 5 --format algebra-script --order inner=lex": (0, "0652713628eb9cc02f59b3c0784bb752682ed8773f2f72541b91d8046c8d66f6"),
    "initial-secant --n 6 --format text --order inner=grevlex": (0, "9613485e7b7eba42bc14a6d1e3e0365905ccccfa54f97b5174a945439570219c"),
    "initial-secant --n 6 --format text --order inner=lex": (0, "9613485e7b7eba42bc14a6d1e3e0365905ccccfa54f97b5174a945439570219c"),
    "initial-secant --n 6 --format json --order inner=grevlex": (0, "8f88a4db36f8c9f1407390d8e1bbcd28d172bfdaf499794dd97b26b09bce2420"),
    "initial-secant --n 6 --format json --order inner=lex": (0, "cb69d8ffd1c77bf3ed4e0b0a7872a9f77a666a04b53ed54dee1a8cfd83158421"),
    "initial-secant --n 6 --format algebra-script --order inner=grevlex": (0, "cf1550737b5261df947423f3b27212437b3517e8cb1925cfb83136ffac61febc"),
    "initial-secant --n 6 --format algebra-script --order inner=lex": (0, "f20ed02d621ecb8da4bfe09eacfa380cef7f4daac826dc3c487ef64a50184b13"),
    "initial-symbolic --n 5 --format text --order inner=grevlex": (0, "fe3c36e8699a094240fb6458b471d58ce2e753fcd04ff49a48463e88554c053d"),
    "initial-symbolic --n 5 --format text --order inner=lex": (0, "fe3c36e8699a094240fb6458b471d58ce2e753fcd04ff49a48463e88554c053d"),
    "initial-symbolic --n 5 --format json --order inner=grevlex": (0, "4c23315271cd933afe17f6484c9b2225b5121e6f06bd414d04a07b87e90ddc62"),
    "initial-symbolic --n 5 --format json --order inner=lex": (0, "fa21654b896d849fd8eeb55c26e09194ce08783f9865516d77fc0e02806bbb8d"),
    "initial-symbolic --n 5 --format algebra-script --order inner=grevlex": (0, "e1fc4d627e67c39618b45e395be12a7764ddc39aa8a84e9ba6054b6ef58b925a"),
    "initial-symbolic --n 5 --format algebra-script --order inner=lex": (0, "ffa7870bda4549ad7ae4ea56aaa8e888f4c0ba4748211fd2dbd064a1e9719c78"),
    "secant-gb --n 6 --format text --order inner=grevlex": (0, "aead9373ec540321d57e30b793f429d13c7f1c89b9f7ad428aa73a9cc4e2b9a2"),
    "secant-gb --n 6 --format text --order inner=lex": (0, "1380744994b8c17955e73b43ba95edcf44c8c15d37944aec8fa5839ac2dfe035"),
    "secant-gb --n 6 --format json --order inner=grevlex": (0, "bb70af3a2d719c4f44f3d97acdcec997ef7135ed974b869aff0db0c0b38493ac"),
    "secant-gb --n 6 --format json --order inner=lex": (0, "8340fd7e0408fd20d9d3a86cedd04e94abdcaf8dd8880b954bd74fb5f1772f77"),
    "secant-gb --n 6 --format algebra-script --order inner=grevlex": (0, "d756493ae5791f46b8612fe7c0851e7214a2c0ccd4dab8d42f9798dd5bbd1aca"),
    "secant-gb --n 6 --format algebra-script --order inner=lex": (0, "fcd2c63aa7a976704f971059721188eddfbe8e34663f8a431e6358fea7e1714a"),
    "symbolic-gb --n 5 --format text --order inner=grevlex": (0, "4c6cc39139c68abf2eb32bf41807eaa25a523b43286a1998aab572b1010d6666"),
    "symbolic-gb --n 5 --format text --order inner=lex": (0, "bd2e4633ebeba696f3ba8f8363c83b787be88e819521c4425cd7b7b2ad812276"),
    "symbolic-gb --n 5 --format json --order inner=grevlex": (0, "1fdc341d51c02de72a599fffa8c61160002044c65dcdd618cadc6d4c815b768f"),
    "symbolic-gb --n 5 --format json --order inner=lex": (0, "e9b370d93ce20c71b2cfc393f2fed17b43ca12e4fc8ea1df9cd20a486a01f9b5"),
    "symbolic-gb --n 5 --format algebra-script --order inner=grevlex": (0, "9a7ad9a689ac756f9fe104ce55df248f920dfd8f21a1ee1db2aff25bfe668d0c"),
    "symbolic-gb --n 5 --format algebra-script --order inner=lex": (0, "e98cfd0525b4d268aa5ffa3d58bfb8ac83507a550a9e917d97a8daa8a92aeb71"),
    # n = 7 mixes binomials that share variables, so squares and merged terms
    # show up in the text and algebra-script renderers too.
    "symbolic-gb --n 7 --format text --order inner=grevlex": (0, "cd5c751d9e937b82c02abc11c2a08d20adad3881d4d49062d4f49ecc7f6e22f3"),
    "symbolic-gb --n 7 --format text --order inner=lex": (0, "244fb6984a9c66ac50b18a600f7028527f069e2884202cb001dd9c411da55c73"),
    "symbolic-gb --n 7 --format algebra-script --order inner=grevlex": (0, "ec5fc47a77babb7ce3b65279bd37fb6968e025b1768784f248107b6574d65742"),
    "symbolic-gb --n 7 --format algebra-script --order inner=lex": (0, "86382d3839dabb243e1eca88b920dbc18eca0bcdc5090513e9e5385ae074a5bd"),
    "secant-gb --n 7 --format text --order inner=grevlex": (0, "978dfffc1fbd5295d404946f7659d16a7ee91b1a60fc712fb1d4fa8fadecb2ab"),
    "secant-gb --n 7 --format text --order inner=lex": (0, "1e661ac19f017f8a4a67bb67a67509eac501f5a2f7252289f3a144bc2fb4bb83"),
    "secant-gb --n 7 --format algebra-script --order inner=grevlex": (0, "06c1fcef139b3e04c76b67c0dbf6d5a2c8bbb2139c3d2054a39a11e7c59df1d5"),
    "secant-gb --n 7 --format algebra-script --order inner=lex": (0, "37877e7fbeca9b30abb97d4c83311885b2e7dcfe2656b367be7d020b2eecbe81"),
    "master-poly --i 1,3,5 --j 2,4,6 --format text --order inner=grevlex": (0, "ed852890b8b153e3e1f2c185fa66db661bb8d040493f937a50527afbb65a7c83"),
    "master-poly --i 1,3,5 --j 2,4,6 --format text --order inner=lex": (0, "78aed070211e12e84caba6d300fe8e890ea89a9e9893d37dc3cdecec4b743e06"),
    "master-poly --i 1,3,5 --j 2,4,6 --format json --order inner=grevlex": (0, "6be31ca2211ed05c1ec95167ba9755fd1176950eb75347673c0a4f8802a5aecc"),
    "master-poly --i 1,3,5 --j 2,4,6 --format json --order inner=lex": (0, "9d39b8e05b5348f3337197eeb665aaad7a124882ddb5cdd0b173e56665dc3bc6"),
    "master-poly --i 1,3,5 --j 2,4,6 --format algebra-script --order inner=grevlex": (0, "aae5c2c6a46267231cfcca4c4b17c26524a78b9f0982deb22a9d736d1e0733cc"),
    "master-poly --i 1,3,5 --j 2,4,6 --format algebra-script --order inner=lex": (0, "889243522fb850311ed65247a2478c65592029fb9fa6c293e85b038efe631676"),
    # Recorded at commit 28b89a4: a master under an order built for a larger n
    # than its sequence needs, the degenerate pentad, and the initial ideal
    # at n = 7 as JSON.
    "master-poly --i 1,3,5 --j 2,4,6 --n 8 --format text --order inner=grevlex": (0, "78aed070211e12e84caba6d300fe8e890ea89a9e9893d37dc3cdecec4b743e06"),
    "master-poly --i 1,3,5 --j 2,4,6 --n 8 --format text --order inner=lex": (0, "78aed070211e12e84caba6d300fe8e890ea89a9e9893d37dc3cdecec4b743e06"),
    "master-poly --i 1,3,5 --j 2,4,6 --n 8 --format json --order inner=grevlex": (0, "b6ec542b3c9bf04d9f4ea15f736086519dc9682ed5e328cf56609a48f9caba6e"),
    "master-poly --i 1,3,5 --j 2,4,6 --n 8 --format json --order inner=lex": (0, "e72fe3b1595111649043873fab2c0f9b887436c13296ae3c185f7d0661196693"),
    "master-poly --i 1,2,3,4,5 --j 1,2,3,4,5 --format text --order inner=grevlex": (0, "36cfba33cff43e6b49a3108cb7a8f2e9a2a45d571bc6bc46b7c100c9ca622a08"),
    "master-poly --i 1,2,3,4,5 --j 1,2,3,4,5 --format text --order inner=lex": (0, "3e4806386b558952056742c03fdd87e72f130e49647633e1881ccd6f325eff5f"),
    "master-poly --i 1,2,3,4,5 --j 1,2,3,4,5 --format json --order inner=grevlex": (0, "9bb63e100322ea8ff20eab39fcdfdaa9d799f31ffa432a50cc84f0a5a0c86584"),
    "master-poly --i 1,2,3,4,5 --j 1,2,3,4,5 --format json --order inner=lex": (0, "83455247b1865c9be553ff8c81a92e8ced88cac074e514e2fc96bf7c47ca7739"),
    "initial-ideal --n 7 --format json --order inner=grevlex": (0, "8d5fe43bdc1fb47a45364b71cf69e077161493a0aaf6290a0aee46426adc9202"),
    "initial-ideal --n 7 --format json --order inner=lex": (0, "6937563abc7502f39f417ae038931ee1246bbee045332d73f2528486e469ed99"),
    "odd-cycles --n 6 --format text": (0, "9613485e7b7eba42bc14a6d1e3e0365905ccccfa54f97b5174a945439570219c"),
    "admissible --n 6 --format text": (0, "aecf4c48832131263f4550e6997d5d39c67875a3a6a49f64aa371e147ba74d23"),
    "reproduce --format text": (0, "33a5eb15fc58296a7d0f5826c83c2f378c7e555c7ac417274d1200da96300e18"),
    "verify membership --n 5 --format text --order inner=grevlex": (0, "c4a2ff59c8ab7fc80e56f92abb97a18246069fd4301a8f52c1050206e4c216fe"),
    "verify prolongation --n 5 --format text --order inner=grevlex": (0, "c4a2ff59c8ab7fc80e56f92abb97a18246069fd4301a8f52c1050206e4c216fe"),
    "verify leading-term --n 5 --format text --order inner=grevlex": (0, "c4a2ff59c8ab7fc80e56f92abb97a18246069fd4301a8f52c1050206e4c216fe"),
    "verify buchberger --n 5 --kind toric --format text --order inner=grevlex": (0, "4ccba36505bf82381197be2b69767320db25f161942e852faaabda39acb882fc"),
    "verify buchberger --n 5 --kind secant --format text --order inner=grevlex": (0, "f0c489a19583837da2991c80fbd6635a1de00ad2281a9a04996d9c3f0248e366"),
    "verify buchberger --n 5 --kind symbolic --format text --order inner=grevlex": (0, "16c4c6fff04f3ded049564dec1530b812a6d76d044dd82a764c55832a086fc6d"),
    "verify delightful --n 5 --kind secant --format text --order inner=grevlex": (0, "41d097a7aa4831986a0179ddada93fec984da4d6046be751dd65fa48e70d432c"),
    "verify delightful --n 5 --kind secant --buchberger --format text --order inner=grevlex": (0, "91f6755b9af369de2eac6f5343b251450b40cba71264de5b3cde2ab337b990b9"),
    "verify delightful --n 5 --kind symbolic --format text --order inner=grevlex": (0, "d3f5a27c8be44bf5c63b6f4e2ebc246004fe29446c123ad311574750773a5045"),
    "verify delightful --n 5 --kind symbolic --buchberger --format text --order inner=grevlex": (0, "5d6bafee8f26a172f9506915681a6f961bc9b4db1d49d2c12cef66e3d4a235e0"),
    "verify membership --n 5 --format text --order inner=lex": (0, "c4a2ff59c8ab7fc80e56f92abb97a18246069fd4301a8f52c1050206e4c216fe"),
    "verify prolongation --n 5 --format text --order inner=lex": (0, "c4a2ff59c8ab7fc80e56f92abb97a18246069fd4301a8f52c1050206e4c216fe"),
    "verify leading-term --n 5 --format text --order inner=lex": (0, "c4a2ff59c8ab7fc80e56f92abb97a18246069fd4301a8f52c1050206e4c216fe"),
    "verify buchberger --n 5 --kind toric --format text --order inner=lex": (0, "336f43a9d1119df1880f7c464c6940e4105d41000925b698351e333d514182cb"),
    "verify buchberger --n 5 --kind secant --format text --order inner=lex": (0, "7d2305c51053b8161f2654cb9a5a89ffa0de54aef3d08fbb7130811a08992001"),
    "verify buchberger --n 5 --kind symbolic --format text --order inner=lex": (0, "87e66b4f9d8b073b682f00376435e61c9610d6a00f9679f9cc44bb0c5b186d0f"),
    "verify delightful --n 5 --kind secant --format text --order inner=lex": (0, "1348cd1471d674a064d5b3611d34a8a8a111e1522df6bf94858fc06b738c7704"),
    "verify delightful --n 5 --kind secant --buchberger --format text --order inner=lex": (0, "55fb527bac38ae0d276194ebc9629c823a8ef8ddd153b53ccb41bce67264b0cd"),
    "verify delightful --n 5 --kind symbolic --format text --order inner=lex": (0, "77f23961440af6f5d65084cb1d219aa8a4fc05c4d95b2eeb965d0fed86a0440d"),
    "verify delightful --n 5 --kind symbolic --buchberger --format text --order inner=lex": (0, "31431d58031e96d4d8970074f5929b16a35f9f939f060ad78f17ae31118e4fe0"),
    "odd-cycles --n 6 --format json": (0, "55bee05096dbabe9a5acc48231d17101e1a619abaf466909c3da83694c331162"),
    "admissible --n 6 --format json": (0, "cfbf48f06d5d4c9c45345ef29b6ab3a34b9542621015d377c1ff5f78c89bcde1"),
    "reproduce --format json": (0, "33cd842b43713a61c6591785d5e6413d6c240cfa309aaa7c78d9ceb0aa17b26e"),
    "verify membership --n 5 --format json --order inner=grevlex": (0, "ded50d2e9db74bc8167c1ad99474675449bed6bd20e4df125b4504f3bd376dfb"),
    "verify prolongation --n 5 --format json --order inner=grevlex": (0, "0fe06c187c2526cd3a2709c41511a9f26c1d1d0c127378613305728b164cb6c0"),
    "verify leading-term --n 5 --format json --order inner=grevlex": (0, "2d6d31e7cdecea0fab0722555cc048c153c3a723e8d767f6de1101d8fd1cb838"),
    "verify buchberger --n 5 --kind toric --format json --order inner=grevlex": (0, "6b2b11e3a47af7daa10b5dffe8e347fbe2e230aadc601219526228736c143347"),
    "verify buchberger --n 5 --kind secant --format json --order inner=grevlex": (0, "76262e53feac2ea85c7f229c19028bc9bf7305055514fef549ca9c76189dc956"),
    "verify buchberger --n 5 --kind symbolic --format json --order inner=grevlex": (0, "04a2959a9444d47506033ee4eb7a1b9c2547203a0383fa04ea5324c06fdea648"),
    "verify delightful --n 5 --kind secant --format json --order inner=grevlex": (0, "9dd0a651aeb2020a242738a2ecef3690e597f671ad382cd3b458b5f05173961c"),
    "verify delightful --n 5 --kind secant --buchberger --format json --order inner=grevlex": (0, "55d46cc83ed7a48a1291fc33baccdd7abddbae85f16feebc8af9288c39d110d3"),
    "verify delightful --n 5 --kind symbolic --format json --order inner=grevlex": (0, "67422ae534df8d80df976ba36b7f378b38b2ba286f70702c4a1771ce15dcad5a"),
    "verify delightful --n 5 --kind symbolic --buchberger --format json --order inner=grevlex": (0, "cf21f55ad7c30f748d477b6f8225dad2daa1cf11969100f93cdfeda3a587a1b4"),
    "verify membership --n 5 --format json --order inner=lex": (0, "c17619c044305291f87dc3443ad387ff93744d1ad87652bd06f115bc3ae586af"),
    "verify prolongation --n 5 --format json --order inner=lex": (0, "1c5ce90b3f1f2159b8747a21d74a287e6446ee4f3f6987d5f8453976ad07553e"),
    "verify leading-term --n 5 --format json --order inner=lex": (0, "55a5b08107b2e56294dc47808526010d951377428cb4bdf456631359295823d3"),
    "verify buchberger --n 5 --kind toric --format json --order inner=lex": (0, "eb75d98bc553f6f07d474b1df72f82d6f5bdca619dd1c7a4970ce2c62c322572"),
    "verify buchberger --n 5 --kind secant --format json --order inner=lex": (0, "08ef85349863e3a906263f7ff257904dba32442ba8248b0e98e74c64e420cc81"),
    "verify buchberger --n 5 --kind symbolic --format json --order inner=lex": (0, "c49c7f5bd3cf52ebd377f2c0db915b051ce2e64176dab38b73819f0facb97e14"),
    "verify delightful --n 5 --kind secant --format json --order inner=lex": (0, "06a42d0caa987de068e71ce7129e17d065f5debec2edc1e35084f14f4ba0fab0"),
    "verify delightful --n 5 --kind secant --buchberger --format json --order inner=lex": (0, "c6b31e0e443e6a19a8976e812965d9a5a65baf5f9681fbb525b2585c4dc8e741"),
    "verify delightful --n 5 --kind symbolic --format json --order inner=lex": (0, "dd8e2be3c7fbc3a2dc475923088d2248540cf7e5177782d696bd7acc0f464280"),
    "verify delightful --n 5 --kind symbolic --buchberger --format json --order inner=lex": (0, "42e434fa47ea56bd8fb9ba48e644b4ab4b0b91073b198a25c4ed64ada85d7a73"),
    "secant-gb --n 9": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify delightful --n 3 --kind secant": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify buchberger --n 3 --kind symbolic": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "initial-secant --n 6 --max-len 4": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "admissible --n 6 --k 0": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "toric-gb --n 2": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify membership --n 5 --i 1,3,5 --j 2,4,6": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_golden_output(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(command.split())
    assert (code, hashlib.sha256(out.getvalue().encode()).hexdigest()) == GOLDEN[command]


# Emission, the prolongation sweep and the secant S-pair sweep past GOLDEN's
# n <= 6, against the benchmark's digests.
REFERENCE_DIGESTS = json.loads((ROOT / "perfbench" / "reference.json").read_text())["digests"]


def _stdout_digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == EXIT_OK
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("inner", ["grevlex", "lex"])
@pytest.mark.parametrize("command", ["secant-gb", "symbolic-gb"])
def test_n8_emission_matches_reference_digest(command, inner):
    argv = [command, "--n", "8", "--format", "json", "--order", f"inner={inner}"]
    assert _stdout_digest(argv) == REFERENCE_DIGESTS[" ".join(argv)]


@pytest.mark.parametrize("inner", ["grevlex", "lex"])
def test_prolongation_sweep_matches_reference_digest(inner):
    argv = ["verify", "prolongation", "--n", "7", "--order", f"inner={inner}"]
    assert _stdout_digest(argv) == REFERENCE_DIGESTS[" ".join(argv)]


@pytest.mark.parametrize("inner", ["grevlex", "lex"])
def test_secant_n7_spair_sweep_matches_reference_digest(inner):
    argv = ["verify", "buchberger", "--n", "7", "--kind", "secant", "--allow-large"]
    argv += ["--format", "json", "--order", f"inner={inner}"]
    assert _stdout_digest(argv) == REFERENCE_DIGESTS[" ".join(argv)]


def _written_rows(generators):
    """The rows of each generator of a JSON document's "generators" list, as
    (coefficient, factors) pairs in the order written."""
    return [
        [(t["coeff"], tuple(((v, a, b), e) for v, a, b, e in t["monomial"])) for t in g["terms"]]
        for g in generators
    ]


@pytest.mark.parametrize("inner", ["grevlex", "lex"])
def test_spair_leg_reads_the_rows_symbolic_gb_writes(monkeypatch, inner):
    # One builder: the divider reads each generator as the very rows the
    # writer writes, in the same order.
    read = []
    init = groebner._Divider.__init__

    def spy(self, packing, rows):
        rows = list(rows)
        read.append(rows)
        init(self, packing, rows)

    monkeypatch.setattr(groebner._Divider, "__init__", spy)
    order = ["--order", f"inner={inner}"]
    assert invoke("verify", "buchberger", "--n", "6", "--kind", "symbolic", *order).code == EXIT_OK
    written = json.loads(invoke("symbolic-gb", "--n", "6", "--format", "json", *order).stdout)
    assert read == [_written_rows(written["generators"])]


# Exit code and SHA-256 of stdout of failing certificates: secant n = 6 with
# its last generator, a minor, flipped as in
# test_buchberger_names_failing_pairs_by_generator.  Every GOLDEN
# certificate passes, so these hold the witnesses' bytes.
FAILING_GOLDEN = {
    "verify buchberger --n 6 --kind secant --format text":
        (1, "b902d979869a971961e813e77f02d2c4a7147bc28b559a60d7d98fcc7adcbc1d"),
    "verify buchberger --n 6 --kind secant --format json":
        (1, "39ce5662842fa3c9ffb972e59c7f5f85cd2945ea53c9d19fde1704c94effcbf3"),
    "verify delightful --n 6 --kind secant --buchberger --format text":
        (1, "a2223602dd6a42cbe37b93904ce9bc72a8ace7c2de10764352d156518beaf7f3"),
    "verify delightful --n 6 --kind secant --buchberger --format json":
        (1, "b8d929d7a566db5595b582e2913cd3a6869924bd530dd909be017771ffe2ba4b"),
}


@pytest.mark.parametrize("threads, forked", [("1", []), ("2", [2])])
@pytest.mark.parametrize("command", list(FAILING_GOLDEN))
def test_failing_certificate_output(command, threads, forked, workers_of_two, monkeypatch):
    # One digest whether the rows are reduced serially or on two forked
    # workers, and one wall-time line for the one S-pair leg.
    labels = list(groebner.candidate_basis(6, "secant"))
    (g,) = label_polynomials(6, labels[-1:])
    substitute_generators(monkeypatch, {labels[-1]: flip_lowest_tail(g, CircularTermOrder(6))})
    res = invoke(*command.split(), "--threads", threads)
    assert (res.code, hashlib.sha256(res.stdout.encode()).hexdigest()) == FAILING_GOLDEN[command]
    assert re.fullmatch(r"s-pair wall time: \d+\.\d\ds\n", res.stderr)
    assert workers_of_two == forked


def test_src_holds_no_polynomial_form():
    # Rows are the only polynomial form in the engine: no Polynomial class,
    # import or annotation is left under src/, so no certification can build
    # a product polynomial.
    for path in sorted((ROOT / "src" / "hypersecant").glob("*.py")):
        assert not re.search(r"\bPolynomial\b", path.read_text()), path.name


def test_threads_never_start_more_workers_than_usable_cpus(workers_of_two):
    argv = ["verify", "buchberger", "--n", "7", "--kind", "secant", "--allow-large"]
    argv += ["--format", "json", "--order", "inner=grevlex"]
    assert _stdout_digest(argv + ["--threads", "100000"]) == REFERENCE_DIGESTS[" ".join(argv)]
    assert workers_of_two == [2]


def test_dead_worker_is_internal_error():
    """A worker that dies makes the command exit 3, in bounded time, though
    the other worker would sleep 30 s on each of its rows."""
    script = forking_sweep(dying_row()) + (
        "started = time.perf_counter()\n"
        "code = cli.main(['verify', 'buchberger', '--n', '6', '--kind', 'secant', '--threads', '2'])\n"
        "print('done in 10 s:', time.perf_counter() - started < 10, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    proc = run_script(script)
    assert proc.returncode == EXIT_INTERNAL
    assert re.search(r"^RuntimeError: S-pair worker \d+ exited with code 1$", proc.stderr, re.M), proc.stderr
    assert proc.stderr.endswith("done in 10 s: True\n")
    assert proc.stdout == ""


def test_raising_worker_shows_its_error():
    """A worker whose row raises exits 3 like a dead one, and stderr shows
    the worker's own traceback before the command's."""
    script = forking_sweep("if i == 0:\n    raise MemoryError('row 0')\ntime.sleep(30)") + (
        "sys.exit(cli.main(['verify', 'buchberger', '--n', '6', '--kind', 'secant', '--threads', '2']))\n"
    )
    proc = run_script(script)
    assert proc.returncode == EXIT_INTERNAL
    worker, command = proc.stderr.split("\nMemoryError: row 0\n")
    assert worker.startswith("Traceback (most recent call last):\n"), proc.stderr
    assert re.search(r"^RuntimeError: S-pair worker \d+ exited with code 1$", command, re.M), proc.stderr
    assert proc.stdout == ""


def test_forked_sweep_loads_no_executor():
    """A forking sweep loads neither multiprocessing nor concurrent.futures."""
    script = forking_sweep() + (
        "forks = []\n"
        "os.register_at_fork(before=lambda: forks.append(1))\n"
        "code = cli.main(['verify', 'buchberger', '--n', '6', '--kind', 'secant', '--threads', '2'])\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent'))\n"
        "print(code, len(forks), loaded)\n"
    )
    proc = run_script(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("\nPASS\n0 2 []\n"), proc.stdout


# Tracer targets that left src/ on purpose: the two basis-list wrappers are
# deleted, since every consumer streams groebner.generators, and the two poly
# functions are test oracles in tests/conftest.py.  Their metrics read 0 until
# the benchmark drops or retargets them.
RETIRED_TRACER_TARGETS = [
    "hypersecant.groebner.secant_gb",
    "hypersecant.groebner.symbolic_square_gb",
    "hypersecant.poly.substitute_rank",
    "hypersecant.poly.partial_derivative",
    "hypersecant.master.master_polynomial",
    "hypersecant.order.CircularTermOrder.leading_term",
]


def _benchmark_tracer():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    return tracer_module.Tracer(lambda: 0)


def test_tracer_targets_resolve():
    """Every function the benchmark tracer wraps still exists under src/,
    apart from the retired targets, which the tracer reports as missing."""
    tracer = _benchmark_tracer()
    try:
        tracer.install()
        assert tracer.missing == RETIRED_TRACER_TARGETS
    finally:
        tracer.uninstall()


def test_tracer_reads_the_spair_counters():
    """The benchmark tracer's buchberger_verify span carries the counters of
    the leg it returns."""
    tracer = _benchmark_tracer()
    try:
        tracer.install()
        res = invoke("verify", "buchberger", "--n", "5", "--kind", "toric")
    finally:
        tracer.uninstall()
    assert res.code == EXIT_OK
    (attrs,) = [span[5] for span in tracer.spans if span[2] == "groebner.buchberger_verify"]
    counters = {k: attrs[k] for k in ("count", "skipped_coprime", "reduced", "max_terms")}
    assert counters == {"count": 45, "skipped_coprime": 30, "reduced": 15, "max_terms": 2}


# Names that left src/, each under the module it left: deleted wrappers and
# helpers, and test-only API that lives in tests/conftest.py now.  A dotted
# name is a class attribute: a method that left the class.
REMOVED_NAMES = {
    "cli": ["RunResult", "monomial_from_json", "polynomial_from_json", "run"],
    "fixtures": ["reference_polynomial"],
    "groebner": [
        "GroebnerCertificate.failures",
        "GroebnerCertificate.spair_stats",
        "SPairStats.wall_time",
        "_Divider.verify_pairs",
        "_Labels.__getitem__",
        "_Labels.head",
        "_WORKER_CTX",
        "_label_degree",
        "_packed_terms",
        "_row_chunks",
        "_row_pairs",
        "_verify_row",
        "_worker_chunk",
        "_worker_init",
        "antidiagonal_monomial",
        "generators",
        "nested_triple_monomials",
        "off_diagonal_minor",
        "reduce",
        "secant_gb",
        "symbolic_square_gb",
        "symbolic_square_identity_holds",
    ],
    "hypersimplex": [
        "BinomialGenerator.polynomial",
        "MonomialIdeal._fields",
        "MonomialIdeal.contains",
        "MonomialIdeal.is_empty",
        "MonomialIdeal.keys",
        "_rows",
        "toric_gb_polynomials",
    ],
    "master": [
        "Letter",
        "PairingInvolution",
        "_letters",
        "_order",
        "_position",
        "base_involution",
        "crossing_number",
        "master_polynomial",
        "verify_leading_term",
        "verify_membership",
    ],
    "noncrossing": [
        "AdmissibleSequence.wraps",
        "NoncrossingGraph.adjacent",
        "NoncrossingGraph.degree",
        "NoncrossingGraph.index_of",
        "NoncrossingGraph.neighbors",
        "build_graph",
    ],
    "order": [
        "CircularTermOrder.block_count",
        "CircularTermOrder.compare",
        "CircularTermOrder.leading_monomial",
        "CircularTermOrder.leading_term",
        "CircularTermOrder.rows",
        "CircularTermOrder.sort_key",
        "_Packing.polynomial",
        "_Packing.unpack",
        "both_inner_orders",
    ],
    "poly": [
        "Monomial",
        "Polynomial",
        "_FACTOR_RE",
        "canonical_key",
        "format_monomial",
        "format_polynomial",
        "param_t",
        "param_u",
        "parse_monomial",
        "parse_polynomial",
    ],
}


@pytest.mark.parametrize("module", sorted(REMOVED_NAMES))
def test_removed_names_stay_out_of_the_package(module):
    owner = importlib.import_module(f"hypersecant.{module}")
    for name in REMOVED_NAMES[module]:
        cls, _, attr = name.rpartition(".")
        if cls:
            assert not hasattr(getattr(owner, cls), attr), f"hypersecant.{module}.{name}"
        else:
            assert not hasattr(hypersecant, name), name
            assert not hasattr(owner, name), f"hypersecant.{module}.{name}"
