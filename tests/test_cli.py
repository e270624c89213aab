import json
import subprocess
import sys
from pathlib import Path

from hypersecant import Polynomial, parse_polynomial
from hypersecant.cli import (
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    config_from_args,
    main,
    polynomial_from_json,
    polynomial_to_json,
    run,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def invoke(*argv):
    args = build_parser().parse_args(list(argv))
    return run(config_from_args(args))


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

    def test_master_poly_rejects_bad_sequence(self):
        res_code = main(["master-poly", "--i", "1,2,5", "--j", "3,4,6"])
        assert res_code == EXIT_USAGE

    def test_odd_cycles_json(self):
        res = invoke("odd-cycles", "--n", "5", "--format", "json")
        payload = json.loads(res.stdout)
        assert payload["count"] == 1
        assert payload["cycles"] == [[[1, 2], [1, 5], [2, 3], [3, 4], [4, 5]]]

    def test_admissible_text(self):
        res = invoke("admissible", "--n", "6", "--k", "1")
        assert res.stdout.splitlines() == ["k=1 i=1,3,5 j=2,4,6", "k=1 i=2,4,6 j=3,5,1"]

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


class TestVerify:
    def test_membership_single_sequence(self):
        res = invoke("verify", "membership", "--n", "5", "--i", "1,2,3,4,5", "--j", "1,2,3,4,5")
        assert res.code == EXIT_OK
        assert res.stdout.endswith("PASS\n")

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

    def test_buchberger_threads(self):
        res = invoke("verify", "buchberger", "--n", "5", "--kind", "toric", "--threads", "2")
        assert res.code == EXIT_OK

    def test_delightful_secant_n5(self):
        res = invoke("verify", "delightful", "--n", "5", "--kind", "secant", "--buchberger")
        assert res.code == EXIT_OK
        assert res.stdout.endswith("PASS\n")
        assert "CITED" in res.stdout

    def test_delightful_secant_n6_with_buchberger(self):
        res = invoke("verify", "delightful", "--n", "6", "--kind", "secant", "--buchberger")
        assert res.code == EXIT_OK
        assert res.stdout.endswith("PASS\n")

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

    def test_threads_do_not_change_output(self):
        base = invoke("verify", "buchberger", "--n", "5", "--kind", "toric", "--format", "json")
        threaded = invoke(
            "verify", "buchberger", "--n", "5", "--kind", "toric", "--format", "json",
            "--threads", "2",
        )
        assert base.stdout == threaded.stdout

    def test_output_flag_writes_file(self, tmp_path):
        target = tmp_path / "out.json"
        code = main(["toric-gb", "--n", "4", "--format", "json", "--output", str(target)])
        assert code == EXIT_OK
        assert json.loads(target.read_text())["count"] == 2


class TestJsonRoundTrip:
    def test_polynomial_json_round_trip(self):
        from hypersecant import CircularTermOrder, secant_gb

        order = CircularTermOrder(6)
        for p in secant_gb(6):
            assert polynomial_from_json(polynomial_to_json(p, order)) == p

    def test_parameter_polynomial_round_trip(self):
        from hypersecant import edge_var, substitute_rank

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
