import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypersecant.cli as cli
from hypersecant import GroebnerCertificate, Polynomial, parse_polynomial
from hypersecant.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
    polynomial_from_json,
    run,
)
from conftest import polynomial_to_json

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def invoke(*argv):
    return run(build_parser().parse_args(list(argv)))


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
        ["verify", "prolongation", "--n", "9", "--i", "1,3,5", "--j", "2,4,6"],
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
        ["verify", "prolongation", "--n", "8", "--i", "1,3,5", "--j", "2,4,6"],
    ])
    def test_size_inputs_at_their_bound_need_no_flag(self, argv):
        res = invoke(*argv)
        assert res.code == EXIT_OK
        assert res.stderr == ""

    def test_delightful_bound_is_certify_bound_without_buchberger(self, monkeypatch):
        def certificate(n, kind, order, **kwargs):
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
    "master-poly --i 1,3,5 --j 2,4,6 --format text --order inner=grevlex": (0, "ed852890b8b153e3e1f2c185fa66db661bb8d040493f937a50527afbb65a7c83"),
    "master-poly --i 1,3,5 --j 2,4,6 --format text --order inner=lex": (0, "78aed070211e12e84caba6d300fe8e890ea89a9e9893d37dc3cdecec4b743e06"),
    "master-poly --i 1,3,5 --j 2,4,6 --format json --order inner=grevlex": (0, "6be31ca2211ed05c1ec95167ba9755fd1176950eb75347673c0a4f8802a5aecc"),
    "master-poly --i 1,3,5 --j 2,4,6 --format json --order inner=lex": (0, "9d39b8e05b5348f3337197eeb665aaad7a124882ddb5cdd0b173e56665dc3bc6"),
    "master-poly --i 1,3,5 --j 2,4,6 --format algebra-script --order inner=grevlex": (0, "aae5c2c6a46267231cfcca4c4b17c26524a78b9f0982deb22a9d736d1e0733cc"),
    "master-poly --i 1,3,5 --j 2,4,6 --format algebra-script --order inner=lex": (0, "889243522fb850311ed65247a2478c65592029fb9fa6c293e85b038efe631676"),
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


# The emission commands past GOLDEN's n <= 6, against the benchmark's digests.
REFERENCE_DIGESTS = json.loads((ROOT / "perfbench" / "reference.json").read_text())["digests"]


@pytest.mark.parametrize("inner", ["grevlex", "lex"])
@pytest.mark.parametrize("command", ["secant-gb", "symbolic-gb"])
def test_n8_emission_matches_reference_digest(command, inner):
    argv = [command, "--n", "8", "--format", "json", "--order", f"inner={inner}"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == EXIT_OK
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == REFERENCE_DIGESTS[" ".join(argv)]


def test_dead_pool_worker_is_internal_error():
    """A pool worker that dies makes the command exit 3, in bounded time."""
    script = (
        "import os, sys\n"
        "from hypersecant import cli, groebner\n"
        "def die(pairs):\n"
        "    os._exit(1)\n"
        "groebner._worker_chunk = die\n"
        "sys.exit(cli.main(['verify', 'buchberger', '--n', '6', '--kind', 'secant', '--threads', '2']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        timeout=60,
    )
    assert proc.returncode == EXIT_INTERNAL
    assert "BrokenProcessPool" in proc.stderr
    assert proc.stdout == ""


def test_tracer_targets_resolve():
    """Every function the benchmark tracer wraps still exists under src/."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer(lambda: 0)
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()
