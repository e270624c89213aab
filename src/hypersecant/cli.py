"""Command line front end binding the library into reproducible workflows.

Every behavior is flag-driven; there are no config files or environment
variables, and equal invocations produce byte-identical output (timings
are reported on stderr only).  Exit codes: 0 success, 1 a requested
verification failed, 2 invalid input or out-of-range parameters, 3 an
internal fault.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import traceback
from dataclasses import dataclass

from .fixtures import reproduce_reference_examples
from .groebner import (
    GroebnerCertificate,
    buchberger_verify,
    delightful_check,
    secant_gb,
    symbolic_square_gb,
)
from .hypersimplex import MonomialIdeal, initial_edge_ideal, toric_gb, toric_gb_polynomials
from .master import master_polynomial, verify_leading_term, verify_membership, verify_prolongation
from .noncrossing import (
    AdmissibleSequence,
    admissible_sequences,
    all_admissible_sequences,
    build_graph,
    induced_odd_cycles,
    odd_floor,
    secant_of_edge_ideal,
    symbolic_square_of_edge_ideal,
)
from .order import CircularTermOrder, INNER_ORDERS
from .poly import (
    Monomial,
    Polynomial,
    canonical_key,
    edge_var,
    format_monomial,
    format_polynomial,
    param_t,
    param_u,
)

EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_INTERNAL = 0, 1, 2, 3

# Desk-scale defaults; --allow-large lifts them with a warning.
SWEEP_BOUND = 8
# The certificate legs without S-pairs, and the odd cycles they enumerate.
CERTIFY_BOUND = 10
BUCHBERGER_BOUNDS = {"toric": 7, "secant": 7, "symbolic-square": 6}
# A master of length 2k+1 sums 2^(2k+1) conjugates: about 0.3 s at k = 6,
# about four times that per further k.
MASTER_K_BOUND = 6


class UsageError(Exception):
    pass


@dataclass
class RunResult:
    code: int
    stdout: str = ""
    stderr: str = ""


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def monomial_to_json(m: Monomial) -> list:
    out = []
    for v, e in m.factors:
        if v[0] == "x":
            out.append(["x", v[1], v[2], e])
        else:
            out.append([v[0], v[1], e])
    return out


def monomial_from_json(data) -> Monomial:
    factors = {}
    for entry in data:
        kind = entry[0]
        if kind == "x":
            _, a, b, e = entry
            v = edge_var(a, b)
        else:
            _, i, e = entry
            v = param_t(i) if kind == "t" else param_u(i)
        factors[v] = factors.get(v, 0) + e
    return Monomial(factors)


def _term_key(p: Polynomial, order: CircularTermOrder | None):
    """Sort key for p's terms: the order's key if p is edge-only, else canonical."""
    if order is not None and p.uses_only_edge_vars():
        return order.sort_key(p.degree)
    return canonical_key


def polynomial_to_json(p: Polynomial, order: CircularTermOrder | None = None) -> dict:
    terms = [
        {"coeff": p.coefficient(m), "monomial": monomial_to_json(m)}
        for m in sorted(p.monomials(), key=_term_key(p, order), reverse=True)
    ]
    return {"terms": terms}


def polynomial_from_json(data) -> Polynomial:
    return Polynomial(
        (monomial_from_json(t["monomial"]), t["coeff"]) for t in data["terms"]
    )


def _cas_monomial(m: Monomial) -> str:
    if m.is_one:
        return "1"
    parts = []
    for v, e in m.factors:
        name = f"x_{v[1]}_{v[2]}" if v[0] == "x" else f"{v[0]}_{v[1]}"
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def _cas_polynomial(p: Polynomial, order: CircularTermOrder | None) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for m in sorted(p.monomials(), key=_term_key(p, order), reverse=True):
        c = p.coefficient(m)
        if m.is_one:
            body = str(abs(c))
        elif abs(c) == 1:
            body = _cas_monomial(m)
        else:
            body = f"{abs(c)}*{_cas_monomial(m)}"
        parts.append(("-" if c < 0 else "+") + body)
    text = " ".join(parts)
    return text[1:] if text.startswith("+") else text


def algebra_script(polys, n: int, order: CircularTermOrder) -> str:
    one_var = [Monomial(((("x", a, b), 1),)) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    one_var.sort(key=order.sort_key(1), reverse=True)
    lines = [
        "-- generated by hypersecant; variables listed from largest to smallest",
        f"-- ambient n = {n}, circular block order, inner = {order.descriptor()['inner']}",
        "variables: " + ", ".join(_cas_monomial(m) for m in one_var),
        "generators:",
    ]
    body = ",\n".join(_cas_polynomial(p, order) for p in polys)
    return "\n".join(lines) + "\n" + body + "\n"


def certificate_to_json(cert: GroebnerCertificate) -> dict:
    out = {
        "n": cert.n,
        "kind": cert.kind,
        "order": cert.order_descriptor,
        "generators": cert.generator_count,
        "checks": [
            {
                "check": c.name,
                "status": c.status,
                "pass": c.status != "fail",
                "witness": c.witness,
            }
            for c in cert.checks
        ],
        "pass": cert.passed,
    }
    if cert.spair_stats is not None:
        s = cert.spair_stats
        # wall time deliberately omitted: stdout must be deterministic
        out["spairs"] = {
            "count": s.count,
            "skipped_coprime": s.skipped_coprime,
            "reduced": s.reduced,
            "max_terms": s.max_terms,
        }
    return out


def certificate_text(cert: GroebnerCertificate) -> str:
    lines = [
        f"n = {cert.n}  kind = {cert.kind or '-'}  order = circular/{cert.order_descriptor['inner']}  "
        f"generators = {cert.generator_count}"
    ]
    for c in cert.checks:
        status = {"pass": "PASS", "fail": "FAIL", "cited": "CITED"}[c.status]
        lines.append(f"check {c.name}: {status}")
        if c.failed and c.witness:
            lines.append(f"  witness: {json.dumps(c.witness)[:400]}")
    if cert.spair_stats is not None:
        s = cert.spair_stats
        lines.append(
            f"s-pairs: {s.count} total, {s.skipped_coprime} coprime-skipped, "
            f"{s.reduced} reduced, max working terms {s.max_terms}"
        )
    lines.append("PASS" if cert.passed else "FAIL")
    return "\n".join(lines) + "\n"


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _text_lines(lines: list[str]) -> str:
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _need_n(args: argparse.Namespace, least: int = 3) -> int:
    if args.n is None:
        raise UsageError("--n is required for this command")
    if args.n < least:
        raise UsageError(f"--n must be at least {least}, got {args.n}")
    return args.n


def _check_bound(args: argparse.Namespace, value: int, bound: int, what: str, name: str = "n") -> str:
    if value <= bound:
        return ""
    if not args.allow_large:
        raise UsageError(
            f"{name}={value} exceeds the desk-scale bound {bound} for {what}; pass --allow-large to override"
        )
    return f"warning: {name}={value} exceeds the desk-scale bound {bound} for {what}; continuing\n"


def _max_len(args: argparse.Namespace, n: int) -> tuple[int, str]:
    """--max-len (default: the odd floor of n) and the warning for passing that floor."""
    max_len = args.max_len if args.max_len is not None else odd_floor(n)
    if max_len % 2 == 0 or max_len < 3:
        raise UsageError(f"--max-len must be odd and >= 3, got {max_len}")
    return max_len, _check_bound(args, max_len, odd_floor(n), args.command, name="max-len")


def _kind(args: argparse.Namespace) -> str:
    return "symbolic-square" if args.kind == "symbolic" else args.kind


def _emit_monomial_ideal(args: argparse.Namespace, ideal: MonomialIdeal, n: int, meta: dict) -> str:
    order = CircularTermOrder(n, args.inner)
    if args.format == "json":
        payload = {
            **meta,
            "order": order.descriptor(),
            "count": len(ideal),
            "degrees": list(ideal.degrees()),
            "generators": [monomial_to_json(m) for m in ideal.generators],
        }
        return _json_dump(payload)
    if args.format == "algebra-script":
        return algebra_script([Polynomial.from_monomial(m) for m in ideal.generators], n, order)
    return _text_lines([format_monomial(m) for m in ideal.generators])


def _emit_polynomials(args: argparse.Namespace, polys, n: int, meta: dict) -> str:
    order = CircularTermOrder(n, args.inner)
    if args.format == "json":
        payload = {
            **meta,
            "order": order.descriptor(),
            "count": len(polys),
            "generators": [polynomial_to_json(p, order) for p in polys],
        }
        return _json_dump(payload)
    if args.format == "algebra-script":
        return algebra_script(polys, n, order)
    return _text_lines([format_polynomial(p, _term_key(p, order)) for p in polys])


def _cmd_build(args: argparse.Namespace) -> RunResult:
    """The build-then-emit commands: one initial ideal or candidate basis at --n."""
    n = _need_n(args, args.least_n)
    warn = _check_bound(args, n, SWEEP_BOUND, args.command)
    extra = {}
    if "max_len" in args:
        extra["max_len"], max_len_warn = _max_len(args, n)
        warn += max_len_warn
    built = args.build(n, **extra)
    meta = {"command": args.command, "n": n, **extra}
    emit = _emit_monomial_ideal if isinstance(built, MonomialIdeal) else _emit_polynomials
    return RunResult(EXIT_OK, emit(args, built, n, meta), warn)


def _cmd_toric_gb(args: argparse.Namespace) -> RunResult:
    n = _need_n(args)
    warn = _check_bound(args, n, SWEEP_BOUND, "toric-gb")
    gens = toric_gb(n)
    if args.format == "json":
        payload = {
            "command": "toric-gb",
            "n": n,
            "order": CircularTermOrder(n, args.inner).descriptor(),
            "count": len(gens),
            "generators": [
                {"lead": monomial_to_json(g.lead), "trail": monomial_to_json(g.trail)}
                for g in gens
            ],
        }
        return RunResult(EXIT_OK, _json_dump(payload), warn)
    meta = {"command": "toric-gb", "n": n}
    return RunResult(EXIT_OK, _emit_polynomials(args, [g.polynomial() for g in gens], n, meta), warn)


def _cmd_odd_cycles(args: argparse.Namespace) -> RunResult:
    n = _need_n(args)
    warn = _check_bound(args, n, CERTIFY_BOUND, "odd-cycles")
    max_len, max_len_warn = _max_len(args, n)
    warn += max_len_warn
    cycles = induced_odd_cycles(build_graph(n), max_len)
    if args.format == "json":
        payload = {
            "command": "odd-cycles",
            "n": n,
            "max_len": max_len,
            "count": len(cycles),
            "cycles": [[[a, b] for a, b in cyc] for cyc in cycles],
        }
        return RunResult(EXIT_OK, _json_dump(payload), warn)
    lines = [format_monomial(Monomial.from_edges(c)) for c in cycles]
    return RunResult(EXIT_OK, _text_lines(lines), warn)


def _cmd_admissible(args: argparse.Namespace) -> RunResult:
    n = _need_n(args)
    warn = _check_bound(args, n, SWEEP_BOUND, "admissible")
    if args.k is None:
        seqs = all_admissible_sequences(n)
    elif args.k < 1:
        raise UsageError(f"--k must be at least 1, got {args.k}")
    else:
        seqs = admissible_sequences(n, args.k)
    if args.format == "json":
        payload = {
            "command": "admissible",
            "n": n,
            "count": len(seqs),
            "sequences": [{"k": s.k, "i": list(s.i), "j": list(s.j)} for s in seqs],
        }
        return RunResult(EXIT_OK, _json_dump(payload), warn)
    lines = [
        f"k={s.k} i={','.join(map(str, s.i))} j={','.join(map(str, s.j))}" for s in seqs
    ]
    return RunResult(EXIT_OK, _text_lines(lines), warn)


def _sequence_from_args(args: argparse.Namespace) -> AdmissibleSequence:
    if args.i_vals is None or args.j_vals is None:
        raise UsageError("--i and --j are both required")
    try:
        return AdmissibleSequence.from_arrays(args.i_vals, args.j_vals)
    except ValueError as exc:
        raise UsageError(f"invalid admissible sequence: {exc}") from exc


def _cmd_master_poly(args: argparse.Namespace) -> RunResult:
    seq = _sequence_from_args(args)
    n = args.n if args.n is not None else max(3, seq.min_ambient())
    if n < seq.min_ambient():
        raise UsageError(f"--n {n} is too small for indices up to {seq.min_ambient()}")
    warn = _check_bound(args, n, max(SWEEP_BOUND, seq.min_ambient()), "master-poly")
    warn += _check_bound(args, seq.k, MASTER_K_BOUND, "master-poly", name="k")
    poly = master_polynomial(seq)
    if args.format == "json":
        order = CircularTermOrder(n, args.inner)
        payload = {
            "command": "master-poly",
            "n": n,
            "order": order.descriptor(),
            "k": seq.k,
            "i": list(seq.i),
            "j": list(seq.j),
            "term_count": poly.term_count,
            "polynomial": polynomial_to_json(poly, order),
        }
        return RunResult(EXIT_OK, _json_dump(payload), warn)
    return RunResult(EXIT_OK, _emit_polynomials(args, [poly], n, {"command": "master-poly", "n": n}), warn)


def _cmd_verify_sequences(args: argparse.Namespace) -> RunResult:
    n = _need_n(args)
    bound = SWEEP_BOUND if args.verify_what == "prolongation" else CERTIFY_BOUND
    warn = _check_bound(args, n, bound, f"verify {args.verify_what}")
    order = CircularTermOrder(n, args.inner)
    if args.i_vals is not None or args.j_vals is not None:
        seqs = [_sequence_from_args(args)]
    else:
        seqs = all_admissible_sequences(n)
    results = []
    for s in seqs:
        if s.min_ambient() > n:
            raise UsageError(f"sequence uses indices above n={n}")
        if args.verify_what == "membership":
            passed = verify_membership(n, s)
        elif args.verify_what == "prolongation":
            passed = verify_prolongation(n, master_polynomial(s), s.k)
        else:
            passed = verify_leading_term(n, s, order)
        results.append({"k": s.k, "i": list(s.i), "j": list(s.j), "pass": passed})
    ok = all(r["pass"] for r in results)
    code = EXIT_OK if ok else EXIT_FAIL
    if args.format == "json":
        payload = {
            "command": f"verify {args.verify_what}",
            "n": n,
            "order": order.descriptor(),
            "results": results,
            "pass": ok,
        }
        return RunResult(code, _json_dump(payload), warn)
    lines = [
        ("ok   " if r["pass"] else "FAIL ")
        + f"k={r['k']} i={','.join(map(str, r['i']))} j={','.join(map(str, r['j']))}"
        for r in results
    ]
    return RunResult(code, _text_lines(lines + ["PASS" if ok else "FAIL"]), warn)


def _certificate_result(args: argparse.Namespace, cert: GroebnerCertificate, warn: str) -> RunResult:
    if cert.spair_stats is not None:
        warn += f"s-pair wall time: {cert.spair_stats.wall_time:.2f}s\n"
    code = EXIT_OK if cert.passed else EXIT_FAIL
    if args.format == "json":
        return RunResult(code, _json_dump(certificate_to_json(cert)), warn)
    return RunResult(code, certificate_text(cert), warn)


def _cmd_verify_buchberger(args: argparse.Namespace) -> RunResult:
    kind = _kind(args)
    n = _need_n(args, 3 if kind == "toric" else 4)
    warn = _check_bound(args, n, BUCHBERGER_BOUNDS[kind], f"{kind} buchberger")
    if kind == "toric":
        gens = toric_gb_polynomials(n)
    elif kind == "secant":
        gens = secant_gb(n)
    else:
        gens = symbolic_square_gb(n)
    order = CircularTermOrder(n, args.inner)
    cert = buchberger_verify(gens, order, n=n, kind=kind, threads=args.threads)
    return _certificate_result(args, cert, warn)


def _cmd_verify_delightful(args: argparse.Namespace) -> RunResult:
    kind = _kind(args)
    n = _need_n(args, 4)
    bound = BUCHBERGER_BOUNDS[kind] if args.with_buchberger else CERTIFY_BOUND
    warn = _check_bound(args, n, bound, f"delightful {kind}")
    order = CircularTermOrder(n, args.inner)
    cert = delightful_check(n, kind, order, with_buchberger=args.with_buchberger, threads=args.threads)
    return _certificate_result(args, cert, warn)


def _cmd_reproduce(args: argparse.Namespace) -> RunResult:
    report = reproduce_reference_examples()
    code = EXIT_OK if report["match"] else EXIT_FAIL
    if args.format == "json":
        return RunResult(code, _json_dump({"command": "reproduce", **report}))
    lines = []
    for name in ("cubic", "pentad", "generic_quintic"):
        section = report[name]
        status = "ok" if section["match"] else "MISMATCH"
        lines.append(
            f"{name}: {status} (expected {section['expected_terms']} terms, "
            f"computed {section['computed_terms']})"
        )
        for mm in section.get("mismatches", []):
            lines.append(f"  {mm['monomial']}: expected {mm['expected']}, computed {mm['computed']}")
    lines.append("PASS" if report["match"] else "FAIL")
    return RunResult(code, _text_lines(lines))


def run(args: argparse.Namespace) -> RunResult:
    """Run a parsed invocation; pure apart from computation time."""
    return args.handler(args)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _parse_order(text: str) -> str:
    value = text.removeprefix("inner=")
    if value not in INNER_ORDERS:
        raise argparse.ArgumentTypeError(
            f"--order must be inner=grevlex or inner=lex, got {text!r}"
        )
    return value


def _parse_index_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated index list, got {text!r}")


def _parse_threads(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"--threads must be an integer >= 1, got {text!r}")
    return value


def _add_command(sub, name: str, handler, *, n: bool = True, order: bool = True,
                 script: bool = False, bounded: bool = True, **defaults) -> argparse.ArgumentParser:
    """A subcommand with the shared flags its handler reads."""
    # No prefix matching: a removed flag such as --all must not be read as --allow-large.
    p = sub.add_parser(name, allow_abbrev=False)
    p.set_defaults(handler=handler, **defaults)
    if n:
        p.add_argument("--n", type=int, default=None, help="ambient vertex count")
    if order:
        p.add_argument("--order", type=_parse_order, default="grevlex", dest="inner",
                       metavar="inner=grevlex|lex", help="inner order of the circular blocks")
    formats = ("text", "json", "algebra-script") if script else ("text", "json")
    p.add_argument("--format", choices=formats, default="text")
    if bounded:
        p.add_argument("--allow-large", action="store_true", help="override desk-scale bounds")
    p.add_argument("--output", default=None, help="write stdout payload to this path")
    return p


def _add_sequence_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--i", type=_parse_index_list, default=None, dest="i_vals")
    p.add_argument("--j", type=_parse_index_list, default=None, dest="j_vals")


def _add_threads_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads", type=_parse_threads, default=1,
                   help="worker processes for S-pair sweeps")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypersecant",
        description="Certified Groebner bases for the second hypersimplex, "
        "its rank-2 secant, and its symbolic square under circular orders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_command(sub, "toric-gb", _cmd_toric_gb, script=True)
    for name, least_n, build in (
        ("initial-ideal", 3, initial_edge_ideal),
        ("initial-symbolic", 3, lambda n: symbolic_square_of_edge_ideal(build_graph(n))),
        ("secant-gb", 4, secant_gb),
        ("symbolic-gb", 4, symbolic_square_gb),
    ):
        _add_command(sub, name, _cmd_build, script=True, build=build, least_n=least_n)
    p = _add_command(sub, "initial-secant", _cmd_build, script=True, least_n=3,
                     build=lambda n, max_len: secant_of_edge_ideal(build_graph(n), max_len))
    p.add_argument("--max-len", type=int, default=None)

    p = _add_command(sub, "odd-cycles", _cmd_odd_cycles, order=False)
    p.add_argument("--max-len", type=int, default=None)

    p = _add_command(sub, "admissible", _cmd_admissible, order=False)
    p.add_argument("--k", type=int, default=None)

    _add_sequence_flags(_add_command(sub, "master-poly", _cmd_master_poly, script=True))

    vsub = sub.add_parser("verify").add_subparsers(dest="verify_what", required=True)
    for name in ("membership", "prolongation", "leading-term"):
        _add_sequence_flags(_add_command(vsub, name, _cmd_verify_sequences))
    p = _add_command(vsub, "buchberger", _cmd_verify_buchberger)
    p.add_argument("--kind", choices=("toric", "secant", "symbolic"), default="toric")
    _add_threads_flag(p)
    p = _add_command(vsub, "delightful", _cmd_verify_delightful)
    p.add_argument("--kind", choices=("secant", "symbolic"), default="secant")
    p.add_argument("--buchberger", action="store_true", dest="with_buchberger")
    _add_threads_flag(p)

    _add_command(sub, "reproduce", _cmd_reproduce, n=False, order=False, bounded=False)
    return parser


def _write_atomically(path: str, text: str) -> None:
    """Write text to a temporary file beside path, then rename it over path.

    Readers see the old file or the whole new one; if anything fails, the old
    file is left untouched and the temporary file is removed.
    """
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        # mkstemp creates the file 0600; give it the mode open() would have.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        result = run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        traceback.print_exc()
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if result.stderr:
        sys.stderr.write(result.stderr)
    if args.output:
        try:
            _write_atomically(args.output, result.stdout)
        except OSError as exc:
            print(f"error: cannot write --output {args.output}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(result.stdout)
    return result.code


if __name__ == "__main__":
    sys.exit(main())
