"""Command line front end binding the library into reproducible workflows.

Every behavior is flag-driven; there are no config files or environment
variables, and equal configurations produce byte-identical output (timings
are reported on stderr only).  Exit codes: 0 success, 1 a requested
verification failed, 2 invalid input or out-of-range parameters.
"""

from __future__ import annotations

import argparse
import json
import sys
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
    secant_of_edge_ideal,
    symbolic_square_of_edge_ideal,
)
from .order import CircularTermOrder, INNER_ORDERS
from .poly import (
    Monomial,
    Polynomial,
    edge_var,
    format_monomial,
    format_polynomial,
    param_t,
    param_u,
)

EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2

# Desk-scale defaults; --allow-large lifts them with a warning.
SWEEP_BOUND = 8
BUCHBERGER_BOUNDS = {"toric": 7, "secant": 7, "symbolic-square": 6}


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    """Parsed invocation; equal configs yield byte-identical stdout."""

    command: str
    n: int | None = None
    inner: str = "grevlex"
    format: str = "text"
    threads: int = 1
    allow_large: bool = False
    output: str | None = None
    max_len: int | None = None
    k: int | None = None
    i_vals: tuple[int, ...] | None = None
    j_vals: tuple[int, ...] | None = None
    kind: str | None = None
    verify_what: str | None = None
    with_buchberger: bool = False
    select_all: bool = True


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


def polynomial_to_json(p: Polynomial, order: CircularTermOrder | None = None) -> dict:
    if order is not None and p.uses_only_edge_vars():
        key = order.key
    else:
        key = lambda m: (m.degree, m.factors)
    terms = [
        {"coeff": p.coefficient(m), "monomial": monomial_to_json(m)}
        for m in sorted(p.monomials(), key=key, reverse=True)
    ]
    return {"terms": terms}


def polynomial_from_json(data) -> Polynomial:
    return Polynomial(
        (monomial_from_json(t["monomial"]), t["coeff"]) for t in data["terms"]
    )


def _poly_text(p: Polynomial, order: CircularTermOrder | None) -> str:
    if order is not None and p.uses_only_edge_vars():
        return format_polynomial(p, order.key)
    return format_polynomial(p)


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
    key = order.key if (order and p.uses_only_edge_vars()) else (lambda m: (m.degree, m.factors))
    parts = []
    for m in sorted(p.monomials(), key=key, reverse=True):
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
    one_var.sort(key=order.key, reverse=True)
    lines = [
        "-- generated by hypersecant; variables listed from largest to smallest",
        f"-- ambient n = {n}, circular block order, inner = {order.inner}",
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


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _order(config: RunConfig, n: int) -> CircularTermOrder:
    return CircularTermOrder(n, config.inner)


def _need_n(config: RunConfig) -> int:
    if config.n is None:
        raise UsageError("--n is required for this command")
    if config.n < 3:
        raise UsageError(f"--n must be at least 3, got {config.n}")
    return config.n


def _check_bound(config: RunConfig, n: int, bound: int, what: str) -> str:
    if n <= bound:
        return ""
    if not config.allow_large:
        raise UsageError(
            f"n={n} exceeds the desk-scale bound {bound} for {what}; pass --allow-large to override"
        )
    return f"warning: n={n} exceeds the desk-scale bound {bound} for {what}; continuing\n"


def _odd_floor(n: int) -> int:
    return n if n % 2 else n - 1


def _emit_monomial_ideal(config: RunConfig, ideal: MonomialIdeal, n: int, meta: dict) -> RunResult:
    order = _order(config, n)
    if config.format == "json":
        payload = {
            **meta,
            "order": order.descriptor(),
            "count": len(ideal),
            "degrees": list(ideal.degrees()),
            "generators": [monomial_to_json(m) for m in ideal.generators],
        }
        return RunResult(EXIT_OK, _json_dump(payload))
    if config.format == "algebra-script":
        return RunResult(
            EXIT_OK,
            algebra_script([Polynomial.from_monomial(m) for m in ideal.generators], n, order),
        )
    lines = [format_monomial(m) for m in ideal.generators]
    return RunResult(EXIT_OK, "\n".join(lines) + ("\n" if lines else ""))


def _emit_polynomials(config: RunConfig, polys, n: int, meta: dict) -> RunResult:
    order = _order(config, n)
    if config.format == "json":
        payload = {
            **meta,
            "order": order.descriptor(),
            "count": len(polys),
            "generators": [polynomial_to_json(p, order) for p in polys],
        }
        return RunResult(EXIT_OK, _json_dump(payload))
    if config.format == "algebra-script":
        return RunResult(EXIT_OK, algebra_script(polys, n, order))
    lines = [_poly_text(p, order) for p in polys]
    return RunResult(EXIT_OK, "\n".join(lines) + ("\n" if lines else ""))


def _cmd_toric_gb(config: RunConfig) -> RunResult:
    n = _need_n(config)
    warn = _check_bound(config, n, SWEEP_BOUND, "toric-gb")
    gens = toric_gb(n)
    order = _order(config, n)
    if config.format == "json":
        payload = {
            "command": "toric-gb",
            "n": n,
            "order": order.descriptor(),
            "count": len(gens),
            "generators": [
                {"lead": monomial_to_json(g.lead), "trail": monomial_to_json(g.trail)}
                for g in gens
            ],
        }
        return RunResult(EXIT_OK, _json_dump(payload), warn)
    res = _emit_polynomials(config, [g.polynomial() for g in gens], n, {"command": "toric-gb", "n": n})
    res.stderr = warn
    return res


def _cmd_initial_ideal(config: RunConfig) -> RunResult:
    n = _need_n(config)
    warn = _check_bound(config, n, SWEEP_BOUND, "initial-ideal")
    res = _emit_monomial_ideal(config, initial_edge_ideal(n), n, {"command": "initial-ideal", "n": n})
    res.stderr = warn
    return res


def _cmd_initial_secant(config: RunConfig) -> RunResult:
    n = _need_n(config)
    warn = _check_bound(config, n, SWEEP_BOUND, "initial-secant")
    max_len = config.max_len if config.max_len is not None else _odd_floor(n)
    ideal = secant_of_edge_ideal(build_graph(n), max_len)
    res = _emit_monomial_ideal(
        config, ideal, n, {"command": "initial-secant", "n": n, "max_len": max_len}
    )
    res.stderr = warn
    return res


def _cmd_initial_symbolic(config: RunConfig) -> RunResult:
    n = _need_n(config)
    warn = _check_bound(config, n, SWEEP_BOUND, "initial-symbolic")
    ideal = symbolic_square_of_edge_ideal(build_graph(n))
    res = _emit_monomial_ideal(config, ideal, n, {"command": "initial-symbolic", "n": n})
    res.stderr = warn
    return res


def _cmd_odd_cycles(config: RunConfig) -> RunResult:
    n = _need_n(config)
    warn = _check_bound(config, n, SWEEP_BOUND, "odd-cycles")
    max_len = config.max_len if config.max_len is not None else _odd_floor(n)
    if max_len % 2 == 0 or max_len < 3:
        raise UsageError(f"--max-len must be odd and >= 3, got {max_len}")
    cycles = induced_odd_cycles(build_graph(n), max_len)
    if config.format == "json":
        payload = {
            "command": "odd-cycles",
            "n": n,
            "max_len": max_len,
            "count": len(cycles),
            "cycles": [[[a, b] for a, b in cyc] for cyc in cycles],
        }
        return RunResult(EXIT_OK, _json_dump(payload), warn)
    lines = [format_monomial(Monomial.from_edges(c)) for c in cycles]
    return RunResult(EXIT_OK, "\n".join(lines) + ("\n" if lines else ""), warn)


def _cmd_admissible(config: RunConfig) -> RunResult:
    n = _need_n(config)
    warn = _check_bound(config, n, SWEEP_BOUND, "admissible")
    if config.k is not None:
        seqs = admissible_sequences(n, config.k)
    else:
        seqs = all_admissible_sequences(n)
    if config.format == "json":
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
    return RunResult(EXIT_OK, "\n".join(lines) + ("\n" if lines else ""), warn)


def _sequence_from_config(config: RunConfig) -> AdmissibleSequence:
    if config.i_vals is None or config.j_vals is None:
        raise UsageError("--i and --j are both required")
    try:
        return AdmissibleSequence.from_arrays(config.i_vals, config.j_vals)
    except ValueError as exc:
        raise UsageError(f"invalid admissible sequence: {exc}") from exc


def _cmd_master_poly(config: RunConfig) -> RunResult:
    seq = _sequence_from_config(config)
    n = config.n if config.n is not None else max(3, seq.min_ambient())
    if n < seq.min_ambient():
        raise UsageError(f"--n {n} is too small for indices up to {seq.min_ambient()}")
    poly = master_polynomial(seq)
    if config.format == "json":
        order = _order(config, n)
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
        return RunResult(EXIT_OK, _json_dump(payload))
    return _emit_polynomials(config, [poly], n, {"command": "master-poly", "n": n})


def _cmd_secant_gb(config: RunConfig) -> RunResult:
    n = _need_n(config)
    warn = _check_bound(config, n, SWEEP_BOUND, "secant-gb")
    if n < 4:
        raise UsageError("secant-gb requires n >= 4")
    res = _emit_polynomials(config, secant_gb(n), n, {"command": "secant-gb", "n": n})
    res.stderr = warn
    return res


def _cmd_symbolic_gb(config: RunConfig) -> RunResult:
    n = _need_n(config)
    warn = _check_bound(config, n, SWEEP_BOUND, "symbolic-gb")
    if n < 4:
        raise UsageError("symbolic-gb requires n >= 4")
    res = _emit_polynomials(config, symbolic_square_gb(n), n, {"command": "symbolic-gb", "n": n})
    res.stderr = warn
    return res


def _selected_sequences(config: RunConfig, n: int) -> list[AdmissibleSequence]:
    if config.i_vals is not None or config.j_vals is not None:
        return [_sequence_from_config(config)]
    return all_admissible_sequences(n)


def _sequence_report(results) -> tuple[bool, list[str], list[dict]]:
    ok = all(r["pass"] for r in results)
    lines = [
        ("ok   " if r["pass"] else "FAIL ")
        + f"k={r['k']} i={','.join(map(str, r['i']))} j={','.join(map(str, r['j']))}"
        for r in results
    ]
    return ok, lines, results


def _cmd_verify_sequences(config: RunConfig) -> RunResult:
    n = _need_n(config)
    warn = _check_bound(config, n, SWEEP_BOUND, f"verify {config.verify_what}")
    order = _order(config, n)
    results = []
    for s in _selected_sequences(config, n):
        if s.min_ambient() > n:
            raise UsageError(f"sequence uses indices above n={n}")
        if config.verify_what == "membership":
            passed = verify_membership(n, s)
        elif config.verify_what == "prolongation":
            passed = verify_prolongation(n, master_polynomial(s), s.k)
        else:
            passed = verify_leading_term(n, s, order)
        results.append({"k": s.k, "i": list(s.i), "j": list(s.j), "pass": passed})
    ok, lines, _ = _sequence_report(results)
    code = EXIT_OK if ok else EXIT_FAIL
    if config.format == "json":
        payload = {
            "command": f"verify {config.verify_what}",
            "n": n,
            "order": order.descriptor(),
            "results": results,
            "pass": ok,
        }
        return RunResult(code, _json_dump(payload), warn)
    summary = "PASS" if ok else "FAIL"
    return RunResult(code, "\n".join(lines + [summary]) + "\n", warn)


def _cmd_verify_buchberger(config: RunConfig) -> RunResult:
    n = _need_n(config)
    kind = config.kind or "toric"
    if kind == "symbolic":
        kind = "symbolic-square"
    if kind not in BUCHBERGER_BOUNDS:
        raise UsageError(f"--kind must be toric, secant or symbolic, got {kind!r}")
    warn = _check_bound(config, n, BUCHBERGER_BOUNDS[kind], f"{kind} buchberger")
    order = _order(config, n)
    if kind == "toric":
        gens = toric_gb_polynomials(n)
    elif kind == "secant":
        gens = secant_gb(n)
    else:
        gens = symbolic_square_gb(n)
    cert = buchberger_verify(gens, order, n=n, kind=kind, threads=config.threads)
    warn += f"s-pair wall time: {cert.spair_stats.wall_time:.2f}s\n"
    code = EXIT_OK if cert.passed else EXIT_FAIL
    if config.format == "json":
        return RunResult(code, _json_dump(certificate_to_json(cert)), warn)
    return RunResult(code, certificate_text(cert), warn)


def _cmd_verify_delightful(config: RunConfig) -> RunResult:
    n = _need_n(config)
    kind = config.kind or "secant"
    if kind == "symbolic":
        kind = "symbolic-square"
    bound = BUCHBERGER_BOUNDS.get(kind, 6) if config.with_buchberger else SWEEP_BOUND
    warn = _check_bound(config, n, bound, f"delightful {kind}")
    order = _order(config, n)
    cert = delightful_check(n, kind, order, with_buchberger=config.with_buchberger, threads=config.threads)
    if cert.spair_stats is not None:
        warn += f"s-pair wall time: {cert.spair_stats.wall_time:.2f}s\n"
    code = EXIT_OK if cert.passed else EXIT_FAIL
    if config.format == "json":
        return RunResult(code, _json_dump(certificate_to_json(cert)), warn)
    return RunResult(code, certificate_text(cert), warn)


def _cmd_reproduce(config: RunConfig) -> RunResult:
    report = reproduce_reference_examples()
    code = EXIT_OK if report["match"] else EXIT_FAIL
    if config.format == "json":
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
    return RunResult(code, "\n".join(lines) + "\n")


_COMMANDS = {
    "toric-gb": _cmd_toric_gb,
    "initial-ideal": _cmd_initial_ideal,
    "initial-secant": _cmd_initial_secant,
    "initial-symbolic": _cmd_initial_symbolic,
    "odd-cycles": _cmd_odd_cycles,
    "admissible": _cmd_admissible,
    "master-poly": _cmd_master_poly,
    "secant-gb": _cmd_secant_gb,
    "symbolic-gb": _cmd_symbolic_gb,
    "reproduce": _cmd_reproduce,
}


def run(config: RunConfig) -> RunResult:
    """Dispatch a parsed configuration; pure apart from computation time."""
    if config.command == "verify":
        if config.verify_what in ("membership", "prolongation", "leading-term"):
            return _cmd_verify_sequences(config)
        if config.verify_what == "buchberger":
            return _cmd_verify_buchberger(config)
        if config.verify_what == "delightful":
            return _cmd_verify_delightful(config)
        raise UsageError(f"unknown verify target {config.verify_what!r}")
    handler = _COMMANDS.get(config.command)
    if handler is None:
        raise UsageError(f"unknown command {config.command!r}")
    return handler(config)


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


def _add_common(p: argparse.ArgumentParser, with_n: bool = True) -> None:
    if with_n:
        p.add_argument("--n", type=int, default=None, help="ambient vertex count")
    p.add_argument("--order", type=_parse_order, default="grevlex", dest="inner",
                   metavar="inner=grevlex|lex", help="inner order of the circular blocks")
    p.add_argument("--format", choices=("text", "json", "algebra-script"), default="text")
    p.add_argument("--threads", type=int, default=1, help="worker processes for S-pair sweeps")
    p.add_argument("--allow-large", action="store_true", help="override desk-scale bounds")
    p.add_argument("--output", default=None, help="write stdout payload to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypersecant",
        description="Certified Groebner bases for the second hypersimplex, "
        "its rank-2 secant, and its symbolic square under circular orders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("toric-gb", "initial-ideal", "initial-symbolic", "secant-gb", "symbolic-gb"):
        _add_common(sub.add_parser(name))

    p = sub.add_parser("initial-secant")
    _add_common(p)
    p.add_argument("--max-len", type=int, default=None)

    p = sub.add_parser("odd-cycles")
    _add_common(p)
    p.add_argument("--max-len", type=int, default=None)

    p = sub.add_parser("admissible")
    _add_common(p)
    p.add_argument("--k", type=int, default=None)

    p = sub.add_parser("master-poly")
    _add_common(p)
    p.add_argument("--i", type=_parse_index_list, default=None, dest="i_vals")
    p.add_argument("--j", type=_parse_index_list, default=None, dest="j_vals")

    p = sub.add_parser("verify")
    vsub = p.add_subparsers(dest="verify_what", required=True)
    for name in ("membership", "prolongation", "leading-term"):
        vp = vsub.add_parser(name)
        _add_common(vp)
        vp.add_argument("--all", action="store_true", dest="select_all",
                        help="sweep every admissible sequence (default unless --i/--j given)")
        vp.add_argument("--i", type=_parse_index_list, default=None, dest="i_vals")
        vp.add_argument("--j", type=_parse_index_list, default=None, dest="j_vals")
    vp = vsub.add_parser("buchberger")
    _add_common(vp)
    vp.add_argument("--kind", choices=("toric", "secant", "symbolic"), default="toric")
    vp = vsub.add_parser("delightful")
    _add_common(vp)
    vp.add_argument("--kind", choices=("secant", "symbolic"), default="secant")
    vp.add_argument("--buchberger", action="store_true", dest="with_buchberger")

    _add_common(sub.add_parser("reproduce"), with_n=False)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        n=getattr(args, "n", None),
        inner=getattr(args, "inner", "grevlex"),
        format=getattr(args, "format", "text"),
        threads=getattr(args, "threads", 1),
        allow_large=getattr(args, "allow_large", False),
        output=getattr(args, "output", None),
        max_len=getattr(args, "max_len", None),
        k=getattr(args, "k", None),
        i_vals=getattr(args, "i_vals", None),
        j_vals=getattr(args, "j_vals", None),
        kind=getattr(args, "kind", None),
        verify_what=getattr(args, "verify_what", None),
        with_buchberger=getattr(args, "with_buchberger", False),
        select_all=getattr(args, "select_all", True),
    )


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    config = config_from_args(args)
    if config.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        result = run(config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if result.stderr:
        sys.stderr.write(result.stderr)
    if config.output:
        with open(config.output, "w") as fh:
            fh.write(result.stdout)
    else:
        sys.stdout.write(result.stdout)
    return result.code


if __name__ == "__main__":
    sys.exit(main())
