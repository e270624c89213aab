"""Command line front end binding the library into reproducible workflows.

Every behavior is flag-driven; there are no config files or environment
variables, and equal invocations produce byte-identical output (timings
are reported on stderr only).  Exit codes: 0 success, 1 a requested
verification failed, 2 invalid input, out-of-range parameters or output
that cannot be written (--output, or a closed stdout), 3 an internal fault.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import time
from typing import Collection, Iterable, Iterator

from . import groebner
from .fixtures import reproduce_reference_examples
from .groebner import (
    GroebnerCertificate,
    buchberger_verify,
    candidate_basis,
    delightful_check,
    generator_rows,
)
from .hypersimplex import BinomialGenerator, MonomialIdeal, SecantClasses, toric_gb
from .master import master_terms, verify_prolongation
from .noncrossing import (
    AdmissibleSequence,
    NoncrossingGraph,
    admissible_sequences,
    all_admissible_sequences,
    cycle_monomial,
    induced_odd_cycles,
    initial_edge_ideal,
    odd_floor,
    secant_of_edge_ideal,
    symbolic_square_of_edge_ideal,
)
from .order import CircularTermOrder, INNER_ORDERS
from .poly import edge_factors, format_factors, format_rows

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


# A command's stdout: a str, or an iterable of text chunks, one generator per
# chunk for generator lists, that renders as it is read; main writes each
# chunk as it comes, so the whole document is never held.
Payload = Iterable[str] | str


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _json_list(items: list[str], depth: int) -> str:
    """A list at nesting `depth` as json.dumps(indent=2) lays it out; the
    items are already rendered at depth + 1."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    # The brackets ride on the first and last items, so the one join is the
    # only copy of a long list's text.
    edged = list(items)
    edged[0] = "[" + inner + edged[0]
    edged[-1] += "\n" + "  " * depth + "]"
    return ("," + inner).join(edged)


def _json_object(pairs: list[tuple[str, str]], depth: int) -> str:
    """A nonempty object at nesting `depth`; the values are already rendered
    at depth + 1."""
    inner = "\n" + "  " * (depth + 1)
    body = ("," + inner).join(f'"{key}": {value}' for key, value in pairs)
    return "{" + inner + body + "\n" + "  " * depth + "}"


class _FactorText(dict):
    """Memo from a (variable, exponent) factor to its JSON text at one depth:
    the variable's fields, then the exponent, ["x", a, b, e] for x[a,b]^e."""

    def __init__(self, depth: int):
        super().__init__()
        self.depth = depth

    def __missing__(self, factor) -> str:
        v, e = factor
        text = self[factor] = _json_list([json.dumps(x) for x in (*v, e)], self.depth)
        return text


class _JsonText:
    """Generators as the exact text json.dumps(..., indent=2) gives them.

    Monomials, given by their factors, polynomial rows (see order.py) and
    binomials go straight to text, with no {"coeff", "monomial"} dicts or
    factor lists in between.  Each (variable, exponent) factor is rendered
    once per depth and reused: a basis at n <= 8 has only a few dozen
    distinct factors.
    One instance serves one command.
    """

    def __init__(self):
        self._factors_at: dict = {}

    def _factors_renderer(self, depth: int):
        """The renderer of a monomial's factors at `depth`."""
        render = self._factors_at.get(depth)
        if render is None:
            factor = _FactorText(depth + 1).__getitem__
            inner = "\n" + "  " * (depth + 1)
            head, sep, tail = "[" + inner, "," + inner, "\n" + "  " * depth + "]"

            # _json_list(list(map(factor, factors)), depth), without the copies.
            def render(factors: tuple) -> str:
                return head + sep.join(map(factor, factors)) + tail if factors else "[]"

            self._factors_at[depth] = render
        return render

    def monomial(self, factors: tuple, depth: int) -> str:
        return self._factors_renderer(depth)(factors)

    def binomial(self, g: BinomialGenerator, depth: int) -> str:
        mono = self._factors_renderer(depth + 1)
        return _json_object([("lead", mono(g.lead)), ("trail", mono(g.trail))], depth)

    def polynomial(self, rows: list, depth: int) -> str:
        """{"terms": [{"coeff": c, "monomial": [...]}, ...]}, one term per row."""
        mono = self._factors_renderer(depth + 3)
        # Each term is _json_object([("coeff", ...), ("monomial", ...)], depth + 2),
        # written out because it runs once per emitted term.
        inner = "\n" + "  " * (depth + 3)
        head, mid = "{" + inner + '"coeff": ', "," + inner + '"monomial": '
        tail = "\n" + "  " * (depth + 2) + "}"
        terms = [head + str(c) + mid + mono(f) + tail for c, f in rows]
        return _json_object([("terms", _json_list(terms, depth + 1))], depth)

    def array(self, items, render) -> Iterator[str]:
        """A list of generators as the value of a top-level key: one chunk
        per item, render(item, 2) led by its separator, then the bracket."""
        lead = "["
        for g in items:
            yield lead + "\n    " + render(g, 2)
            lead = ","
        yield "[]" if lead == "[" else "\n  ]"


def _json_document(header: dict, key: str, chunks: Iterable[str]) -> Iterator[str]:
    """json.dumps({**header, key: ...}, indent=2) and a newline, in chunks:
    the header, then the given chunks of the last key's value rendered at
    depth 1, then the closing brace."""
    head = json.dumps(header, indent=2)
    yield f'{head[:-2]},\n  "{key}": '
    yield from chunks
    yield "\n}\n"


def _cas_monomial(factors: tuple) -> str:
    if not factors:
        return "1"
    parts = []
    for v, e in factors:
        name = f"x_{v[1]}_{v[2]}"
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def _cas_polynomial(rows: list) -> str:
    if not rows:
        return "0"
    parts = []
    for c, f in rows:
        if not f:
            body = str(abs(c))
        elif abs(c) == 1:
            body = _cas_monomial(f)
        else:
            body = f"{abs(c)}*{_cas_monomial(f)}"
        parts.append(("-" if c < 0 else "+") + body)
    text = " ".join(parts)
    return text[1:] if text.startswith("+") else text


def algebra_script(rows, order: CircularTermOrder) -> Iterator[str]:
    """The script of an iterable of polynomial rows in chunks: the header,
    then one generator per chunk."""
    packing = order.packing(1)
    variables = sorted((((v, 1),) for v in packing.offset), key=packing.pack, reverse=True)
    yield (
        "-- generated by hypersecant; variables listed from largest to smallest\n"
        f"-- ambient n = {order.n}, circular block order, inner = {order.descriptor()['inner']}\n"
        "variables: " + ", ".join(map(_cas_monomial, variables)) + "\n"
        "generators:\n"
    )
    sep = ""
    for r in rows:
        yield sep + _cas_polynomial(r)
        sep = ",\n"
    yield "\n"


def certificate_to_json(cert: GroebnerCertificate) -> dict:
    """The certificate's header, its legs, its verdict, then each leg's
    counters under their key; no timing, so equal runs give equal output."""
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
    for c in cert.checks:
        if c.counters is not None:
            out[c.counters.key] = c.counters._asdict()
    return out


def certificate_text(cert: GroebnerCertificate) -> str:
    lines = [
        f"n = {cert.n}  kind = {cert.kind}  order = circular/{cert.order_descriptor['inner']}  "
        f"generators = {cert.generator_count}"
    ]
    for c in cert.checks:
        status = {"pass": "PASS", "fail": "FAIL", "cited": "CITED"}[c.status]
        lines.append(f"check {c.name}: {status}")
        if c.failed and c.witness:
            lines.append(f"  witness: {json.dumps(c.witness)[:400]}")
        if c.counters is not None:
            lines.append(c.counters.line())
    lines.append("PASS" if cert.passed else "FAIL")
    return "\n".join(lines) + "\n"


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _text_lines(lines: Iterable[str]) -> Iterator[str]:
    """One chunk per line, each with its newline."""
    for line in lines:
        yield line + "\n"


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _need_n(args: argparse.Namespace, least: int = 3) -> int:
    if args.n is None:
        raise UsageError("--n is required for this command")
    if args.n < least:
        raise UsageError(f"--n must be at least {least}, got {args.n}")
    return args.n


def _check_bound(args: argparse.Namespace, value: int, bound: int, what: str, name: str = "n") -> None:
    """Refuse a value past its bound, or with --allow-large warn on stderr
    at once, before the work it sizes."""
    if value <= bound:
        return
    if not args.allow_large:
        raise UsageError(
            f"{name}={value} exceeds the desk-scale bound {bound} for {what}; pass --allow-large to override"
        )
    sys.stderr.write(f"warning: {name}={value} exceeds the desk-scale bound {bound} for {what}; continuing\n")


def _max_len(args: argparse.Namespace, n: int) -> int:
    """--max-len, by default the odd floor of n; its bound is the caller's
    to check, after n's."""
    max_len = args.max_len if args.max_len is not None else odd_floor(n)
    if max_len % 2 == 0 or max_len < 3:
        raise UsageError(f"--max-len must be odd and >= 3, got {max_len}")
    return max_len


def _kind(args: argparse.Namespace) -> str:
    return "symbolic-square" if args.kind == "symbolic" else args.kind


def _emit_monomial_ideal(args: argparse.Namespace, ideal: MonomialIdeal, order: CircularTermOrder,
                         meta: dict) -> Iterator[str]:
    if args.format == "json":
        header = {**meta, "order": order.descriptor(), "count": len(ideal), "degrees": list(ideal.degrees())}
        text = _JsonText()
        return _json_document(header, "generators", text.array(ideal.generators, text.monomial))
    if args.format == "algebra-script":
        return algebra_script(([(1, f)] for f in ideal.generators), order)
    return _text_lines(map(format_factors, ideal.generators))


def _emit_polynomials(args: argparse.Namespace, rows, count: int, order: CircularTermOrder,
                      meta: dict) -> Iterator[str]:
    """`rows` is any iterable of the rows of `count` polynomials (see
    order.py), each descending in the order, read as it is written."""
    if args.format == "json":
        header = {**meta, "order": order.descriptor(), "count": count}
        text = _JsonText()
        return _json_document(header, "generators", text.array(rows, text.polynomial))
    if args.format == "algebra-script":
        return algebra_script(rows, order)
    return _text_lines(map(format_rows, rows))


def _cmd_build(args: argparse.Namespace) -> tuple[int, Payload]:
    """The build-then-emit commands: one initial ideal or candidate basis at --n."""
    n = _need_n(args, args.least_n)
    extra = {"max_len": _max_len(args, n)} if "max_len" in args else {}
    _check_bound(args, n, SWEEP_BOUND, args.command)
    if extra:
        _check_bound(args, extra["max_len"], odd_floor(n), args.command, name="max-len")
    built = args.build(n, **extra)
    meta = {"command": args.command, "n": n, **extra}
    order = CircularTermOrder(n, args.inner)
    if isinstance(built, MonomialIdeal):
        return EXIT_OK, _emit_monomial_ideal(args, built, order, meta)
    # The labels of a candidate basis, each built as it is written.
    rows = generator_rows(n, built, order)
    return EXIT_OK, _emit_polynomials(args, rows, len(built), order, meta)


def _cmd_toric_gb(args: argparse.Namespace) -> tuple[int, Payload]:
    n = _need_n(args)
    _check_bound(args, n, SWEEP_BOUND, "toric-gb")
    gens = toric_gb(n)
    order = CircularTermOrder(n, args.inner)
    if args.format == "json":
        header = {"command": "toric-gb", "n": n, "order": order.descriptor(), "count": len(gens)}
        text = _JsonText()
        return EXIT_OK, _json_document(header, "generators", text.array(gens, text.binomial))
    packing = order.packing(2)
    rows = ([(c, f) for _, c, f in packing.terms(g.rows())] for g in gens)
    meta = {"command": "toric-gb", "n": n}
    return EXIT_OK, _emit_polynomials(args, rows, len(gens), order, meta)


def _cmd_odd_cycles(args: argparse.Namespace) -> tuple[int, Payload]:
    n = _need_n(args)
    max_len = _max_len(args, n)
    _check_bound(args, n, CERTIFY_BOUND, "odd-cycles")
    _check_bound(args, max_len, odd_floor(n), "odd-cycles", name="max-len")
    cycles = induced_odd_cycles(NoncrossingGraph(n), max_len)
    if args.format == "json":
        payload = {
            "command": "odd-cycles",
            "n": n,
            "max_len": max_len,
            "count": len(cycles),
            "cycles": [[[a, b] for a, b in cyc] for cyc in cycles],
        }
        return EXIT_OK, _json_dump(payload)
    lines = [format_factors(edge_factors(c)) for c in cycles]
    return EXIT_OK, _text_lines(lines)


def _cmd_admissible(args: argparse.Namespace) -> tuple[int, Payload]:
    n = _need_n(args)
    if args.k is not None and args.k < 1:
        raise UsageError(f"--k must be at least 1, got {args.k}")
    _check_bound(args, n, SWEEP_BOUND, "admissible")
    seqs = list(all_admissible_sequences(n) if args.k is None else admissible_sequences(n, args.k))
    if args.format == "json":
        payload = {
            "command": "admissible",
            "n": n,
            "count": len(seqs),
            "sequences": [s.to_json() for s in seqs],
        }
        return EXIT_OK, _json_dump(payload)
    return EXIT_OK, _text_lines(map(str, seqs))


def _sequence_from_args(args: argparse.Namespace) -> AdmissibleSequence:
    if args.i_vals is None or args.j_vals is None:
        raise UsageError("--i and --j are both required")
    try:
        return AdmissibleSequence.from_arrays(args.i_vals, args.j_vals)
    except ValueError as exc:
        raise UsageError(f"invalid admissible sequence: {exc}") from exc


def _cmd_master_poly(args: argparse.Namespace) -> tuple[int, Payload]:
    seq = _sequence_from_args(args)
    n = args.n if args.n is not None else seq.min_ambient()
    if n < seq.min_ambient():
        raise UsageError(f"--n {n} is too small for indices up to {seq.min_ambient()}")
    _check_bound(args, n, max(SWEEP_BOUND, seq.min_ambient()), "master-poly")
    _check_bound(args, seq.k, MASTER_K_BOUND, "master-poly", name="k")
    order = CircularTermOrder(n, args.inner)
    rows = master_terms(seq, order)
    if args.format == "json":
        header = {
            "command": "master-poly",
            "n": n,
            "order": order.descriptor(),
            **seq.to_json(),
            "term_count": len(rows),
        }
        text = _JsonText().polynomial(rows, 1)
        return EXIT_OK, _json_document(header, "polynomial", (text,))
    meta = {"command": "master-poly", "n": n}
    return EXIT_OK, _emit_polynomials(args, [rows], 1, order, meta)


def _cmd_verify_sequences(args: argparse.Namespace) -> tuple[int, Payload]:
    n = _need_n(args)
    # The one sequence of --i/--j, or every admissible sequence at n.
    given = [_sequence_from_args(args)] if args.i_vals is not None or args.j_vals is not None else []
    if any(s.min_ambient() > n for s in given):
        raise UsageError(f"sequence uses indices above n={n}")
    _check_bound(args, n, CERTIFY_BOUND, f"verify {args.verify_what}")
    order = CircularTermOrder(n, args.inner)
    masters = ((s, master_terms(s, order)) for s in given or all_admissible_sequences(n))
    if args.verify_what == "membership":
        # One rank-2 oracle call per relabelling class of the masters.
        member = SecantClasses(n)
        results = [(s, bool(rows) and member(rows)) for s, rows in masters]
    elif args.verify_what == "prolongation":
        results = [(s, bool(rows) and verify_prolongation(n, rows, s.k)) for s, rows in masters]
    else:
        results = [(s, bool(rows) and rows[0][1] == cycle_monomial(s)) for s, rows in masters]
    ok = all(passed for _, passed in results)
    code = EXIT_OK if ok else EXIT_FAIL
    if args.format == "json":
        payload = {
            "command": f"verify {args.verify_what}",
            "n": n,
            "order": order.descriptor(),
            "results": [{**s.to_json(), "pass": passed} for s, passed in results],
            "pass": ok,
        }
        return code, _json_dump(payload)
    lines = [("ok   " if passed else "FAIL ") + str(s) for s, passed in results]
    return code, _text_lines(lines + ["PASS" if ok else "FAIL"])


def _with_spair_leg(args: argparse.Namespace, cert: GroebnerCertificate, labels: Collection[tuple],
                    rows: Iterable[list], order: CircularTermOrder) -> GroebnerCertificate:
    """cert with the S-pair leg of the generators `rows`, named by `labels`,
    appended last; the leg's wall time goes to stderr when the sweep ends."""
    started = time.perf_counter()
    leg = buchberger_verify(rows, order, threads=args.threads, labels=labels)
    sys.stderr.write(f"s-pair wall time: {time.perf_counter() - started:.2f}s\n")
    return cert._replace(checks=cert.checks + (leg,))


def _certificate_result(args: argparse.Namespace, cert: GroebnerCertificate) -> tuple[int, Payload]:
    code = EXIT_OK if cert.passed else EXIT_FAIL
    if args.format == "json":
        return code, _json_dump(certificate_to_json(cert))
    return code, certificate_text(cert)


def _cmd_verify_buchberger(args: argparse.Namespace) -> tuple[int, Payload]:
    kind = _kind(args)
    n = _need_n(args, 3 if kind == "toric" else 4)
    _check_bound(args, n, BUCHBERGER_BOUNDS[kind], f"{kind} buchberger")
    order = CircularTermOrder(n, args.inner)
    if kind == "toric":
        binomials = toric_gb(n)
        labels = [("binomial", b.quadruple, b.family) for b in binomials]
        rows = (b.rows() for b in binomials)
    else:
        labels = candidate_basis(n, kind)
        rows = generator_rows(n, labels, order)
    cert = GroebnerCertificate(order.descriptor(), len(labels), (), n, kind)
    return _certificate_result(args, _with_spair_leg(args, cert, labels, rows, order))


def _cmd_verify_delightful(args: argparse.Namespace) -> tuple[int, Payload]:
    if args.threads is not None and not args.buchberger:
        raise UsageError("--threads needs --buchberger: only the S-pair leg runs on worker processes")
    kind = _kind(args)
    n = _need_n(args, 4)
    bound = BUCHBERGER_BOUNDS[kind] if args.buchberger else CERTIFY_BOUND
    _check_bound(args, n, bound, f"delightful {kind}")
    order = CircularTermOrder(n, args.inner)
    cert = delightful_check(n, kind, order)
    if args.buchberger:
        labels = candidate_basis(n, kind)
        cert = _with_spair_leg(args, cert, labels, generator_rows(n, labels, order), order)
    return _certificate_result(args, cert)


def _cmd_reproduce(args: argparse.Namespace) -> tuple[int, Payload]:
    report = reproduce_reference_examples()
    code = EXIT_OK if report["match"] else EXIT_FAIL
    if args.format == "json":
        return code, _json_dump({"command": "reproduce", **report})
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
    return code, _text_lines(lines)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _parse_order(text: str) -> str:
    name, _, value = text.partition("=")
    if name != "inner" or value not in INNER_ORDERS:
        raise argparse.ArgumentTypeError(
            f"--order must be inner=grevlex or inner=lex, got {text!r}"
        )
    return value


def _parse_index_list(text: str) -> tuple[int, ...]:
    """Comma-separated integers; an empty token, from a doubled, leading or
    trailing comma, is refused."""
    try:
        return tuple(int(tok) for tok in text.split(","))
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
        p.add_argument("--order", type=_parse_order, default="inner=grevlex", dest="inner",
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


def _add_threads_flag(p: argparse.ArgumentParser, what: str) -> None:
    # Default None: the sweep derives the count, and a --threads the command
    # will not read is seen.
    p.add_argument("--threads", type=_parse_threads, default=None,
                   help=f"at most this many worker processes for the {what}, which runs one "
                   f"per {groebner._PAIRS_PER_WORKER} S-pairs, up to the usable CPUs")


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
        ("initial-symbolic", 3, lambda n: symbolic_square_of_edge_ideal(NoncrossingGraph(n))),
        ("secant-gb", 4, lambda n: candidate_basis(n, "secant")),
        ("symbolic-gb", 4, lambda n: candidate_basis(n, "symbolic-square")),
    ):
        _add_command(sub, name, _cmd_build, script=True, build=build, least_n=least_n)
    p = _add_command(sub, "initial-secant", _cmd_build, script=True, least_n=3,
                     build=lambda n, max_len: secant_of_edge_ideal(NoncrossingGraph(n), max_len))
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
    _add_threads_flag(p, "S-pair sweep")
    p = _add_command(vsub, "delightful", _cmd_verify_delightful)
    p.add_argument("--kind", choices=("secant", "symbolic"), default="secant")
    p.add_argument("--buchberger", action="store_true")
    _add_threads_flag(p, "S-pair leg (needs --buchberger)")

    _add_command(sub, "reproduce", _cmd_reproduce, n=False, order=False, bounded=False)
    return parser


class _OutputError(Exception):
    """An OSError writing to --output or a closed stdout, not a fault elsewhere."""


def _write_atomically(path: str, chunks: Iterable[str]) -> None:
    """Write the chunks to a temporary file beside path, then rename it over path.

    A symbolic link is followed, so its target is replaced and the link
    stays, and a replaced file keeps its mode.  An existing target that is
    not a regular file, such as a FIFO or a device, is refused before any
    temporary file is made.  Readers see the old file or the whole new one;
    if anything fails, the rendering of a chunk included, the old file is
    left untouched and the temporary file is removed.  An OSError is raised
    as _OutputError: the chunks render in memory and do no I/O of their own.
    """
    path = os.path.realpath(path)
    if os.path.lexists(path) and not os.path.isfile(path):
        raise _OutputError(f"{path} is not a regular file")
    import tempfile  # only --output needs it; module level is what every command runs

    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                for chunk in chunks:
                    fh.write(chunk)
            # mkstemp creates the file 0600: keep the mode of the file being
            # replaced, or give a new one the mode open() would have.
            try:
                mode = stat.S_IMODE(os.stat(path).st_mode)
            except FileNotFoundError:
                umask = os.umask(0)
                os.umask(umask)
                mode = 0o666 & ~umask
            os.chmod(tmp, mode)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise _OutputError(exc) from exc


def _write(payload: Payload, path: str | None) -> None:
    """Write a command's payload, chunk by chunk, to stdout or to path."""
    chunks = (payload,) if isinstance(payload, str) else payload
    if path:
        _write_atomically(path, chunks)
        return
    try:
        for chunk in chunks:
            sys.stdout.write(chunk)
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # The reader left, as `| head` does: the flush at exit goes to devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise _OutputError(exc) from exc


def main(argv=None) -> int:
    """Parse argv, run the command, write its payload; return the exit code.

    Every input check runs before the first warning and before the first
    chunk, so exit 2 on bad input leaves stdout empty and stderr holding
    only its error line.  Warnings and timings go to stderr as soon as they
    are known, not after the work.  On exit 3 stdout may hold a truncated
    document, because the payload is rendered while it is written; --output
    stays all-or-nothing: its file is replaced by the whole payload or not.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        code, payload = args.handler(args)
        _write(payload, args.output)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _OutputError as exc:
        where = f"--output {args.output}" if args.output else "stdout"
        print(f"error: cannot write {where}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        import traceback  # only a fault needs it

        traceback.print_exc()
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return code


if __name__ == "__main__":
    sys.exit(main())
