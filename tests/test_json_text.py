"""The CLI writes generator arrays straight to text.  That text must equal
json.dumps(..., indent=2) of the dict form kept in conftest, byte for byte.
Polynomials reach the renderer as their rows, CircularTermOrder.rows."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypersecant import (
    BinomialGenerator,
    CircularTermOrder,
    NoncrossingGraph,
    all_admissible_sequences,
    edge_var,
    initial_edge_ideal,
    secant_of_edge_ideal,
    symbolic_square_of_edge_ideal,
    toric_gb,
)
from hypersecant.cli import EXIT_OK, _JsonText, _json_document, main
from hypersecant.noncrossing import odd_floor

from conftest import (
    Polynomial,
    candidate_polynomials,
    edges_for,
    json_text,
    master_polynomial,
    monomial,
    monomial_to_json,
    order_rows,
    param_t,
    param_u,
    polynomial_to_json,
)

EDGE_VARS = [edge_var(a, b) for a, b in edges_for(6)]
ALL_VARS = EDGE_VARS + [f(i) for f in (param_t, param_u) for i in range(1, 5)]
BIG = 2**70
INNERS = ("grevlex", "lex")


def monomials(variables):
    return st.lists(
        st.tuples(st.sampled_from(variables), st.integers(1, 3)), max_size=4
    ).map(monomial)


def polynomials(variables):
    coeff = st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG))
    return st.lists(st.tuples(monomials(variables), coeff), max_size=5).map(Polynomial)


# Every printed polynomial is in the edge variables and sorts by the order's key.
POLYS = polynomials(EDGE_VARS)
ZERO = Polynomial.zero()
CONSTANT = Polynomial.constant(-7)
# Coefficients past 2**63, a constant term, terms stored smallest first, and
# x12*x34 above x13*x24, which the canonical order ranks the other way.
WIDE = Polynomial([
    ((), 2**63 + 1),
    (monomial({edge_var(1, 3): 1, edge_var(2, 4): 1}), -BIG - 1),
    (monomial({edge_var(1, 2): 1, edge_var(3, 4): 1}), BIG),
    (monomial({edge_var(1, 2): 2, edge_var(2, 3): 1}), 5),
])


def header(order, count):
    return {"command": "secant-gb", "n": 6, "order": order.descriptor(), "count": count}


@settings(max_examples=60, deadline=None)
@given(polys=st.lists(POLYS, max_size=4), inner=st.sampled_from(INNERS))
@example(polys=[], inner="grevlex")
@example(polys=[ZERO, CONSTANT, WIDE], inner="lex")
def test_polynomial_array_matches_oracle(polys, inner):
    order = CircularTermOrder(6, inner)
    text = _JsonText()
    rows = [order_rows(order, p) for p in polys]
    got = "".join(_json_document(header(order, len(polys)), "generators", text.array(rows, text.polynomial)))
    expected = {**header(order, len(polys)), "generators": [polynomial_to_json(p, order) for p in polys]}
    assert got == json_text(expected)


@settings(max_examples=60, deadline=None)
@given(p=POLYS, inner=st.sampled_from(INNERS))
@example(p=ZERO, inner="grevlex")
@example(p=CONSTANT, inner="grevlex")
@example(p=WIDE, inner="lex")
def test_single_polynomial_matches_oracle(p, inner):
    order = CircularTermOrder(6, inner)
    head = {"command": "master-poly", "n": 6, "term_count": p.term_count}
    got = "".join(_json_document(head, "polynomial", [_JsonText().polynomial(order_rows(order, p), 1)]))
    assert got == json_text({**head, "polynomial": polynomial_to_json(p, order)})


@settings(max_examples=60, deadline=None)
@given(monos=st.lists(monomials(ALL_VARS), max_size=5))
@example(monos=[])
@example(monos=[()])
def test_monomial_array_matches_oracle(monos):
    order = CircularTermOrder(6)
    text = _JsonText()
    got = "".join(_json_document(header(order, len(monos)), "generators", text.array(monos, text.monomial)))
    expected = {**header(order, len(monos)), "generators": [monomial_to_json(m) for m in monos]}
    assert got == json_text(expected)


@settings(max_examples=60, deadline=None)
@given(pairs=st.lists(st.tuples(monomials(EDGE_VARS), monomials(EDGE_VARS)), max_size=4))
def test_binomial_array_matches_oracle(pairs):
    order = CircularTermOrder(6)
    gens = [BinomialGenerator(lead, trail, (1, 2, 3, 4), 1) for lead, trail in pairs]
    text = _JsonText()
    got = "".join(_json_document(header(order, len(gens)), "generators", text.array(gens, text.binomial)))
    expected = {
        **header(order, len(gens)),
        "generators": [{"lead": monomial_to_json(g.lead), "trail": monomial_to_json(g.trail)} for g in gens],
    }
    assert got == json_text(expected)


def _ideal_payload(command, n, order, ideal, extra=None):
    return {
        "command": command,
        "n": n,
        **(extra or {}),
        "order": order.descriptor(),
        "count": len(ideal),
        "degrees": list(ideal.degrees()),
        "generators": [monomial_to_json(m) for m in ideal.generators],
    }


def _basis_payload(command, n, order, polys):
    return {
        "command": command,
        "n": n,
        "order": order.descriptor(),
        "count": len(polys),
        "generators": [polynomial_to_json(p, order) for p in polys],
    }


def oracle(command, n, inner):
    """argv of a JSON build command and the payload it must print."""
    order = CircularTermOrder(n, inner)
    argv = [command, "--n", str(n), "--format", "json", "--order", f"inner={inner}"]
    if command == "initial-ideal":
        return argv, _ideal_payload(command, n, order, initial_edge_ideal(n))
    if command == "initial-secant":
        max_len = odd_floor(n)
        ideal = secant_of_edge_ideal(NoncrossingGraph(n), max_len)
        return argv, _ideal_payload(command, n, order, ideal, {"max_len": max_len})
    if command == "initial-symbolic":
        return argv, _ideal_payload(command, n, order, symbolic_square_of_edge_ideal(NoncrossingGraph(n)))
    if command == "secant-gb":
        return argv, _basis_payload(command, n, order, candidate_polynomials(n, "secant"))
    if command == "symbolic-gb":
        return argv, _basis_payload(command, n, order, candidate_polynomials(n, "symbolic-square"))
    if command == "toric-gb":
        gens = [{"lead": monomial_to_json(g.lead), "trail": monomial_to_json(g.trail)} for g in toric_gb(n)]
        head = {"command": command, "n": n, "order": order.descriptor(), "count": len(gens)}
        return argv, {**head, "generators": gens}
    seq = all_admissible_sequences(n)[-1]
    poly = master_polynomial(seq)
    argv += ["--i", ",".join(map(str, seq.i)), "--j", ",".join(map(str, seq.j))]
    return argv, {
        "command": command,
        "n": n,
        "order": order.descriptor(),
        "k": seq.k,
        "i": list(seq.i),
        "j": list(seq.j),
        "term_count": poly.term_count,
        "polynomial": polynomial_to_json(poly, order),
    }


BUILD_COMMANDS = (
    "initial-ideal", "initial-secant", "initial-symbolic", "secant-gb", "symbolic-gb", "toric-gb",
    "master-poly",
)
# No admissible sequence fits in n = 4, so master-poly starts at 5.
BUILD_CASES = [
    (c, n) for c in BUILD_COMMANDS for n in range(4, 8) if (c, n) != ("master-poly", 4)
]


@pytest.mark.parametrize("inner", INNERS)
@pytest.mark.parametrize("command,n", BUILD_CASES)
def test_build_command_prints_oracle_text(command, n, inner, tmp_path, capsys):
    argv, payload = oracle(command, n, inner)
    expected = json_text(payload)
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == expected
    target = tmp_path / "out.json"
    assert main([*argv, "--output", str(target)]) == EXIT_OK
    assert target.read_text() == expected
