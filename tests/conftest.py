import pytest
from hypothesis import strategies as st

from hypersecant import Monomial, Polynomial, edge_var


def edges_for(n):
    return [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]


def reference_order_key(order, m):
    """The circular order as nested per-block tuples, written out independently
    of the packed weight: m1 precedes m2 iff the key of m1 is smaller.

    Blocks are the edge classes in ascending (a, b) order.  Under grevlex a
    block compares by its degree, then by its exponents negated in reverse
    variable order; under lex by its exponents.
    """
    from hypersecant import edge_class, edge_var
    from hypersecant.poly import is_edge_var

    exps = dict(m.factors)
    if any(not is_edge_var(v) or v[2] > order.n for v in exps):
        raise ValueError(f"{m} is not an edge monomial for n={order.n}")
    parts = []
    for c in range(1, order.n // 2 + 1):
        block = [edge_var(*e) for e in edges_for(order.n) if edge_class(order.n, e) == c]
        vec = tuple(exps.get(v, 0) for v in block)
        if order.inner == "grevlex":
            parts.append((sum(vec), tuple(-x for x in reversed(vec))))
        else:
            parts.append(vec)
    return tuple(parts)


def monomial_strategy(n=6, max_factors=3, max_exp=2):
    return st.lists(
        st.tuples(st.sampled_from(edges_for(n)), st.integers(1, max_exp)),
        min_size=0,
        max_size=max_factors,
    ).map(lambda fs: Monomial((edge_var(a, b), e) for (a, b), e in fs))


def polynomial_strategy(n=6, max_terms=4, max_factors=3, max_exp=2, max_coeff=4):
    term = st.tuples(
        st.integers(-max_coeff, max_coeff), monomial_strategy(n, max_factors, max_exp)
    )
    return st.lists(term, min_size=0, max_size=max_terms).map(
        lambda ts: Polynomial((m, c) for c, m in ts)
    )


@pytest.fixture(scope="session")
def graph6():
    from hypersecant import build_graph

    return build_graph(6)
