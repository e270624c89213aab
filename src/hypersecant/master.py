"""Signed conjugation sums over pairings: master polynomials and their checks.

The construction works on 4k+2 formal letters I_1, J_1, I_2, J_2, ...
arranged on a circle.  A base pairing matches I_l with J_{l+k-1}; the group
generated by the 2k+1 letter transpositions (I_l, J_{l-1}) acts on pairings
by conjugation, and the master polynomial is the sign-weighted sum of the
monomials of all 2^{2k+1} conjugates, specialized through the assignment
I_l -> i_l, J_l -> j_l of an admissible sequence.  master_terms reads
each conjugate's endpoints straight off the index arrays, so no pairing is
built; degenerate assignments (i_l = j_l for some l) need no special case,
their collisions cancel in the signed sum.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .hypersimplex import _validate_ambient, _variables
from .noncrossing import AdmissibleSequence
from .order import CircularTermOrder
from .poly import degree, edge_var


@lru_cache(maxsize=2)
def _conjugation_selectors(k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Per subset of the 2k+1 transpositions, each base pair's endpoint choice.

    Base pair l joins I_l and J_{l+k-1}; the transposition (I_l, J_{l-1})
    moves its first letter and (I_{l+k}, J_{l+k-1}) its second, and no other
    transposition touches it.  Pair l's choice is 4l + (first moved) +
    2 (second moved).  Subsets come in the order of increasing size, then
    combinations, each with its sign (-1)^size.  Every master of one k
    shares the table, and sweeps run shortest first, so two are kept.
    """
    length = 2 * k + 1
    out = []
    for r in range(length + 1):
        sign = -1 if r % 2 else 1
        for chosen in combinations(range(length), r):
            mask = sum(1 << l for l in chosen)
            out.append((
                tuple(4 * l + (mask >> l & 1) + 2 * (mask >> (l + k) % length & 1) for l in range(length)),
                sign,
            ))
    return tuple(out)


def master_terms(s: AdmissibleSequence, order: CircularTermOrder) -> list[tuple[int, tuple]]:
    """The rows of the master polynomial of s, descending in `order`, whose
    n must hold every index of s; they are packed in order.packing(2k+1).

    Each conjugate's monomial is read off the index arrays: a moved letter
    I_l takes the index j_{l-1}, a moved J_m the index i_{m+1}.  Each
    conjugate's edge x[a,b] adds 1 to its field of the packing, the signed
    counts are summed per packed monomial so opposite-signed collisions
    cancel, and only the survivors are unpacked.  The result is nonzero,
    homogeneous of degree 2k+1, and its coefficients are small ints.  A
    conjugate pair that joins an index to itself raises ValueError (edge_var
    rejects the loop), and so does an index above the order's n.
    """
    k, length, ii, jj = s.k, s.length, s.i, s.j
    packing = order.packing(length)
    choices = []
    for l in range(length):
        m = (l + k - 1) % length
        for b in (jj[m], ii[(m + 1) % length]):
            for a in (ii[l], jj[l - 1]):
                at = packing.offset.get(edge_var(a, b))
                if at is None:
                    raise ValueError(f"index {max(a, b)} is out of range for n={packing.n}")
                choices.append(1 << at)
    pick = choices.__getitem__
    acc: dict[int, int] = {}
    for selector, sign in _conjugation_selectors(k):
        fields = sum(map(pick, selector))
        nc = acc.get(fields, 0) + sign
        if nc:
            acc[fields] = nc
        else:
            acc.pop(fields, None)
    join, factors = packing.join, packing.factors
    terms = sorted(((join(fields), c) for fields, c in acc.items()), reverse=True)
    return [(c, factors(p)) for p, c in terms]


def verify_prolongation(n: int, rows, bound: int) -> bool:
    """All partial derivatives of order 1..bound of the homogeneous
    polynomial f with these (coefficient, factors) rows lie in the toric
    ideal, the kernel of phi: x[a,b] -> t_a*t_b over Z.

    Vanishing derivatives pass; f itself need not be a member.  Only order
    top = min(bound, deg f) is checked, and top = 0 passes: higher orders
    vanish, and for j <= top an order-(j-1) derivative g has degree
    e = deg f - j + 1 >= 1, so by Euler's identity e*g = sum_v x_v*d_v(g)
    it is in the kernel once its first derivatives, of order j, are.

    No derivative is built.  Write e_v, d_v for the exponent of v in a term
    m and in a derivative multiset D.  Then

        d^D f = sum over the terms c_m*m with D | m of c_m*w(m,D)*m/D,
        w(m,D) = prod_v e_v!/(e_v - d_v)!,

    and phi(m/D) = phi(m)/phi(D), where phi(D) is common to every term.  So
    d^D f lies in the toric ideal iff, for every image K, the sum of
    c_m*w(m,D) over the terms with D | m and phi(m) = K is zero.  Dividing
    w(m,D) by prod_v d_v!, which depends on D alone, leaves
    prod_v C(e_v, d_v): the number of combinations of m's factors, listed
    with repeats, that make up D.  So each term adds c_m once per
    combination.  phi(m) is packed with a field per vertex and D with a
    field per edge of f; no vertex degree and no d_v exceeds deg f, so no
    field carries.
    """
    degrees = {degree(f) for _, f in rows}
    if len(degrees) > 1:
        raise ValueError("prolongation check requires a homogeneous polynomial")
    if not isinstance(bound, int) or bound < 0:
        raise ValueError(f"need bound >= 0, got {bound!r}")
    variables = sorted(_variables(rows))
    _validate_ambient(n, variables)
    top = min(bound, max(degrees, default=0))
    if not top:
        return True
    width = max(degrees).bit_length()
    fields = {v: i * width for i, v in enumerate(variables)}
    groups: dict[int, list] = {}
    for c, factors in rows:
        image = 0
        units = []
        for v, e in factors:
            image += (e << v[1] * width) + (e << v[2] * width)
            units += [1 << fields[v]] * e
        groups.setdefault(image, []).append((units, c))
    for terms in groups.values():
        sums: dict[int, int] = {}
        for units, c in terms:
            for key in map(sum, combinations(units, top)):
                sums[key] = sums.get(key, 0) + c
        if any(sums.values()):
            return False
    return True
