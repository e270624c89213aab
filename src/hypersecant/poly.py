"""Exact sparse multivariate polynomial arithmetic over arbitrary-precision ints.

Polynomials live in the edge variables x[a,b] (chords of a labelled n-gon,
stored with a < b) and, for the rank-substitution oracles, in the parameter
variables t[i] and u[i].  Coefficients are plain Python ints, so every
operation is exact.  A polynomial is a mapping from monomials to nonzero
coefficients; the zero polynomial is the empty mapping.

All values are immutable after construction and all operations are pure, so
everything here is safe to share across threads or processes.
"""

from __future__ import annotations

import re
from math import comb
from typing import Iterable, Iterator, Mapping, Sequence

# A variable is a plain tuple: ('x', a, b) with a < b, ('t', i) or ('u', i).
Variable = tuple

_EDGE, _PARAM_T, _PARAM_U = "x", "t", "u"


def edge_var(a: int, b: int) -> Variable:
    """Edge variable x[a,b].  Accepts the endpoints in either order."""
    if not (isinstance(a, int) and isinstance(b, int)):
        raise TypeError("edge endpoints must be ints")
    if a == b:
        raise ValueError(f"edge endpoints must differ, got ({a},{b})")
    if a < 1 or b < 1:
        raise ValueError(f"edge endpoints must be >= 1, got ({a},{b})")
    if a > b:
        a, b = b, a
    return (_EDGE, a, b)


def param_t(i: int) -> Variable:
    """Parameter variable t[i] of the first substitution family."""
    if not isinstance(i, int) or i < 1:
        raise ValueError(f"parameter index must be a positive int, got {i!r}")
    return (_PARAM_T, i)


def param_u(i: int) -> Variable:
    """Parameter variable u[i] of the second substitution family."""
    if not isinstance(i, int) or i < 1:
        raise ValueError(f"parameter index must be a positive int, got {i!r}")
    return (_PARAM_U, i)


def is_edge_var(v: Variable) -> bool:
    return v[0] == _EDGE


class Monomial:
    """A sparse monomial: a product of variables with positive exponents.

    Stored as a sorted tuple of (variable, exponent) pairs; no exponent is
    ever zero.  The empty monomial is the constant 1.
    """

    __slots__ = ("factors", "_hash")

    def __init__(self, factors: Mapping[Variable, int] | Iterable[tuple[Variable, int]] = ()):
        # The dict test first: it is cheap, and the Mapping check is not.
        if isinstance(factors, dict) or isinstance(factors, Mapping):
            factors = factors.items()
        acc: dict[Variable, int] = {}
        for v, e in factors:
            if not isinstance(e, int):
                raise TypeError(f"exponent of {v} must be an int, got {e!r}")
            if e < 0:
                raise ValueError(f"negative exponent {e} for {v}")
            if e:
                acc[v] = acc.get(v, 0) + e
        self.factors = tuple(sorted(acc.items()))
        self._hash = hash(self.factors)

    @classmethod
    def _of(cls, factors: dict) -> "Monomial":
        """Trusted constructor: `factors` maps variables to positive int
        exponents, so none of __init__'s checks is repeated."""
        m = object.__new__(cls)
        m.factors = tuple(sorted(factors.items()))
        m._hash = hash(m.factors)
        return m

    @classmethod
    def one(cls) -> "Monomial":
        return cls(())

    @classmethod
    def from_edges(cls, pairs: Iterable[tuple[int, int]]) -> "Monomial":
        """Monomial from edge endpoint pairs; repeats accumulate exponents."""
        acc: dict[Variable, int] = {}
        for a, b in pairs:
            v = edge_var(a, b)
            acc[v] = acc.get(v, 0) + 1
        return cls(acc)

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.factors)

    @property
    def is_one(self) -> bool:
        return not self.factors

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    def variables(self) -> tuple[Variable, ...]:
        return tuple(v for v, _ in self.factors)

    def exponent(self, v: Variable) -> int:
        for w, e in self.factors:
            if w == v:
                return e
        return 0

    def mul(self, other: "Monomial") -> "Monomial":
        d = dict(self.factors)
        for v, e in other.factors:
            d[v] = d.get(v, 0) + e
        return Monomial._of(d)

    def divides(self, other: "Monomial") -> bool:
        d = dict(other.factors)
        return all(d.get(v, 0) >= e for v, e in self.factors)

    def divide_by(self, other: "Monomial") -> "Monomial":
        """Exact quotient self / other; raises if not divisible."""
        d = dict(self.factors)
        for v, e in other.factors:
            r = d.get(v, 0) - e
            if r < 0:
                raise ValueError(f"{other} does not divide {self}")
            if r:
                d[v] = r
            else:
                d.pop(v, None)
        return Monomial(d)

    def lcm(self, other: "Monomial") -> "Monomial":
        d = dict(self.factors)
        for v, e in other.factors:
            if d.get(v, 0) < e:
                d[v] = e
        return Monomial(d)

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.factors == other.factors

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Monomial") -> bool:
        return canonical_key(self) < canonical_key(other)

    def __repr__(self) -> str:
        return f"Monomial({format_monomial(self)})"


def canonical_key(m: Monomial) -> tuple:
    """Order-agnostic sort key, degree then factors, used only for stable output."""
    return (m.degree, m.factors)


class Polynomial:
    """A sparse polynomial: monomials mapped to nonzero int coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | Iterable[tuple[Monomial, int]] = ()):
        if isinstance(terms, dict) or isinstance(terms, Mapping):
            terms = terms.items()
        acc: dict[Monomial, int] = {}
        for m, c in terms:
            if not isinstance(c, int):
                raise TypeError(f"coefficient must be an int, got {c!r}")
            nc = acc.get(m, 0) + c
            if nc:
                acc[m] = nc
            else:
                acc.pop(m, None)
        self._terms = acc

    # ----- constructors -----

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def from_monomial(cls, m: Monomial, coeff: int = 1) -> "Polynomial":
        return cls(((m, coeff),))

    @classmethod
    def variable(cls, v: Variable) -> "Polynomial":
        return cls(((Monomial(((v, 1),)), 1),))

    @classmethod
    def constant(cls, c: int) -> "Polynomial":
        return cls(((Monomial.one(), c),))

    @classmethod
    def from_edge_terms(cls, terms: Iterable[tuple[int, Iterable[tuple[int, int]]]]) -> "Polynomial":
        """Build from (coefficient, edge pair list) entries.  Test-fixture friendly."""
        return cls((Monomial.from_edges(pairs), c) for c, pairs in terms)

    # ----- queries -----

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def term_count(self) -> int:
        return len(self._terms)

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(m.degree for m in self._terms)

    @property
    def is_homogeneous(self) -> bool:
        degs = {m.degree for m in self._terms}
        return len(degs) <= 1

    def coefficient(self, m: Monomial) -> int:
        return self._terms.get(m, 0)

    def terms(self) -> Iterator[tuple[Monomial, int]]:
        return iter(self._terms.items())

    def monomials(self) -> Iterator[Monomial]:
        return iter(self._terms)

    def variables(self) -> tuple[Variable, ...]:
        seen = {v for m in self._terms for v, _ in m.factors}
        return tuple(sorted(seen))

    def uses_only_edge_vars(self) -> bool:
        return all(v[0] == _EDGE for m in self._terms for v, _ in m.factors)

    @property
    def is_multilinear(self) -> bool:
        return all(m.is_squarefree for m in self._terms)

    # ----- arithmetic -----

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        acc = dict(self._terms)
        for m, c in other._terms.items():
            nc = acc.get(m, 0) + c
            if nc:
                acc[m] = nc
            else:
                acc.pop(m, None)
        out = Polynomial.zero()
        out._terms = acc
        return out

    def __neg__(self) -> "Polynomial":
        out = Polynomial.zero()
        out._terms = {m: -c for m, c in self._terms.items()}
        return out

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return Polynomial.zero()
            out = Polynomial.zero()
            out._terms = {m: c * other for m, c in self._terms.items()}
            return out
        if not isinstance(other, Polynomial):
            return NotImplemented
        acc: dict[Monomial, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mm = m1.mul(m2)
                nc = acc.get(mm, 0) + c1 * c2
                if nc:
                    acc[mm] = nc
                else:
                    acc.pop(mm, None)
        out = Polynomial.zero()
        out._terms = acc
        return out

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"Polynomial({format_polynomial(self)})"


def partial_derivative(p: Polynomial, edges: Sequence[tuple[int, int]]) -> Polynomial:
    """Iterated formal partial derivative of p by a multiset of edges.

    Repeated edges differentiate repeatedly, so falling-factorial integer
    multipliers appear.  The multiset must be nonempty; the result may be
    the zero polynomial.
    """
    if not edges:
        raise ValueError("derivative multiset must be nonempty")
    out = p
    for a, b in edges:
        v = edge_var(a, b)
        acc: dict[Monomial, int] = {}
        for m, c in out.terms():
            e = m.exponent(v)
            if not e:
                continue
            d = dict(m.factors)
            if e == 1:
                del d[v]
            else:
                d[v] = e - 1
            mm = Monomial._of(d)
            nc = acc.get(mm, 0) + c * e
            if nc:
                acc[mm] = nc
            else:
                acc.pop(mm, None)
        out = Polynomial(acc)
    return out


def substitute_rank(p: Polynomial, r: int) -> Polynomial:
    """Image of p under x[a,b] -> t_a*t_b (r=1) or t_a*t_b + u_a*u_b (r=2).

    This is the defining parameterization of the rank-r locus: the result is
    identically zero exactly when p vanishes on all rank-r points.  Only
    r = 1 and r = 2 are supported; there is no third parameter family.

    The expansion runs on packed parameter monomials: each vertex of p owns
    one field for t_v and one for u_v, so x[a,b] maps to the ints T_a+T_b and
    U_a+U_b and multiplying by a factor is an add.  An edge raises any one
    parameter by at most 1, so no exponent exceeds p.degree and fields of
    its bit length never carry.  Only surviving terms become Monomials.
    """
    if not isinstance(r, int) or r < 1:
        raise ValueError(f"rank must be a positive int, got {r!r}")
    if r > 2:
        raise ValueError("only ranks 1 and 2 are supported")
    if not p.uses_only_edge_vars():
        raise ValueError("substitute_rank requires a polynomial in edge variables only")
    w = max(p.degree, 1).bit_length()
    vertices = sorted({a for _, *ends in p.variables() for a in ends})
    at = {a: 2 * w * k for k, a in enumerate(vertices)}
    # Per edge power x[a,b]^e, the packed terms of (t_a t_b)^k (u_a u_b)^(e-k)
    # with their binomial coefficients; rank 1 keeps only k = e.
    powers: dict = {}
    acc: dict[int, int] = {}
    for m, c in p.terms():
        expansion = {0: c}
        for power in m.factors:
            choices = powers.get(power)
            if choices is None:
                (_, a, b), e = power
                t = (1 << at[a]) + (1 << at[b])
                u = t << w
                ks = range(e + 1) if r == 2 else (e,)
                choices = powers[power] = [(k * t + (e - k) * u, comb(e, k)) for k in ks]
            nxt: dict[int, int] = {}
            for q, qc in expansion.items():
                for add, mult in choices:
                    key = q + add
                    nxt[key] = nxt.get(key, 0) + qc * mult
            expansion = nxt
        for q, qc in expansion.items():
            acc[q] = acc.get(q, 0) + qc
    mask = (1 << w) - 1
    fields = [(v(a), k + shift) for a, k in at.items() for v, shift in ((param_t, 0), (param_u, w))]
    return Polynomial(
        (Monomial(((v, e) for v, k in fields if (e := q >> k & mask))), qc)
        for q, qc in acc.items()
        if qc
    )


# ----- text grammar -----
#
# term      := sign magnitude ('*' factor)*          e.g.  -1*x[1,2]*x[3,4]^2
# factor    := x[a,b] | t[i] | u[i], optional ^e for e > 1
# polynomial:= term (' ' term)*  or  "0"
# Emission lists terms in descending order under the supplied key (canonical
# degree-then-factors order when no key is given); factors are sorted.

_FACTOR_RE = re.compile(r"^(?:x\[(\d+),(\d+)\]|([tu])\[(\d+)\])(?:\^(\d+))?$")


def format_monomial(m: Monomial) -> str:
    """Bare monomial text, e.g. x[1,2]*x[2,3]; the empty monomial is '1'."""
    if m.is_one:
        return "1"
    parts = []
    for v, e in m.factors:
        if v[0] == _EDGE:
            s = f"x[{v[1]},{v[2]}]"
        else:
            s = f"{v[0]}[{v[1]}]"
        parts.append(s if e == 1 else f"{s}^{e}")
    return "*".join(parts)


def format_polynomial(p: Polynomial, key=canonical_key) -> str:
    """Signed-term text per the shared grammar, descending under `key`."""
    if p.is_zero:
        return "0"
    pieces = []
    for m in sorted(p.monomials(), key=key, reverse=True):
        c = p.coefficient(m)
        if m.is_one:
            pieces.append(f"{c:+d}")
        else:
            pieces.append(f"{c:+d}*{format_monomial(m)}")
    return " ".join(pieces)


def parse_monomial(text: str) -> Monomial:
    """Parse bare monomial text as emitted by format_monomial."""
    text = text.strip()
    if text == "1":
        return Monomial.one()
    factors: dict[Variable, int] = {}
    for tok in text.split("*"):
        m = _FACTOR_RE.match(tok.strip())
        if not m:
            raise ValueError(f"bad monomial factor {tok!r}")
        xa, xb, kind, pi, exp = m.groups()
        v = edge_var(int(xa), int(xb)) if xa is not None else (
            param_t(int(pi)) if kind == "t" else param_u(int(pi)))
        factors[v] = factors.get(v, 0) + (int(exp) if exp else 1)
    return Monomial(factors)


def parse_polynomial(text: str) -> Polynomial:
    """Parse signed-term polynomial text as emitted by format_polynomial."""
    text = text.strip()
    if text == "0" or not text:
        return Polynomial.zero()
    acc: dict[Monomial, int] = {}
    for tok in text.split():
        head, _, rest = tok.partition("*")
        try:
            coeff = int(head)
        except ValueError as exc:
            raise ValueError(f"bad term {tok!r}: expected a signed coefficient") from exc
        mono = parse_monomial(rest) if rest else Monomial.one()
        nc = acc.get(mono, 0) + coeff
        if nc:
            acc[mono] = nc
        else:
            acc.pop(mono, None)
    return Polynomial(acc)
