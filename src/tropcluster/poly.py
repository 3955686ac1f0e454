"""Multivariate polynomials over exact rationals with named variables.

Monomials are dense exponent tuples indexed by ring variables.  Orders come
in three flavours: named term orders, a weight vector with a term-order
tiebreak, and a weighting matrix compared row-lexicographically with a
term-order tiebreak.  Initial forms use the MAX convention: the kept terms
are those maximizing the weight (or weight tuple).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import mul
from typing import Mapping, Sequence


class ZeroPolynomial(Exception):
    pass


class PolyRing:
    """Polynomial ring with named variables and an integer multigrading.

    ``degrees[i]`` is the multidegree vector of variable i.  The default is
    the standard grading (every variable of degree (1,)).  Degree vectors
    may contain zero or negative entries; only rings whose grading is
    positive (every vector nonzero with nonnegative entries) are treated as
    positively graded for Groebner purposes.
    """

    __slots__ = ("names", "degrees", "_index")

    def __init__(self, names: Sequence[str], degrees: Sequence[Sequence[int]] | None = None):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be distinct")
        if degrees is None:
            degrees = [(1,)] * len(self.names)
        self.degrees = tuple(tuple(int(d) for d in deg) for deg in degrees)
        if len(self.degrees) != len(self.names):
            raise ValueError("one degree vector per variable required")
        if self.degrees and len({len(d) for d in self.degrees}) > 1:
            raise ValueError("degree vectors of mixed length")
        self._index = {name: i for i, name in enumerate(self.names)}

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self._index[name]

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.names == other.names
            and self.degrees == other.degrees
        )

    def __hash__(self):
        return hash((self.names, self.degrees))

    def __repr__(self):
        return f"PolyRing({list(self.names)})"

    def is_positively_graded(self) -> bool:
        return all(any(d > 0 for d in deg) and all(d >= 0 for d in deg) for deg in self.degrees)

    def multidegree(self, exponent: Sequence[int]) -> tuple:
        width = len(self.degrees[0]) if self.degrees else 0
        total = [0] * width
        for e, deg in zip(exponent, self.degrees):
            if e:
                for i, d in enumerate(deg):
                    total[i] += e * d
        return tuple(total)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return Polynomial(self, {(0,) * self.nvars: Fraction(1)})

    def variable(self, name: str) -> "Polynomial":
        exp = [0] * self.nvars
        exp[self.index(name)] = 1
        return Polynomial(self, {tuple(exp): Fraction(1)})

    def monomial(self, exponent: Sequence[int], coeff=1) -> "Polynomial":
        return Polynomial(self, {tuple(int(e) for e in exponent): Fraction(coeff)})

    def extend(self, extra_names: Sequence[str], extra_degrees: Sequence[Sequence[int]] | None = None) -> "PolyRing":
        width = len(self.degrees[0]) if self.degrees else 1
        if extra_degrees is None:
            extra_degrees = [(1,) * width for _ in extra_names]
        return PolyRing(self.names + tuple(extra_names), self.degrees + tuple(tuple(d) for d in extra_degrees))


class Polynomial:
    """Sparse polynomial: map exponent tuple -> nonzero Fraction.

    Exponents may be negative, which makes it a Laurent polynomial (cluster
    Laurent expansions are stored this way).  Arithmetic and rendering
    accept that; Groebner operations need nonnegative exponents.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: Mapping[tuple, Fraction]):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if c != 0}

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __neg__(self):
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.monomial((0,) * self.ring.nvars, other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.monomial((0,) * self.ring.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial(self.ring, {e: c * other for e, c in self.terms.items()})
        out: dict[tuple, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def is_homogeneous(self) -> bool:
        """Homogeneous with respect to the ring multigrading."""
        degs = {self.ring.multidegree(e) for e in self.terms}
        return len(degs) <= 1

    def multidegree(self) -> tuple:
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no degree")
        if not self.is_homogeneous():
            raise ValueError("polynomial is not homogeneous")
        return self.ring.multidegree(next(iter(self.terms)))

    def num_terms(self) -> int:
        return len(self.terms)

    def render(self) -> str:
        """Deterministic human-readable form (terms in grevlex-descending order)."""
        if not self.terms:
            return "0"
        key = _named_key("grevlex")
        parts = []
        for e in sorted(self.terms, key=key, reverse=True):
            c = self.terms[e]
            factors = []
            for name, p in zip(self.ring.names, e):
                if p == 1:
                    factors.append(name)
                elif p:
                    factors.append(f"{name}^{p}")
            mono = "*".join(factors)
            coeff = abs(c)
            if mono and coeff == 1:
                body = mono
            elif mono:
                body = f"{coeff}*{mono}"
            else:
                body = str(coeff)
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self):
        return f"<{self.render()}>"


# ---------------------------------------------------------------------------
# monomial orders


def _integer_row(row: Sequence[Fraction]) -> tuple[int, ...]:
    """The row times the positive lcm of its denominators."""
    scale = math.lcm(*(x.denominator for x in row))
    return tuple(int(x * scale) for x in row)


def _named_key(name: str):
    if name == "lex":
        return lambda e: e
    if name == "grlex":
        return lambda e: (sum(e), e)
    if name == "grevlex":
        return lambda e: (sum(e), tuple(-x for x in reversed(e)))
    raise ValueError(f"unknown term order {name!r}")


class OrderSpec:
    """A term order, a weight vector with tiebreak, or a weighting matrix.

    ``sort_key`` is a total order key on exponent tuples (used by the
    Groebner engine; larger key = leading).  ``weight_key`` is the partial
    key used for initial forms: all terms attaining its maximum are kept.
    For a plain term order the two coincide, so initial forms are single
    leading terms.

    Both keys are built once, from the weight or matrix rows scaled to
    integers by the lcm of their denominators.  Positive scaling keeps the
    order and the maximizing terms; ``weight``, ``matrix`` and
    ``cache_key()`` keep the exact values given.
    """

    __slots__ = ("kind", "name", "weight", "matrix", "tiebreak", "_weight_key", "_sort_key")

    def __init__(self, kind, name=None, weight=None, matrix=None, tiebreak="grevlex"):
        self.kind = kind
        self.name = name
        self.weight = None if weight is None else tuple(Fraction(w) for w in weight)
        self.matrix = (
            None
            if matrix is None
            else tuple(tuple(Fraction(x) for x in row) for row in matrix)
        )
        self.tiebreak = tiebreak
        if kind == "term":
            self._weight_key = self._sort_key = _named_key(name)
            return
        tkey = _named_key(tiebreak)
        if kind == "weight":
            w = _integer_row(self.weight)
            self._weight_key = wkey = lambda e: sum(map(mul, w, e))
            self._sort_key = lambda e: (wkey(e),) + tkey(e)
        else:
            rows = tuple(_integer_row(row) for row in self.matrix)
            self._weight_key = wkey = lambda e: tuple(sum(map(mul, row, e)) for row in rows)
            self._sort_key = lambda e: wkey(e) + tkey(e)

    @classmethod
    def term(cls, name: str) -> "OrderSpec":
        return cls("term", name=name)

    @classmethod
    def weight_order(cls, w: Sequence, tiebreak: str = "grevlex") -> "OrderSpec":
        return cls("weight", weight=w, tiebreak=tiebreak)

    @classmethod
    def matrix_order(cls, rows: Sequence[Sequence], tiebreak: str = "grevlex") -> "OrderSpec":
        return cls("matrix", matrix=rows, tiebreak=tiebreak)

    def cache_key(self):
        return (self.kind, self.name, self.weight, self.matrix, self.tiebreak)

    def __eq__(self, other):
        return isinstance(other, OrderSpec) and self.cache_key() == other.cache_key()

    def __hash__(self):
        return hash(self.cache_key())

    def weight_key(self):
        return self._weight_key

    def sort_key(self):
        return self._sort_key

    def extended(self, extra: int = 1) -> "OrderSpec":
        """Same order on a ring with ``extra`` trailing variables of weight 0."""
        if self.kind == "term":
            return self
        if self.kind == "weight":
            return OrderSpec.weight_order(self.weight + (Fraction(0),) * extra, self.tiebreak)
        rows = [row + (Fraction(0),) * extra for row in self.matrix]
        return OrderSpec.matrix_order(rows, self.tiebreak)


def leading_term(f: Polynomial, spec: OrderSpec) -> tuple[tuple, Fraction]:
    if not f:
        raise ZeroPolynomial("zero polynomial has no leading term")
    key = spec.sort_key()
    e = max(f.terms, key=key)
    return e, f.terms[e]


def initial_form(f: Polynomial, spec: OrderSpec) -> Polynomial:
    """Sum of the terms of f maximizing the order's weight key."""
    if not f:
        raise ZeroPolynomial("initial form of the zero polynomial")
    wkey = spec.weight_key()
    best = max(wkey(e) for e in f.terms)
    return Polynomial(f.ring, {e: c for e, c in f.terms.items() if wkey(e) == best})


# ---------------------------------------------------------------------------
# parsing

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()]))"
)


def parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    """Parse terms like ``3*p_12*p_34^2 - 1/2*x`` into a Polynomial."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ValueError(f"cannot tokenize {text[pos:]!r}")
            break
        pos = m.end()
        if m.group("num"):
            tokens.append(("num", Fraction(m.group("num"))))
        elif m.group("name"):
            tokens.append(("var", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))

    result = ring.zero()
    i = 0
    n = len(tokens)
    while i < n:
        sign = Fraction(1)
        while i < n and tokens[i] == ("op", "+") or i < n and tokens[i] == ("op", "-"):
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= n:
            raise ValueError("dangling sign")
        coeff = sign
        exponent = [0] * ring.nvars
        expect_factor = True
        while i < n:
            kind, val = tokens[i]
            if kind == "num" and expect_factor:
                coeff *= val
                i += 1
            elif kind == "var" and expect_factor:
                if val not in ring._index:
                    raise ValueError(f"unknown variable {val!r}")
                idx = ring.index(val)
                power = 1
                i += 1
                if i < n and tokens[i] == ("op", "^"):
                    if i + 1 >= n or tokens[i + 1][0] != "num":
                        raise ValueError("expected exponent after '^'")
                    power = int(tokens[i + 1][1])
                    i += 2
                exponent[idx] += power
            elif kind == "op" and val == "*":
                expect_factor = True
                i += 1
                continue
            elif kind == "op" and val in "+-":
                break
            else:
                raise ValueError(f"unexpected token {val!r}")
            expect_factor = False
        result = result + ring.monomial(exponent, coeff)
    return result
