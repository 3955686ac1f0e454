"""Tropical membership, cone initial ideals, and certificates.

Weight-vector operations (in_tropicalization, same_groebner_cone) use the
MAX convention of the polynomial engine.  Cone data (rays, lineality) is
tropical data in the MIN convention -- the convention in which published
tropical rays are stated -- so cone-level initial ideals negate the rays
before calling the max-convention engine.  This is the single place where
the two sign conventions meet.

Primality of binomial ideals is geometric (over the algebraic closure):
monomial-freeness, equality with the saturation at all variables, and
saturatedness of the exponent lattice of a reduced basis.  Total
positivity is decided exactly; its points are rational or absent.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exactmath import IntLattice, QMatrix, is_saturated, rref, smith_normal_form
from .groebner import (
    Ideal,
    contains_monomial,
    ideal_equal,
    initial_ideal,
    saturate,
    saturate_at_variables,
)
from .poly import OrderSpec, Polynomial, PolyRing


class NotACone(Exception):
    """An iterated initial ideal became monomial-containing inside a cone
    that was supposed to lie in the tropicalization."""


class NotBinomial(Exception):
    pass


class NotCertified(Exception):
    """Adjacency was requested for cones that fail the maximal-prime
    certificate."""


class Cone:
    """Rational polyhedral cone data attached to a polynomial ring."""

    __slots__ = ("ring", "rays", "lineality")

    def __init__(self, ring: PolyRing, rays: Sequence[Sequence],
                 lineality: Sequence[Sequence] = ()):
        self.ring = ring
        self.rays = tuple(tuple(Fraction(x) for x in r) for r in rays)
        self.lineality = tuple(tuple(Fraction(x) for x in l) for l in lineality)
        n = ring.nvars
        for v in self.rays + self.lineality:
            if len(v) != n:
                raise ValueError("vector length does not match variable count")
        for r in self.rays:
            if all(x == 0 for x in r):
                raise ValueError("zero ray")

    def to_json(self) -> str:
        return json.dumps(
            {
                "rays": [[str(x) for x in r] for r in self.rays],
                "lineality": [[str(x) for x in l] for l in self.lineality],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, ring: PolyRing, text: str) -> "Cone":
        data = json.loads(text)
        return cls(ring, [[Fraction(x) for x in r] for r in data["rays"]],
                   [[Fraction(x) for x in l] for l in data.get("lineality", [])])

    def __repr__(self):
        return f"Cone({len(self.rays)} rays, {len(self.lineality)} lineality)"


@dataclass(frozen=True)
class PositivityCertificate:
    verdict: str  # "positive" | "not_positive" | "inconclusive"
    point: Optional[tuple] = None
    witness: Optional[Polynomial] = None


def in_tropicalization(ideal: Ideal, w: Sequence) -> bool:
    """True iff init_w (max convention) of the ideal is monomial-free."""
    return not contains_monomial(initial_ideal(ideal, OrderSpec.weight_order(w)))


def lineality_vectors(ring: PolyRing) -> list[tuple]:
    """One weight vector per grading coordinate: the r-th vector assigns each
    variable the r-th entry of its degree vector.  Every such weight fixes
    every homogeneous ideal, so these span lineality directions.  When the
    degree vectors are distinct unit vectors this reduces to the indicator
    vectors of the grading blocks."""
    width = len(ring.degrees[0]) if ring.degrees else 0
    out = []
    for r in range(width):
        v = tuple(d[r] for d in ring.degrees)
        if any(v) and v not in out:
            out.append(v)
    return out


def cone_initial_ideal(ideal: Ideal, cone: Cone) -> Ideal:
    """The initial ideal of the cone's relative interior: the iterated
    single-weight initial ideal, lineality vectors first, then rays.

    Cone data is min-convention, so each weight is negated before the
    max-convention engine runs.  A homogeneous ideal of a positively graded
    ring takes one Groebner basis under the stacked matrix order of the
    weights; any other ideal takes the iterated route, one weight at a
    time.  The route depends only on the input.  Raises NotACone if an
    intermediate ideal acquires a monomial.
    """
    weights = _cone_weights(ideal, cone)
    if weights and ideal.ring.is_positively_graded() and ideal.is_homogeneous():
        current = initial_ideal(ideal, OrderSpec.matrix_order(weights))
    else:
        current = _iterated_initial_ideal(ideal, weights)
    # the initial ideal of an ideal holding a monomial holds it too, so a
    # monomial at any intermediate stage shows in the final one
    if contains_monomial(current):
        raise NotACone("iterated initial ideal contains a monomial")
    return current


def _cone_weights(ideal: Ideal, cone: Cone) -> list[tuple]:
    """Max-convention weights of the cone's lineality vectors, then rays,
    leaving out those for which every generator is homogeneous."""
    weights = []
    for w in tuple(cone.lineality) + tuple(cone.rays):
        key = OrderSpec.weight_order(w).weight_key()
        if any(len({key(e) for e in g.terms}) > 1 for g in ideal.generators):
            weights.append(tuple(-x for x in w))
    return weights


def _iterated_initial_ideal(ideal: Ideal, weights: Sequence[tuple]) -> Ideal:
    """in_{w_k}(... in_{w_1}(ideal)) for max-convention weights w_1..w_k."""
    for w in weights:
        ideal = initial_ideal(ideal, OrderSpec.weight_order(w))
    return ideal


def is_binomial(ideal: Ideal) -> bool:
    """All elements of the reduced grevlex basis have at most two terms."""
    return all(g.num_terms() <= 2 for g in ideal.groebner_basis(OrderSpec.term("grevlex")))


def _exponent_lattice(ideal: Ideal) -> IntLattice:
    gens = []
    n = ideal.ring.nvars
    for g in ideal.groebner_basis(OrderSpec.term("grevlex")):
        exps = list(g.terms)
        if len(exps) == 2:
            gens.append(tuple(a - b for a, b in zip(exps[0], exps[1])))
    return IntLattice(gens, n)


def is_prime_binomial(ideal: Ideal) -> bool:
    """Geometric primality test for a binomial ideal.

    Requires (a) no monomial in the ideal, (b) the ideal equals its
    saturation at the product of all variables, (c) the exponent lattice of
    the reduced basis is saturated in Z^n.
    """
    if not is_binomial(ideal):
        raise NotBinomial("input has an element with more than two terms")
    if contains_monomial(ideal):
        return False
    if ideal.ring.is_positively_graded() and ideal.is_homogeneous():
        sat = saturate_at_variables(ideal)
    else:
        prod = ideal.ring.monomial((1,) * ideal.ring.nvars)
        sat = saturate(ideal, prod)
    if not ideal_equal(ideal, sat):
        return False
    return is_saturated(_exponent_lattice(ideal), ideal.ring.nvars)


def is_totally_positive(ideal: Ideal) -> PositivityCertificate:
    """Certificate for whether the ideal's zero set meets the strictly
    positive orthant.

    A one-signed basis element is a witness against positivity.  If every
    element of the reduced basis is a binomial x^a - r x^b with r > 0, the
    ideal holds no monomial (reducing a monomial by binomials never reaches
    0), so the ratios define a positive character on the lattice spanned by
    the differences a - b, and the verdict is positive.  The point is exact:
    all ones when every ratio is 1, otherwise ``_binomial_point``, and
    absent when no rational positive point exists.
    """
    gb = ideal.groebner_basis(OrderSpec.term("grevlex"))
    ones = (1,) * ideal.ring.nvars
    if not gb:
        return PositivityCertificate("positive", point=ones)
    for g in gb:
        coeffs = list(g.terms.values())
        if all(c > 0 for c in coeffs) or all(c < 0 for c in coeffs):
            return PositivityCertificate("not_positive", witness=g)
    if any(g.num_terms() > 2 for g in gb):
        return PositivityCertificate("inconclusive")
    # every element is a binomial with mixed signs
    if all(sum(g.terms.values()) == 0 for g in gb):
        return PositivityCertificate("positive", point=ones)
    return PositivityCertificate("positive", point=_binomial_point(gb, len(ones)))


def _binomial_point(gb: Sequence[Polynomial], nvars: int) -> Optional[tuple]:
    """A positive rational zero of binomials c_a x^a + c_b x^b with
    r = -c_b/c_a > 0, or None if every positive zero is irrational.

    With U A V = D the Smith normal form of the rows a - b, x^(a - b) = r
    becomes z_i^(d_i) = s_i = prod_j r_j^(U_ij) for x_k = prod_i z_i^(V_ki);
    s_i = 1 past the rank since the ratios form a character, and free z_i
    are 1.  V is unimodular, so x is rational iff every z_i is.
    """
    U, D, V = smith_normal_form([[a - b for a, b in zip(*g.terms)] for g in gb])
    ratios = [-cb / ca for ca, cb in (g.terms.values() for g in gb)]
    z = [Fraction(1)] * nvars
    for i, urow in enumerate(U.entries):
        s = math.prod((r ** int(u) for r, u in zip(ratios, urow)), start=Fraction(1))
        d = int(D[i, i]) if i < nvars else 0
        if not d and s != 1:
            raise AssertionError("binomial ratios do not form a character")
        if d:
            num, den = _int_root(s.numerator, d), _int_root(s.denominator, d)
            if num is None or den is None:
                return None
            z[i] = Fraction(num, den)
    point = tuple(math.prod(zi ** int(v) for zi, v in zip(z, vrow)) for vrow in V.entries)
    for g in gb:
        if sum(c * math.prod(x ** e for x, e in zip(point, exp))
               for exp, c in g.terms.items()):
            raise AssertionError("positivity point is not a zero of the basis")
    return point


def _int_root(a: int, d: int) -> Optional[int]:
    """The integer d-th root of a >= 0, or None if a is not a d-th power."""
    r = 0
    for bit in reversed(range(a.bit_length() // d + 1)):
        if (r | 1 << bit) ** d <= a:
            r |= 1 << bit
    return r if r ** d == a else None


def same_groebner_cone(ideal: Ideal, v: Sequence, w: Sequence) -> bool:
    """Whether two weight vectors (max convention) select the same initial
    ideal."""
    iv = initial_ideal(ideal, OrderSpec.weight_order(v))
    iw = initial_ideal(ideal, OrderSpec.weight_order(w))
    return ideal_equal(iv, iw)


def _canonical_ray(ray: tuple, lineality: Sequence[tuple]) -> tuple:
    """Representative of a ray modulo lineality span and positive scaling."""
    v = list(ray)
    if lineality:
        red, pivots = rref(QMatrix(list(lineality)))
        for r, c in enumerate(pivots):
            f = v[c]
            if f:
                v = [x - f * y for x, y in zip(v, red.row(r))]
    denom = math.lcm(*(x.denominator for x in v))
    ints = [int(x * denom) for x in v]
    g = math.gcd(*ints)
    if g:
        ints = [x // g for x in ints]
    return tuple(ints)


def cones_adjacent(ideal: Ideal, c1: Cone, c2: Cone) -> bool:
    """Whether two certified maximal prime cones share a facet: their ray
    sets (modulo lineality and scaling) differ in exactly one generator and
    their initial ideals differ."""
    certificates = []
    for c in (c1, c2):
        init = cone_initial_ideal(ideal, c)
        if not (is_binomial(init) and is_prime_binomial(init)):
            raise NotCertified("cone initial ideal is not binomial prime")
        certificates.append(init)
    lin = tuple(c1.lineality) + tuple(c2.lineality)
    s1 = {_canonical_ray(r, lin) for r in c1.rays}
    s2 = {_canonical_ray(r, lin) for r in c2.rays}
    if len(s1 - s2) != 1 or len(s2 - s1) != 1:
        return False
    return not ideal_equal(certificates[0], certificates[1])
