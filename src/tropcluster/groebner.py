"""Buchberger engine and ideal-level operations.

All bases are reduced and monic, so a Groebner basis for a fixed order is a
canonical form of the ideal, and ``render_ideal`` prints that form.
Initial ideals for weight/matrix orders on non-homogeneous input go through
homogenization with an auxiliary variable followed by saturation, which
keeps Buchberger termination honest.  Saturation and the monomial test
adjoin an inverse through one auxiliary variable (``_inverse_ideal``).

The environment variable TROPCLUSTER_BUDGET, when set to an integer, caps
the number of S-polynomial reductions per Groebner computation; exceeding
it raises ResourceBudget.  No clock is read, so the work done depends only
on the input.
"""

from __future__ import annotations

import itertools
import os
from fractions import Fraction
from typing import Sequence

from .poly import (
    OrderSpec,
    Polynomial,
    PolyRing,
    initial_form,
    leading_term,
)


class ResourceBudget(Exception):
    """Raised when a Groebner run exceeds the configured step budget."""


def _budget() -> int | None:
    raw = os.environ.get("TROPCLUSTER_BUDGET")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        return None


def _divides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _lcm(a: tuple, b: tuple) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


def _sub_exp(a: tuple, b: tuple) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def normal_form(
    f: Polynomial,
    basis: Sequence[Polynomial],
    spec: OrderSpec,
    *,
    leads: Sequence[tuple[tuple, Fraction]] | None = None,
) -> Polynomial:
    """Full reduction of f modulo basis (every term reduced).

    ``leads``, when given, holds each basis element's leading (monomial,
    coefficient) under spec, so that they are not recomputed.
    """
    if not basis:
        return f
    key = spec.sort_key()
    if leads is None:
        leads = [leading_term(g, spec) for g in basis]
    remainder: dict[tuple, Fraction] = {}
    work = dict(f.terms)
    while work:
        e = max(work, key=key)
        c = work.pop(e)
        for g, (le, lc) in zip(basis, leads):
            if _divides(le, e):
                factor = c / lc
                shift = _sub_exp(e, le)
                for ge, gc in g.terms.items():
                    if ge == le:
                        continue
                    ee = tuple(x + y for x, y in zip(ge, shift))
                    s = work.get(ee, Fraction(0)) - factor * gc
                    if s:
                        work[ee] = s
                    else:
                        work.pop(ee, None)
                break
        else:
            remainder[e] = c
    return Polynomial(f.ring, remainder)


def buchberger(generators: Sequence[Polynomial], spec: OrderSpec) -> list[Polynomial]:
    """Reduced monic Groebner basis, deterministically ordered."""
    ring = generators[0].ring if generators else None
    basis: list[Polynomial] = []
    leads: list[tuple[tuple, Fraction]] = []  # (monomial, coeff) per element
    for g in generators:
        if g:
            le, lc = leading_term(g, spec)
            basis.append(g * (1 / lc))
            leads.append((le, Fraction(1)))
    if not basis:
        return []
    key = spec.sort_key()
    budget = _budget()
    steps = 0

    # pair -> its selection key: normal selection takes the smallest lcm of
    # leading monomials first, ties broken by the pair itself
    pairs: dict[tuple[int, int], tuple] = {}

    def add_pairs(new):
        ln = leads[new][0]
        for k in range(new):
            pairs[k, new] = (key(_lcm(leads[k][0], ln)), (k, new))

    for new in range(1, len(basis)):
        add_pairs(new)
    while pairs:
        _, (i, j) = min(pairs.values())
        del pairs[i, j]
        li, lj = leads[i][0], leads[j][0]
        lcm = _lcm(li, lj)
        # Buchberger's first criterion: coprime leading monomials
        if all(a == 0 or b == 0 for a, b in zip(li, lj)):
            continue
        # chain criterion
        skip = False
        for k, (lk, _) in enumerate(leads):
            if k in (i, j):
                continue
            if _divides(lk, lcm):
                a, b = (min(i, k), max(i, k)), (min(j, k), max(j, k))
                if a not in pairs and b not in pairs:
                    skip = True
                    break
        if skip:
            continue
        steps += 1
        if budget is not None and steps > budget:
            raise ResourceBudget(f"Groebner budget of {budget} S-polynomial steps exceeded")
        fi, fj = basis[i], basis[j]
        s = fi * Polynomial(ring, {_sub_exp(lcm, li): Fraction(1)}) - fj * Polynomial(
            ring, {_sub_exp(lcm, lj): Fraction(1)}
        )
        r = normal_form(s, basis, spec, leads=leads)
        if r:
            le, lc = leading_term(r, spec)
            basis.append(r * (1 / lc))
            leads.append((le, Fraction(1)))
            add_pairs(len(basis) - 1)
    return _reduce_basis(basis, leads, spec)


def _reduce_basis(
    basis: list[Polynomial], leads: list[tuple[tuple, Fraction]], spec: OrderSpec
) -> list[Polynomial]:
    """Minimal inter-reduced basis from a monic Groebner basis and its leads."""
    key = spec.sort_key()
    # minimalize: drop elements whose lead is divisible by another lead
    mons = [le for le, _ in leads]
    keep = [
        i
        for i, li in enumerate(mons)
        if not any(
            j != i and _divides(lj, li) and (lj != li or j < i) for j, lj in enumerate(mons)
        )
    ]
    # inter-reduce tails; no other kept lead divides an element's lead, so
    # each result keeps its lead with coefficient 1
    reduced = []
    for i in keep:
        others = [k for k in keep if k != i]
        r = normal_form(
            basis[i], [basis[k] for k in others], spec, leads=[leads[k] for k in others]
        )
        reduced.append((key(mons[i]), r))
    reduced.sort(key=lambda item: item[0])
    return [r for _, r in reduced]


class Ideal:
    """An ideal with cached reduced Groebner bases per order."""

    __slots__ = ("ring", "generators", "_gb_cache")

    def __init__(self, ring: PolyRing, generators: Sequence[Polynomial]):
        self.ring = ring
        self.generators = tuple(g for g in generators if g)
        for g in self.generators:
            if g.ring != ring:
                raise ValueError("generator from a different ring")
        self._gb_cache: dict = {}

    def groebner_basis(self, spec: OrderSpec) -> list[Polynomial]:
        k = spec.cache_key()
        if k not in self._gb_cache:
            # keep the generator objects wherever the basis repeats one
            same = {g: g for g in self.generators}
            gb = buchberger(list(self.generators), spec)
            self._gb_cache[k] = [same.get(g, g) for g in gb]
        return list(self._gb_cache[k])

    def contains(self, f: Polynomial, spec: OrderSpec | None = None) -> bool:
        spec = spec or OrderSpec.term("grevlex")
        return not normal_form(f, self.groebner_basis(spec), spec)

    def is_trivial(self) -> bool:
        gb = self.groebner_basis(OrderSpec.term("grevlex"))
        return len(gb) == 1 and gb[0].terms == {(0,) * self.ring.nvars: Fraction(1)}

    def is_homogeneous(self) -> bool:
        """True if some (equivalently, the grevlex-reduced) basis is homogeneous
        for the ring multigrading.  Homogeneous generators answer without a
        basis."""
        if all(g.is_homogeneous() for g in self.generators):
            return True
        return all(g.is_homogeneous() for g in self.groebner_basis(OrderSpec.term("grevlex")))

    def __eq__(self, other):
        return (
            isinstance(other, Ideal)
            and self.ring == other.ring
            and ideal_equal(self, other)
        )

    def __hash__(self):
        return hash(self.ring)

    def __repr__(self):
        return f"Ideal({len(self.generators)} generators in {self.ring!r})"


def ideal_equal(a: Ideal, b: Ideal) -> bool:
    if a.ring != b.ring:
        raise ValueError("ideals live in different rings")
    spec = OrderSpec.term("grevlex")
    return a.groebner_basis(spec) == b.groebner_basis(spec)


def render_ideal(ideal: Ideal) -> list[str]:
    """Sorted renderings of the reduced grevlex basis: a canonical text form."""
    return sorted(g.render() for g in ideal.groebner_basis(OrderSpec.term("grevlex")))


def eliminate(ideal: Ideal, keep: Sequence[str]) -> Ideal:
    """Intersect with the subring on the kept variables.

    Returns an ideal of the smaller ring whose variables are ``keep`` in the
    order they appear in the original ring.
    """
    ring = ideal.ring
    keep_set = set(keep)
    for name in keep_set:
        if name not in ring._index:
            raise ValueError(f"unknown variable {name!r}")
    w = [0 if name in keep_set else 1 for name in ring.names]
    spec = OrderSpec.weight_order(w, tiebreak="grevlex")
    gb = ideal.groebner_basis(spec)
    kept_names = [nm for nm in ring.names if nm in keep_set]
    kept_idx = [ring.index(nm) for nm in kept_names]
    drop_idx = [i for i in range(ring.nvars) if ring.names[i] not in keep_set]
    sub = PolyRing(kept_names, [ring.degrees[i] for i in kept_idx])
    out = []
    for g in gb:
        if all(all(e[i] == 0 for i in drop_idx) for e in g.terms):
            out.append(
                Polynomial(sub, {tuple(e[i] for i in kept_idx): c for e, c in g.terms.items()})
            )
    return Ideal(sub, out)


def _restrict(ideal: Ideal, ring: PolyRing) -> Ideal:
    """Eliminate down to exactly the variables of ``ring`` (a subring)."""
    result = eliminate(ideal, ring.names)
    if result.ring.names != ring.names:
        raise ValueError("target ring variables missing from source")
    return Ideal(ring, [Polynomial(ring, g.terms) for g in result.generators])


def _fresh_name(ring: PolyRing, name: str) -> str:
    """``name`` with underscores prepended until no ring variable has it."""
    while name in ring._index:
        name = "_" + name
    return name


def _inverse_ideal(ideal: Ideal, f: Polynomial) -> Ideal:
    """The ideal's generators and f*t - 1, in the ring extended by a fresh
    last variable t; its intersection with the ring is (I : f^infinity)."""
    ring = ideal.ring
    aux = _fresh_name(ring, "_inv")
    big = ring.extend([aux])
    lift = lambda g: Polynomial(big, {e + (0,): c for e, c in g.terms.items()})
    gens = [lift(g) for g in ideal.generators]
    gens.append(lift(f) * big.variable(aux) - 1)
    return Ideal(big, gens)


def saturate(ideal: Ideal, f: Polynomial) -> Ideal:
    """Saturation (I : f^infinity) via an auxiliary inverse variable."""
    return _restrict(_inverse_ideal(ideal, f), ideal.ring)


def saturate_at_variables(ideal: Ideal) -> Ideal:
    """(I : (x_1 ... x_n)^infinity) for an ideal homogeneous for a positive
    grading of the ring.

    A work list of the variables still to check, starting from the cached
    grevlex basis.  A variable that divides no leading monomial of a
    Groebner basis (for any term order) is a nonzerodivisor modulo the
    initial ideal, hence modulo I, so it leaves the list with no work.  Each
    other variable x_i takes the reverse-lex trick: under the order whose
    first row is the grading, ``sum(d)`` for each degree vector d (an ideal
    homogeneous for the multigrading is homogeneous for it), with ties won
    by fewer copies of x_i, saturating at x_i amounts to dividing every
    basis element by its common x_i power (Bayer-Stillman), and the divided
    basis is a Groebner basis of the saturation.  A variable leaves the list
    for good: if (I : x_j) = I then ((I : x_i^infinity) : x_j) =
    ((I : x_j) : x_i^infinity) = I : x_i^infinity.  The sweep's own bases
    are used once, so none is cached.
    """
    ring = ideal.ring
    n = ring.nvars
    grading = tuple(sum(d) for d in ring.degrees)
    spec = OrderSpec.term("grevlex")
    basis = ideal.groebner_basis(spec)
    todo = list(range(n))
    changed = False
    while True:
        leads = [leading_term(g, spec)[0] for g in basis]
        todo = [i for i in todo if any(le[i] for le in leads)]
        if not todo:
            break
        i = todo.pop(0)
        spec = OrderSpec.matrix_order([grading, tuple(-1 if j == i else 0 for j in range(n))])
        basis = buchberger(basis, spec)
        low = [min(e[i] for e in g.terms) for g in basis]
        if any(low):
            basis = [
                Polynomial(ring, {e[:i] + (e[i] - m,) + e[i + 1:]: c for e, c in g.terms.items()})
                if m else g
                for g, m in zip(basis, low)
            ]
            changed = True
    return Ideal(ring, basis) if changed else ideal


def contains_monomial(ideal: Ideal) -> bool:
    """Whether the ideal contains any monomial in the ring variables."""
    ring = ideal.ring
    gb = ideal.groebner_basis(OrderSpec.term("grevlex"))
    if any(g.num_terms() == 1 for g in gb):
        return True
    if all(g.num_terms() <= 2 for g in gb):
        # reducing a monomial by a binomial yields another nonzero monomial,
        # so a binomial ideal contains a monomial only if its reduced basis
        # does
        return False
    # a monomial lies in I iff inverting the product of all variables
    # leaves the unit ideal
    return _inverse_ideal(ideal, ring.monomial((1,) * ring.nvars)).is_trivial()


def homogenize(f: Polynomial, w: Sequence, hom_ring: PolyRing, hom_var: str) -> Polynomial:
    """Weight-w homogenization of f using the last variable of hom_ring.

    Each term x^a picks up hom_var^(max_b w.b - w.a).  The weights must make
    all those exponents integral.
    """
    if not f:
        return hom_ring.zero()
    ww = [Fraction(x) for x in w]
    vals = {e: sum(wi * ei for wi, ei in zip(ww, e)) for e in f.terms}
    top = max(vals.values())
    idx = hom_ring.index(hom_var)
    out = {}
    for e, c in f.terms.items():
        gap = top - vals[e]
        if gap.denominator != 1:
            raise ValueError("weights give a non-integral homogenization exponent")
        ee = list(e) + [0] * (hom_ring.nvars - len(e))
        ee[idx] += int(gap)
        out[tuple(ee)] = c
    return Polynomial(hom_ring, out)


def _homogenized_ideal(ideal: Ideal, hom_var: str) -> tuple[Ideal, PolyRing]:
    """Total-degree homogenization, saturated at the auxiliary variable."""
    ring = ideal.ring
    big = PolyRing(ring.names + (hom_var,))  # standard grading throughout
    w = [1] * ring.nvars
    gens = [homogenize(g, w, big, hom_var) for g in ideal.generators]
    hi = Ideal(big, gens)
    return saturate(hi, big.variable(hom_var)), big


def initial_ideal(ideal: Ideal, spec: OrderSpec) -> Ideal:
    """Ideal generated by initial forms of all elements.

    For a plain term order this is the leading-term monomial ideal.  For
    weight/matrix orders on ideals that are not homogeneous for a positive
    grading, the computation is routed through homogenization.
    """
    ring = ideal.ring
    gb_direct_ok = spec.kind == "term" or (
        ring.is_positively_graded() and ideal.is_homogeneous()
    )
    if gb_direct_ok:
        gb = ideal.groebner_basis(spec)
        return Ideal(ring, [initial_form(g, spec) for g in gb])

    hom_var = _fresh_name(ring, "_h")
    sat, big = _homogenized_ideal(ideal, hom_var)
    big_spec = spec.extended(1)
    gb = sat.groebner_basis(big_spec)
    inits = [initial_form(g, big_spec) for g in gb]
    # dehomogenize: set the auxiliary variable to 1
    out = []
    for g in inits:
        terms: dict[tuple, Fraction] = {}
        for e, c in g.terms.items():
            ee = e[:-1]
            terms[ee] = terms.get(ee, Fraction(0)) + c
        out.append(Polynomial(ring, terms))
    return Ideal(ring, [g for g in out if g])


def standard_monomials(ideal: Ideal, spec: OrderSpec, max_degree: int) -> list[tuple]:
    """Exponents of monomials of total degree <= max_degree outside the
    leading-term ideal, sorted by the order."""
    if spec.kind != "term":
        raise ValueError("standard monomials need a bona fide term order")
    gb = ideal.groebner_basis(spec)
    leads = [leading_term(g, spec)[0] for g in gb]
    n = ideal.ring.nvars
    key = spec.sort_key()
    out = []
    for total in range(max_degree + 1):
        for combo in itertools.combinations_with_replacement(range(n), total):
            e = [0] * n
            for i in combo:
                e[i] += 1
            e = tuple(e)
            if not any(_divides(l, e) for l in leads):
                out.append(e)
    out.sort(key=key)
    return out
