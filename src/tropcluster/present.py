"""Presentations of cluster algebras from Khovanskii lists of variables.

Given a seed and a list of cluster variables (each reached by a mutation
word), this module computes the presentation ideal -- the full kernel of
the map sending one polynomial variable to each listed Laurent expansion --
together with the ray matrices -B^{-T} G and the complete verification
pipeline: the rows span a maximal prime cone of the tropicalization whose
initial ideal is binomial, prime and totally positive, frozen rows lie in
the lineality space, and one-step mutations move exactly one row while
staying adjacent.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .cluster import SeedData, gmatrix, laurent_expand, mutate_seed
from .exactmath import QMatrix, invert
from .groebner import Ideal, eliminate, ideal_equal, initial_ideal, render_ideal
from .poly import OrderSpec, Polynomial, PolyRing, _integer_row
from .trop import (
    Cone,
    cone_initial_ideal,
    contains_monomial,
    is_binomial,
    is_prime_binomial,
    is_totally_positive,
)


class KhovanskiiSpec:
    """A seed plus named basis elements given as (mutation word, index)."""

    __slots__ = ("seed", "basis")

    def __init__(self, seed: SeedData, basis: Sequence[tuple]):
        self.seed = seed
        self.basis = tuple((tuple(word), int(i), str(name)) for word, i, name in basis)
        names = [name for _, _, name in self.basis]
        if len(set(names)) != len(names):
            raise ValueError("basis names must be distinct")


class Presentation:
    __slots__ = ("ring", "ideal", "expansions")

    def __init__(self, ring: PolyRing, ideal: Ideal, expansions: dict):
        self.ring = ring
        self.ideal = ideal
        self.expansions = dict(expansions)


def _laurent_to_poly(expansion, big: PolyRing, u_index: int) -> Polynomial:
    """Rewrite a Laurent polynomial in the a-variables as a genuine
    polynomial using u = (a_1 ... a_N)^{-1}."""
    terms = {}
    for e, c in expansion.terms.items():
        t = max([0] + [-x for x in e])
        full = [0] * big.nvars
        for i, x in enumerate(e):
            full[i] = x + t
        full[u_index] = t
        terms[tuple(full)] = terms.get(tuple(full), Fraction(0)) + c
    return Polynomial(big, terms)


def presentation_ideal(spec: KhovanskiiSpec) -> Presentation:
    """Kernel of the map x_name -> Laurent expansion, by elimination.

    The initial-cluster variables a_i and an inverse u of their product are
    adjoined; relations x_j = expansion_j(a) are imposed; eliminating
    {a, u} leaves the full (saturated) ideal of relations among the basis.

    The presentation ring is graded by the frozen rows of the frame-s ray
    matrix, the grading for which the kernel is homogeneous; a row with
    rational entries is scaled by the lcm of its denominators.
    """
    seed = spec.seed
    N = seed.size()
    names = [name for _, _, name in spec.basis]
    a_names = [f"_a{i}" for i in range(N)]
    big = PolyRing(a_names + ["_u"] + names)
    u_index = N
    expansions = {}
    gens = []
    # u * a_1 ... a_N = 1 makes the a-variables invertible
    gens.append(big.monomial([1] * (N + 1) + [0] * len(names)) - big.one())
    for word, i, name in spec.basis:
        expansion = laurent_expand(seed, word, i)
        expansions[name] = expansion
        gens.append(big.variable(name) - _laurent_to_poly(expansion, big, u_index))
    kernel = eliminate(Ideal(big, gens), names)
    # grade the presentation ring by the frozen ray-matrix rows
    G = gmatrix(seed, [(w, i) for w, i, _ in spec.basis])
    rays = invert(-QMatrix(seed.B).transpose()) * G
    frozen = [_integer_row(rays.row(r)) for r in range(seed.n, N)]
    degrees = [tuple(row[j] for row in frozen) for j in range(len(names))]
    ring = PolyRing(names, degrees)
    ideal = Ideal(ring, [Polynomial(ring, g.terms) for g in kernel.generators])
    return Presentation(ring, ideal, expansions)


def ray_matrix(spec: KhovanskiiSpec, frame: Sequence[int] = ()) -> QMatrix:
    """-B^{-T} G for the frame seed: rows indexed by directions, columns by
    basis elements.  Raises SingularMatrix if the fully extended exchange
    matrix of the frame seed is singular."""
    frame = list(frame)
    frame_seed = mutate_seed(spec.seed, frame)
    G = gmatrix(spec.seed, [(w, i) for w, i, _ in spec.basis], frame)
    return invert(-QMatrix(frame_seed.B).transpose()) * G


def _dominance_refined_order(spec: KhovanskiiSpec, frame: Sequence[int]) -> OrderSpec:
    """Max-convention matrix order computing the min-convention initial
    ideal under the g-vector weighting matrix with its dominance-refining
    linear order (graded-lex pulled back through the exchange matrix)."""
    frame_seed = mutate_seed(spec.seed, list(frame))
    G = gmatrix(spec.seed, [(w, i) for w, i, _ in spec.basis], list(frame))
    M = invert(QMatrix(frame_seed.B)) * G
    rows = [[-sum(M.column(j)) for j in range(M.cols)]]
    rows += [[-x for x in M.row(r)] for r in range(M.rows)]
    return OrderSpec.matrix_order(rows)


def verify_khovanskii(spec: KhovanskiiSpec, frame: Sequence[int] = (),
                      presentation: Presentation | None = None) -> bool:
    """True iff the initial ideal of the presentation ideal under the
    g-vector weighting matrix (dominance-refined) is binomial and prime."""
    pres = presentation or presentation_ideal(spec)
    init = initial_ideal(pres.ideal, _dominance_refined_order(spec, frame))
    return is_binomial(init) and is_prime_binomial(init)


def verify_main_theorem(spec: KhovanskiiSpec) -> dict:
    """Full one-step verification pipeline around the frame seed.

    Checks, for the frame seed and each one-step mutation: the ray-matrix
    rows span a cone whose initial ideal is monomial-free, binomial, prime
    and totally positive; frozen rows fix the presentation ideal; the two
    ray matrices differ in exactly the mutated row; and the two cone
    initial ideals are distinct, each with a positivity certificate.
    """
    seed = spec.seed
    N = seed.size()
    pres = presentation_ideal(spec)
    J = pres.ideal
    clauses = []
    initial_ideals: dict = {"frame": None, "mutated": {}}

    def record(name, ok, witness=None):
        entry = {"name": name, "status": "pass" if ok else "fail"}
        if witness is not None:
            entry["witness"] = witness
        clauses.append(entry)

    rays_s = ray_matrix(spec)
    cone_s = Cone(J.ring, [rays_s.row(r) for r in range(N)])
    init_s = cone_initial_ideal(J, cone_s)
    initial_ideals["frame"] = render_ideal(init_s)
    cert_s = is_totally_positive(init_s)
    record(
        "frame_cone_prime_positive",
        not contains_monomial(init_s)
        and is_binomial(init_s)
        and is_prime_binomial(init_s)
        and cert_s.verdict == "positive",
        witness={"point": [str(x) for x in cert_s.point]} if cert_s.point else None,
    )

    lineality_ok = True
    for r in range(seed.n, N):
        row = [-x for x in rays_s.row(r)]
        if not ideal_equal(initial_ideal(J, OrderSpec.weight_order(row)), J):
            lineality_ok = False
    record("frozen_rows_in_lineality", lineality_ok)

    for k in range(1, seed.n + 1):
        rays_k = ray_matrix(spec, (k,))
        diff_rows = [r for r in range(N) if rays_k.row(r) != rays_s.row(r)]
        record(f"mutation_{k}_changes_one_row", diff_rows == [k - 1])
        cone_k = Cone(J.ring, [rays_k.row(r) for r in range(N)])
        init_k = cone_initial_ideal(J, cone_k)
        initial_ideals["mutated"][str(k)] = render_ideal(init_k)
        cert_k = is_totally_positive(init_k)
        record(
            f"mutation_{k}_adjacent_prime_positive",
            (not ideal_equal(init_s, init_k))
            and is_binomial(init_k)
            and is_prime_binomial(init_k)
            and cert_k.verdict == "positive",
            witness={"point": [str(x) for x in cert_k.point]} if cert_k.point else None,
        )

    return {
        "seed": {
            "n": seed.n,
            "m": seed.m,
            "B": [list(row) for row in seed.B],
        },
        "clauses": clauses,
        "initial_ideals": initial_ideals,
    }
