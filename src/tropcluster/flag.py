"""Plucker ideals of flag varieties, the symmetric-group action, and the
census of totally positive tropical cones for the n=4 flag variety in both
its Plucker and extended embeddings.

Plucker variables are indexed by nonempty proper subsets of {1..n}, ordered
by (cardinality, lexicographic); the variable for {1,3} is named p13.  The
ring is multigraded by subset cardinality, so the lineality vectors of
every homogeneous ideal come from the grading functionals.
"""

from __future__ import annotations

import functools
import itertools
import json
from fractions import Fraction
from importlib import resources
from typing import Sequence

from .exactmath import QMatrix, kernel_basis
from .groebner import Ideal, eliminate, ideal_equal, render_ideal
from .poly import Polynomial, PolyRing
from .trop import (
    Cone,
    cone_initial_ideal,
    contains_monomial,
    is_binomial,
    is_prime_binomial,
    is_totally_positive,
    lineality_vectors,
)


class UnsupportedN(Exception):
    pass


class IndexClash(Exception):
    """Three-term relation indices are not disjoint/ordered as required."""


def plucker_subsets(n: int) -> list[tuple]:
    out = []
    for k in range(1, n):
        out.extend(itertools.combinations(range(1, n + 1), k))
    return out


def plucker_name(subset: Sequence[int]) -> str:
    return "p" + "".join(str(j) for j in subset)


def flag_ring(n: int) -> PolyRing:
    subsets = plucker_subsets(n)
    names = [plucker_name(s) for s in subsets]
    degrees = []
    for s in subsets:
        d = [0] * (n - 1)
        d[len(s) - 1] = 1
        degrees.append(tuple(d))
    return PolyRing(names, degrees)


def _minor(subset: Sequence[int], n: int, xring: PolyRing) -> Polynomial:
    """Top-|subset| minor of a generic n x n matrix on the given columns."""
    k = len(subset)
    result = xring.zero()
    for perm in itertools.permutations(range(k)):
        sign = 1
        for a in range(k):
            for b in range(a + 1, k):
                if perm[a] > perm[b]:
                    sign = -sign
        e = [0] * xring.nvars
        for row, col_pos in enumerate(perm):
            col = subset[col_pos] - 1
            e[row * n + col] += 1
        result = result + xring.monomial(e, sign)
    return result


@functools.cache
def flag_plucker_ideal(n: int) -> Ideal:
    """The multihomogeneous defining ideal of the full flag variety.

    Computed as the kernel, in each quadratic bidegree, of the substitution
    p_J -> (top |J| rows, columns J) minor of a generic matrix; the flag
    ideal is quadratically generated so degree two suffices.
    """
    if not 3 <= n <= 5:
        raise UnsupportedN(f"n={n} outside supported range 3..5")
    ring = flag_ring(n)
    xring = PolyRing([f"x{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1)])
    subsets = plucker_subsets(n)
    minors = {s: _minor(s, n, xring) for s in subsets}
    gens = []
    by_card: dict[int, list] = {}
    for s in subsets:
        by_card.setdefault(len(s), []).append(s)
    for k1 in range(1, n):
        for k2 in range(k1, n):
            block1, block2 = by_card[k1], by_card[k2]
            products = []
            if k1 == k2:
                for a in range(len(block1)):
                    for b in range(a, len(block1)):
                        products.append((block1[a], block1[b]))
            else:
                products = [(s, t) for s in block1 for t in block2]
            # coefficient matrix: column per product, row per x-monomial
            images = [minors[s] * minors[t] for s, t in products]
            monomials = sorted({e for f in images for e in f.terms})
            index = {e: i for i, e in enumerate(monomials)}
            rows = [[Fraction(0)] * len(products) for _ in monomials]
            for col, f in enumerate(images):
                for e, c in f.terms.items():
                    rows[index[e]][col] = c
            for v in kernel_basis(QMatrix(rows)):
                poly = ring.zero()
                for (s, t), coeff in zip(products, v):
                    if coeff:
                        e = [0] * ring.nvars
                        e[ring.index(plucker_name(s))] += 1
                        e[ring.index(plucker_name(t))] += 1
                        poly = poly + ring.monomial(e, coeff)
                gens.append(poly)
    return Ideal(ring, gens)


def three_term_relation(n: int, J: Sequence[int], i: int, j: int, k: int,
                        ring: PolyRing | None = None) -> Polynomial:
    """p_{iJ} p_{jkJ} - p_{jJ} p_{ikJ} + p_{kJ} p_{ijJ} in the flag ring."""
    ring = ring or flag_ring(n)
    J = tuple(sorted(J))
    if not i < j < k:
        raise IndexClash("need i < j < k")
    if len({i, j, k} | set(J)) != len(J) + 3:
        raise IndexClash("indices i, j, k must avoid J")
    if len(J) + 2 >= n:
        raise IndexClash("index sets must be proper subsets")
    result = ring.zero()
    for sign, single, pair in ((1, i, (j, k)), (-1, j, (i, k)), (1, k, (i, j))):
        e = [0] * ring.nvars
        e[ring.index(plucker_name(tuple(sorted(J + (single,)))))] += 1
        e[ring.index(plucker_name(tuple(sorted(J + pair))))] += 1
        result = result + ring.monomial(e, sign)
    return result


def _subset_sign(images: Sequence[int]) -> int:
    """Parity (+1/-1) of the permutation sorting the image sequence."""
    sign = 1
    items = list(images)
    for a in range(len(items)):
        for b in range(a + 1, len(items)):
            if items[a] > items[b]:
                sign = -sign
    return sign


def sn_action(sigma: Sequence[int], f: Polynomial) -> Polynomial:
    """Signed substitution p_J -> sign * p_{sigma(J)}, applied termwise.

    ``sigma`` is a permutation of 1..n given as the tuple of images,
    sigma[i-1] = sigma(i).
    """
    ring = f.ring
    n = len(sigma)
    result = ring.zero()
    sub_cache: dict[int, tuple[int, int]] = {}
    for idx, name in enumerate(ring.names):
        if not name.startswith("p"):
            continue
        subset = tuple(int(ch) for ch in name[1:])
        images = [sigma[x - 1] for x in subset]
        target = ring.index(plucker_name(tuple(sorted(images))))
        sub_cache[idx] = (target, _subset_sign(images))
    for e, c in f.terms.items():
        out = [0] * ring.nvars
        sign = 1
        for idx, power in enumerate(e):
            if not power:
                continue
            if idx in sub_cache:
                target, s = sub_cache[idx]
                out[target] += power
                if s < 0 and power % 2 == 1:
                    sign = -sign
            else:
                out[idx] += power
        result = result + ring.monomial(out, sign * c)
    return result


# ---------------------------------------------------------------------------
# Flag_4 census


def _load_data(name: str) -> dict:
    return json.loads(resources.files("tropcluster.data").joinpath(name).read_text())


def _ray_vector(ring: PolyRing, ray: dict) -> tuple:
    v = [Fraction(0)] * ring.nvars
    for name, coeff in ray.items():
        v[ring.index(name)] += Fraction(coeff)
    return tuple(v)


def _census(ideal: Ideal, data: dict) -> dict:
    ring = ideal.ring
    rays = {label: _ray_vector(ring, spec) for label, spec in data["rays"].items()}
    lineality = lineality_vectors(ring)
    report = {"cones": {}, "adjacency": []}
    inits = {}
    for label, ray_labels in data["cones"].items():
        cone = Cone(ring, [rays[r] for r in ray_labels], lineality=lineality)
        init = cone_initial_ideal(ideal, cone)
        inits[label] = init
        cert = is_totally_positive(init)
        entry = {
            "rays": list(ray_labels),
            "monomial_free": not contains_monomial(init),
            "binomial": is_binomial(init),
            "prime": is_prime_binomial(init),
            "positive": cert.verdict,
            "initial_ideal": render_ideal(init),
        }
        expected_prime = label not in data.get("non_prime", [])
        entry["prime_as_expected"] = entry["prime"] == expected_prime
        report["cones"][label] = entry
    labels = sorted(data["cones"])
    for a, b in itertools.combinations(labels, 2):
        shared = set(data["cones"][a]) & set(data["cones"][b])
        if len(shared) == 2:
            report["adjacency"].append([a, b])
    report["adjacency_counts"] = {
        "vertices": len(labels),
        "edges": len(report["adjacency"]),
    }
    report["distinct_initial_ideals"] = _count_distinct(inits)
    return report


def _count_distinct(inits: dict) -> int:
    labels = sorted(inits)
    distinct = []
    for l in labels:
        if not any(ideal_equal(inits[l], inits[d]) for d in distinct):
            distinct.append(l)
    return len(distinct)


@functools.cache
def flag4_census() -> dict:
    """Verify the 14 maximal cones of the totally positive tropical flag
    variety (n=4, Plucker embedding): binomial, monomial-free, positive,
    prime except the two recorded exceptions, associahedron adjacency."""
    data = _load_data("flag4_census.json")
    return _census(flag_plucker_ideal(4), data)


def extended_ring() -> PolyRing:
    base = flag_ring(4)
    return PolyRing(("x",) + base.names, ((1, 0, 1),) + base.degrees)


EXTENDED_RELATIONS = [
    "x*p23 - p12*p234*p3 - p2*p34*p123",
    "x*p24 - p4*p12*p234 - p2*p34*p124",
    "x*p13 - p3*p12*p134 - p1*p34*p123",
    "x*p14 - p4*p12*p134 - p1*p34*p124",
    "p124*p3 - x - p4*p123",
    "p2*p134 - x - p1*p234",
]


@functools.cache
def extended_ideal() -> Ideal:
    from .poly import parse_polynomial

    ring = extended_ring()
    gens = []
    j4 = flag_plucker_ideal(4)
    for g in j4.generators:
        gens.append(Polynomial(ring, {(0,) + e: c for e, c in g.terms.items()}))
    gens.extend(parse_polynomial(t, ring) for t in EXTENDED_RELATIONS)
    return Ideal(ring, gens)


@functools.cache
def flag4_extended_census() -> dict:
    """Census for the extended embedding: one extra variable x of degree 2,
    all fourteen cones prime, elimination of x recovers the Plucker ideal."""
    data = _load_data("flag4_extended.json")
    iex = extended_ideal()
    report = _census(iex, data)
    # x carries multidegree (1,0,1); the ideal is homogeneous for it
    report["x_degree"] = sum(iex.ring.degrees[iex.ring.index("x")])
    report["homogeneous"] = all(g.is_homogeneous() for g in iex.generators)
    eliminated = eliminate(iex, [n for n in iex.ring.names if n != "x"])
    j4 = flag_plucker_ideal(4)
    j4_lifted = Ideal(
        eliminated.ring,
        [Polynomial(eliminated.ring, g.terms) for g in j4.generators],
    )
    report["eliminates_to_plucker"] = ideal_equal(eliminated, j4_lifted)
    report["ray_variable_bijection"] = data["bijection"]
    return report
