"""End-to-end acceptance gate: the worked examples and property suites,
each with its runtime budget."""

import itertools
import random
import time
from contextlib import contextmanager

import pytest
import sympy

from tropcluster.cluster import SeedData, gmatrix, mutate_matrix, mutate_seed
from tropcluster.exactmath import QMatrix, invert
from tropcluster.fflv import (
    fflv_initial_ideal,
    fflv_m_vector,
    fflv_m_vector_oracle,
    fflv_weight_vector,
    verify_fflv_not_positive,
)
from tropcluster.flag import (
    flag4_census,
    flag4_extended_census,
    flag_plucker_ideal,
    plucker_subsets,
    sn_action,
)
from tropcluster.groebner import Ideal, contains_monomial, ideal_equal, initial_ideal
from tropcluster.poly import OrderSpec, PolyRing, parse_polynomial
from tropcluster.present import (
    KhovanskiiSpec,
    presentation_ideal,
    ray_matrix,
    verify_main_theorem,
)
from tropcluster.trop import (
    Cone,
    cone_initial_ideal,
    in_tropicalization,
    is_prime_binomial,
    is_totally_positive,
    lineality_vectors,
)

SEED = SeedData(2, 1, [[0, 1, 0], [-1, 0, -1], [0, 1, 1]])
BASIS = [
    ((), 1, "A1"),
    ((), 2, "A2"),
    ((), 3, "A3"),
    ((1,), 1, "A4"),
    ((1, 2), 2, "A5"),
    ((1, 2, 1), 1, "A6"),
]
SPEC = KhovanskiiSpec(SEED, BASIS)


@contextmanager
def deadline(seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"took {elapsed:.1f}s, budget {seconds}s"


def test_01_rank_two_example_end_to_end():
    with deadline(5):
        g_s = gmatrix(SEED, [(w, i) for w, i, _ in BASIS])
        assert g_s == QMatrix(
            [[1, 0, 0, -1, -1, 0], [0, 1, 0, 1, 0, -1], [0, 0, 1, 0, 0, 0]]
        )
        g_sp = gmatrix(SEED, [(w, i) for w, i, _ in BASIS], frame=(1,))
        assert g_sp == QMatrix(
            [[-1, 0, 0, 1, 1, 0], [0, 1, 0, 0, -1, -1], [0, 0, 1, 0, 0, 0]]
        )

        assert -invert(QMatrix(SEED.B)).transpose() == QMatrix(
            [[-1, -1, 1], [1, 0, 0], [1, 0, -1]]
        )
        seed_p = mutate_matrix(SEED, 1)
        assert -invert(QMatrix(seed_p.B)).transpose() == QMatrix(
            [[-1, 1, -1], [-1, 0, 0], [-1, 0, -1]]
        )

        pres = presentation_ideal(SPEC)
        expected = Ideal(
            pres.ring,
            [
                parse_polynomial(t, pres.ring)
                for t in [
                    "A1*A4 - 1 - A2",
                    "A2*A5 - A3 - A4",
                    "A6*A4 - A3 - A5",
                    "A5*A1 - A6 - 1",
                    "A6*A2 - A3*A1 - 1",
                ]
            ],
        )
        assert ideal_equal(pres.ideal, expected)

        rays_s = ray_matrix(SPEC)
        rays_sp = ray_matrix(SPEC, (1,))
        assert rays_s.row(2) == (1, 0, -1, -1, -1, 0)
        assert rays_sp.row(2) == (1, 0, -1, -1, -1, 0)

        def frozen_ideal(gens):
            return Ideal(pres.ring, [parse_polynomial(t, pres.ring) for t in gens])

        init_s = cone_initial_ideal(
            pres.ideal, Cone(pres.ring, [rays_s.row(r) for r in range(3)])
        )
        assert ideal_equal(
            init_s,
            frozen_ideal(
                ["A4*A6 - A5", "A2*A6 - 1", "A2*A5 - A4", "A1*A5 - 1", "A1*A4 - A2"]
            ),
        )
        init_sp = cone_initial_ideal(
            pres.ideal, Cone(pres.ring, [rays_sp.row(r) for r in range(3)])
        )
        assert ideal_equal(
            init_sp,
            frozen_ideal(
                ["A4*A6 - A5", "A2*A6 - 1", "A2*A5 - A4", "A1*A5 - A6", "A1*A4 - 1"]
            ),
        )


def test_02_main_theorem_both_directions():
    with deadline(30):
        report = verify_main_theorem(SPEC)
        failed = [c["name"] for c in report["clauses"] if c["status"] != "pass"]
        assert not failed
        names = {c["name"] for c in report["clauses"]}
        for k in (1, 2):
            assert f"mutation_{k}_changes_one_row" in names
            assert f"mutation_{k}_adjacent_prime_positive" in names


FLAG3_RAY_DATA = [
    ("w1", (0, 1, 1, 0, 0, 0), "-p2*p13 + p3*p12", "positive"),
    ("w2", (1, 0, 1, 0, 0, 0), "p1*p23 + p3*p12", "not_positive"),
    ("w3", (1, 1, 0, 0, 0, 0), "p1*p23 - p2*p13", "positive"),
]


def test_03_three_ray_fan_of_smallest_flag():
    with deadline(1):
        j3 = flag_plucker_ideal(3)
        for label, w, gen, verdict in FLAG3_RAY_DATA:
            init = initial_ideal(j3, OrderSpec.weight_order(w))
            assert ideal_equal(
                init, Ideal(j3.ring, [parse_polynomial(gen, j3.ring)])
            ), label
            cert = is_totally_positive(init)
            assert cert.verdict == verdict, label
            if label == "w2":
                assert cert.witness is not None
                assert cert.witness == parse_polynomial("p1*p23 + p3*p12", j3.ring)


def test_04_flag4_census():
    with deadline(600):
        report = flag4_census()
        assert len(report["cones"]) == 14
        for label, info in report["cones"].items():
            assert info["monomial_free"], label
            assert info["binomial"], label
            assert info["positive"] == "positive", label
        assert sorted(
            l for l, info in report["cones"].items() if not info["prime"]
        ) == ["C17", "C51"]
        assert report["adjacency_counts"] == {"vertices": 14, "edges": 21}
        degree = {}
        for a, b in report["adjacency"]:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        assert set(degree.values()) == {3}


def test_05_extended_embedding():
    with deadline(600):
        report = flag4_extended_census()
        assert report["eliminates_to_plucker"] is True
        assert report["x_degree"] == 2
        assert report["homogeneous"] is True
        for label in ("C17", "C51"):
            assert report["cones"][label]["prime"], label
        assert all(info["prime"] for info in report["cones"].values())


def test_06_pbw_degeneration_n4():
    with deadline(600):
        for subset in plucker_subsets(4):
            assert fflv_m_vector(4, subset) == fflv_m_vector_oracle(4, subset)

        init = fflv_initial_ideal(4)
        printed = [
            "p24*p134 - p14*p234",
            "p14*p123 + p12*p134",
            "p4*p23 - p3*p24",
            "p3*p12 + p1*p23",
            "p13*p24 - p12*p34",
            "p34*p123 + p13*p234",
            "p4*p13 + p1*p34",
            "p24*p123 + p12*p234",
            "p4*p12 + p1*p24",
            "p4*p123 - p1*p234",
        ]
        assert ideal_equal(
            init, Ideal(init.ring, [parse_polynomial(g, init.ring) for g in printed])
        )

        sigma = (2, 4, 1, 3)  # inverse of the 4-cycle 1->3->4->2->1
        moved = Ideal(init.ring, [sn_action(sigma, g) for g in init.generators])
        printed_positive = [
            "p34*p123 - p23*p134",
            "p24*p123 - p23*p124",
            "p3*p14 - p1*p34",
            "p2*p14 - p1*p24",
            "p13*p24 - p12*p34",
            "p13*p124 - p12*p134",
            "p3*p12 - p2*p13",
            "p34*p124 - p24*p134",
            "p3*p24 - p2*p34",
            "p3*p124 - p2*p134",
        ]
        assert ideal_equal(
            moved,
            Ideal(init.ring, [parse_polynomial(g, init.ring) for g in printed_positive]),
        )
        assert is_totally_positive(moved).verdict == "positive"

        assert is_prime_binomial(init)
        w = fflv_weight_vector(4)
        # min-convention weight: negate for the max-convention engine
        assert in_tropicalization(flag_plucker_ideal(4), tuple(-x for x in w))


def test_07_orbit_analysis_n5():
    with deadline(1800):
        report = verify_fflv_not_positive(5)
        perms = report["permutations"]
        assert len(perms) == 120
        assert all("witness" in entry for entry in perms.values())
        witness = perms["1,2,3,4,5"]["witness"]
        ring = flag_plucker_ideal(5).ring
        assert parse_polynomial(witness, ring) == parse_polynomial(
            "p1*p23 + p3*p12", ring
        )


# -- property suites --------------------------------------------------------


def _random_size3_seed(rng):
    n = rng.choice((1, 2, 3))
    m = 3 - n
    b = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            x = rng.randint(-3, 3)
            if i < n or j < n:  # any mutable index: skew-symmetric pair
                b[i][j], b[j][i] = x, -x
            else:  # frozen block is unconstrained
                b[i][j], b[j][i] = x, rng.randint(-3, 3)
    for i in range(n, 3):
        b[i][i] = rng.randint(-3, 3)
    return SeedData(n, m, b)


def _brute_monomial_member(ideal, max_degree=8):
    n = ideal.ring.nvars
    for total in range(1, max_degree + 1):
        for e in itertools.combinations_with_replacement(range(n), total):
            exp = [0] * n
            for i in e:
                exp[i] += 1
            if ideal.contains(ideal.ring.monomial(exp)):
                return True
    return False


def test_08_property_suites():
    with deadline(600):
        # mutation is an involution and both sign choices agree (the
        # disagreement check is built into mutate_matrix) on random seeds
        rng = random.Random(20260826)
        for _ in range(200):
            seed = _random_size3_seed(rng)
            k = rng.randint(1, seed.n)
            assert mutate_matrix(mutate_matrix(seed, k), k) == seed

        # the two g-vector routes agree on random words (gmatrix raises on
        # any disagreement)
        for _ in range(20):
            word = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 6)))
            i = rng.randint(1, 3)
            gmatrix(SEED, [(word, i)])
            frame = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 3)))
            gmatrix(SEED, [(word, i)], frame)

        # census initial ideals are fixed points of their own cone weights,
        # and lineality shifts do not change a weight initial ideal
        census = flag4_census()
        j4 = flag_plucker_ideal(4)
        ring = j4.ring
        lineality = lineality_vectors(ring)
        data_rays = {
            "e1": "p1", "e4": "p4", "e12": "p12", "e34": "p34",
            "e123": "p123", "e234": "p234",
        }
        for label, info in census["cones"].items():
            init = Ideal(
                ring, [parse_polynomial(g, ring) for g in info["initial_ideal"]]
            )
            for ray in info["rays"]:
                if ray not in data_rays:
                    continue
                w = [0] * ring.nvars
                w[ring.index(data_rays[ray])] = -1  # min convention, negated
                assert ideal_equal(
                    initial_ideal(init, OrderSpec.weight_order(tuple(w))), init
                ), (label, ray)
        w1 = (0, 1, 1, 0, 0, 0)
        j3 = flag_plucker_ideal(3)
        for l in lineality_vectors(j3.ring):
            shifted = tuple(a + b for a, b in zip(w1, l))
            assert ideal_equal(
                initial_ideal(j3, OrderSpec.weight_order(w1)),
                initial_ideal(j3, OrderSpec.weight_order(shifted)),
            )

        # contains_monomial against brute-force monomial enumeration
        rxy = PolyRing(["x", "y"])
        for _ in range(50):
            gens = []
            for _ in range(2):
                terms = {}
                for _ in range(2):
                    e = (rng.randint(0, 3), rng.randint(0, 3))
                    c = rng.choice([-2, -1, 1, 2])
                    terms[e] = terms.get(e, 0) + c
                poly = sum(
                    (rxy.monomial(e, c) for e, c in terms.items() if c), rxy.zero()
                )
                if poly:
                    gens.append(poly)
            if not gens:
                continue
            ideal = Ideal(rxy, gens)
            assert contains_monomial(ideal) == _brute_monomial_member(ideal)

        # geometric primality of difference binomials against a factoring
        # oracle: u - v is geometrically prime iff it is squarefree with a
        # single non-monomial irreducible factor over the rationals
        syms = sympy.symbols("x y z")
        rxyz = PolyRing(["x", "y", "z"])
        for _ in range(60):
            a = tuple(rng.randint(0, 3) for _ in range(3))
            b = tuple(rng.randint(0, 3) for _ in range(3))
            if a == b:
                continue
            f = rxyz.monomial(a) - rxyz.monomial(b)
            got = is_prime_binomial(Ideal(rxyz, [f]))
            expr = sympy.prod(s**e for s, e in zip(syms, a)) - sympy.prod(
                s**e for s, e in zip(syms, b)
            )
            _, factors = sympy.factor_list(expr)
            nontrivial = [
                (base, mult)
                for base, mult in factors
                if len(base.as_poly(*syms).monoms()) > 1
            ]
            monomial_content = any(
                len(base.as_poly(*syms).monoms()) == 1 for base, _ in factors
            )
            expected = (
                not monomial_content
                and len(nontrivial) == 1
                and nontrivial[0][1] == 1
            )
            assert got == expected, (a, b)
