from fractions import Fraction

import pytest

from tropcluster.cluster import SeedData
from tropcluster.exactmath import QMatrix, SingularMatrix
from tropcluster.groebner import Ideal, ideal_equal, saturate
from tropcluster.poly import OrderSpec, parse_polynomial
from tropcluster.present import (
    KhovanskiiSpec,
    presentation_ideal,
    ray_matrix,
    verify_khovanskii,
    verify_main_theorem,
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

EXCHANGE_RELATIONS = [
    "A1*A4 - 1 - A2",
    "A2*A5 - A3 - A4",
    "A6*A4 - A3 - A5",
    "A5*A1 - A6 - 1",
    "A6*A2 - A3*A1 - 1",
]


def test_basis_names_distinct():
    with pytest.raises(ValueError):
        KhovanskiiSpec(SEED, [((), 1, "x"), ((), 2, "x")])


def test_presentation_matches_exchange_relations():
    pres = presentation_ideal(SPEC)
    target = Ideal(
        pres.ring, [parse_polynomial(t, pres.ring) for t in EXCHANGE_RELATIONS]
    )
    assert ideal_equal(pres.ideal, target)


def test_presentation_is_saturated():
    pres = presentation_ideal(SPEC)
    prod = pres.ring.monomial((1,) * pres.ring.nvars)
    assert ideal_equal(pres.ideal, saturate(pres.ideal, prod))


def test_presentation_initial_seed_only():
    spec = KhovanskiiSpec(SEED, BASIS[:3])
    pres = presentation_ideal(spec)
    assert not pres.ideal.generators


def test_presentation_grading_scales_rational_rows():
    spec = KhovanskiiSpec(SeedData(2, 1, [[0, 1, 2], [-1, 0, 2], [-2, -2, -2]]), BASIS)
    assert ray_matrix(spec).row(2) == (1, -1, Fraction(1, 2), -1, 1, 2)
    pres = presentation_ideal(spec)
    assert pres.ring.degrees == ((2,), (-2,), (1,), (-2,), (2,), (4,))
    assert all(g.is_homogeneous() for g in pres.ideal.generators)


def test_presentation_is_weight_homogeneous():
    # the kernel is homogeneous for the frozen ray-matrix grading
    pres = presentation_ideal(SPEC)
    for g in pres.ideal.generators:
        assert g.is_homogeneous()


def test_presentation_grassmannian_2_4():
    seed = SeedData(
        1,
        4,
        [
            [0, -1, 1, -1, 1],
            [1, 1, 0, 0, 0],
            [-1, 0, 1, 0, 0],
            [1, 0, 0, 1, 0],
            [-1, 0, 0, 0, 1],
        ],
    )
    basis = [
        ((), 1, "p13"),
        ((), 2, "p12"),
        ((), 3, "p23"),
        ((), 4, "p34"),
        ((), 5, "p14"),
        ((1,), 1, "p24"),
    ]
    pres = presentation_ideal(KhovanskiiSpec(seed, basis))
    target = Ideal(
        pres.ring, [parse_polynomial("p12*p34 - p13*p24 + p14*p23", pres.ring)]
    )
    assert ideal_equal(pres.ideal, target)


def test_ray_matrix_frames():
    assert ray_matrix(SPEC) == QMatrix(
        [[-1, -1, 1, 0, 1, 1], [1, 0, 0, -1, -1, 0], [1, 0, -1, -1, -1, 0]]
    )
    # entry 5 of the first row is the exact matrix product value (the
    # printed source data has a typo there)
    assert ray_matrix(SPEC, (1,)) == QMatrix(
        [[1, 1, -1, -1, -2, -1], [1, 0, 0, -1, -1, 0], [1, 0, -1, -1, -1, 0]]
    )


def test_ray_matrix_singular():
    bad = SeedData(1, 1, [[0, 0], [0, 0]])
    with pytest.raises(SingularMatrix):
        ray_matrix(KhovanskiiSpec(bad, [((), 1, "x"), ((), 2, "y")]))


def test_ray_matrices_differ_in_one_row():
    rs = ray_matrix(SPEC)
    for k in (1, 2):
        rk = ray_matrix(SPEC, (k,))
        diff = [r for r in range(3) if rk.row(r) != rs.row(r)]
        assert diff == [k - 1]


def test_verify_khovanskii():
    pres = presentation_ideal(SPEC)
    assert verify_khovanskii(SPEC, (), pres)
    assert verify_khovanskii(SPEC, (1,), pres)


def test_verify_khovanskii_negative():
    # dropping A6 breaks the Khovanskii property in the initial frame:
    # its valuation is not reachable from the remaining five
    spec = KhovanskiiSpec(SEED, BASIS[:5])
    assert not verify_khovanskii(spec)


def test_verify_main_theorem_report():
    report = verify_main_theorem(SPEC)
    assert all(c["status"] == "pass" for c in report["clauses"])
    names = [c["name"] for c in report["clauses"]]
    assert "frame_cone_prime_positive" in names
    assert "frozen_rows_in_lineality" in names
    assert "mutation_1_changes_one_row" in names
    frame_init = set(report["initial_ideals"]["frame"])
    assert frame_init == {
        "A4*A6 - A5",
        "A2*A6 - 1",
        "A2*A5 - A4",
        "A1*A5 - 1",
        "A1*A4 - A2",
    }
    sp_init = set(report["initial_ideals"]["mutated"]["1"])
    assert sp_init == {
        "A4*A6 - A5",
        "A2*A6 - 1",
        "A2*A5 - A4",
        "A1*A5 - A6",
        "A1*A4 - 1",
    }


def test_verify_main_theorem_rank_one():
    seed = SeedData(1, 1, [[0, -1], [1, 1]])
    spec = KhovanskiiSpec(seed, [((), 1, "B1"), ((), 2, "B2"), ((1,), 1, "B3")])
    report = verify_main_theorem(spec)
    assert all(c["status"] == "pass" for c in report["clauses"])
