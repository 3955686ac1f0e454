import math
from fractions import Fraction

import pytest

from tropcluster.flag import _load_data, _ray_vector, extended_ideal, flag_plucker_ideal
from tropcluster.groebner import Ideal, ideal_equal, initial_ideal
from tropcluster.poly import OrderSpec, PolyRing, parse_polynomial
from tropcluster.trop import (
    Cone,
    NotACone,
    NotBinomial,
    NotCertified,
    _cone_weights,
    _iterated_initial_ideal,
    cone_initial_ideal,
    cones_adjacent,
    in_tropicalization,
    is_binomial,
    is_prime_binomial,
    is_totally_positive,
    lineality_vectors,
    same_groebner_cone,
)

RA = PolyRing(["A1", "A2", "A3", "A4", "A5", "A6"])


def _ideal(ring, *gens):
    return Ideal(ring, [parse_polynomial(g, ring) for g in gens])


def cluster_ideal():
    return _ideal(
        RA,
        "A1*A4 - 1 - A2",
        "A2*A5 - A3 - A4",
        "A6*A4 - A3 - A5",
        "A5*A1 - A6 - 1",
        "A6*A2 - A3*A1 - 1",
    )


# adjacent maximal prime cones of the cluster ideal (min-convention rays)
TAU_S = [(-1, -1, 1, 0, 1, 1), (1, 0, 0, -1, -1, 0), (1, 0, -1, -1, -1, 0)]
TAU_SP = [(1, 1, -1, -1, -2, -1), (1, 0, 0, -1, -1, 0), (1, 0, -1, -1, -1, 0)]

FLAG3_RING = PolyRing(
    ["p1", "p2", "p3", "p12", "p13", "p23"],
    degrees=[(1, 0)] * 3 + [(0, 1)] * 3,
)


def flag3_ideal():
    return _ideal(FLAG3_RING, "p1*p23 - p2*p13 + p3*p12")


def test_cone_validation():
    with pytest.raises(ValueError):
        Cone(RA, [(0, 0, 0, 0, 0, 0)])
    with pytest.raises(ValueError):
        Cone(RA, [(1, 2)])


def test_cone_json_roundtrip():
    c = Cone(RA, TAU_S, lineality=[(1, 1, 1, 1, 1, 1)])
    c2 = Cone.from_json(RA, c.to_json())
    assert c2.rays == c.rays and c2.lineality == c.lineality


def test_cone_initial_ideals_of_cluster_example():
    J = cluster_ideal()
    init_s = cone_initial_ideal(J, Cone(RA, TAU_S))
    expect_s = _ideal(RA, "A4*A6 - A5", "A2*A6 - 1", "A1*A5 - 1", "A2*A5 - A4", "A1*A4 - A2")
    assert ideal_equal(init_s, expect_s)
    init_sp = cone_initial_ideal(J, Cone(RA, TAU_SP))
    expect_sp = _ideal(RA, "A2*A6 - 1", "A1*A4 - 1", "A1*A5 - A6", "A2*A5 - A4", "A4*A6 - A5")
    assert ideal_equal(init_sp, expect_sp)


def test_cone_initial_ideal_ray_order_invariance():
    J = cluster_ideal()
    base = cone_initial_ideal(J, Cone(RA, TAU_S))
    for perm in [(1, 0, 2), (2, 1, 0), (1, 2, 0)]:
        shuffled = Cone(RA, [TAU_S[i] for i in perm])
        assert ideal_equal(cone_initial_ideal(J, shuffled), base)


def test_cone_initial_ideal_lineality_only():
    J3 = flag3_ideal()
    c = Cone(FLAG3_RING, rays=[], lineality=lineality_vectors(FLAG3_RING))
    assert ideal_equal(cone_initial_ideal(J3, c), J3)


def test_cone_initial_ideal_not_a_cone():
    J3 = flag3_ideal()
    # a weight whose initial form is a monomial
    bad = Cone(FLAG3_RING, [(-5, -1, 0, 0, 0, 0)])
    with pytest.raises(NotACone):
        cone_initial_ideal(J3, bad)


def test_in_tropicalization():
    J3 = flag3_ideal()
    assert in_tropicalization(J3, (0, 1, 1, 0, 0, 0))
    assert not in_tropicalization(J3, (5, 1, 0, 0, 0, 0))
    assert in_tropicalization(J3, (0, 0, 0, 0, 0, 0))


def test_lineality_vectors():
    assert lineality_vectors(FLAG3_RING) == [(1, 1, 1, 0, 0, 0), (0, 0, 0, 1, 1, 1)]
    single = PolyRing(["x", "y"])
    assert lineality_vectors(single) == [(1, 1)]


def test_lineality_fixes_homogeneous_ideals():
    J3 = flag3_ideal()
    for l in lineality_vectors(FLAG3_RING):
        assert ideal_equal(initial_ideal(J3, OrderSpec.weight_order(l)), J3)


def test_is_binomial():
    assert not is_binomial(flag3_ideal())
    assert is_binomial(_ideal(PolyRing(["x"]), "x - 1"))
    J = cluster_ideal()
    assert is_binomial(cone_initial_ideal(J, Cone(RA, TAU_S)))


def test_is_prime_binomial():
    J = cluster_ideal()
    assert is_prime_binomial(cone_initial_ideal(J, Cone(RA, TAU_S)))
    rxy = PolyRing(["x", "y"])
    assert not is_prime_binomial(_ideal(rxy, "x^2 - y^2"))
    assert is_prime_binomial(_ideal(rxy, "x - y"))
    with pytest.raises(NotBinomial):
        is_prime_binomial(flag3_ideal())


def test_prime_binomial_monomial_cases():
    rxy = PolyRing(["x", "y"])
    # contains a monomial
    assert not is_prime_binomial(_ideal(rxy, "x^2 - x*y", "y^2"))
    # not saturated at the coordinate torus
    assert not is_prime_binomial(_ideal(rxy, "x^2 - x*y"))


def test_total_positivity_certificates():
    J = cluster_ideal()
    cert = is_totally_positive(cone_initial_ideal(J, Cone(RA, TAU_S)))
    assert cert.verdict == "positive" and cert.point == (1,) * 6
    w2 = initial_ideal(flag3_ideal(), OrderSpec.weight_order((1, 0, 1, 0, 0, 0)))
    cert2 = is_totally_positive(w2)
    assert cert2.verdict == "not_positive"
    assert cert2.witness is not None
    assert w2.contains(cert2.witness)
    zero = Ideal(RA, [])
    assert is_totally_positive(zero).verdict == "positive"


def test_total_positivity_nontrivial_ratio():
    rxy = PolyRing(["x", "y"])
    cert = is_totally_positive(_ideal(rxy, "x - 2*y"))
    assert cert.verdict == "positive"
    x, y = cert.point
    assert x == 2 * y and x > 0 and y > 0
    # the only positive zeros have x/y = sqrt(2): positive, no rational point
    cert = is_totally_positive(_ideal(rxy, "x^2 - 2*y^2"))
    assert cert.verdict == "positive" and cert.point is None


def test_total_positivity_exact_points():
    rxyz = PolyRing(["x", "y", "z"])
    ideal = _ideal(rxyz, "4*x^2 - 9*y^2", "x*z - 3*y^2")
    cert = is_totally_positive(ideal)
    assert cert.verdict == "positive"
    assert all(isinstance(c, Fraction) and c > 0 for c in cert.point)
    for g in ideal.generators:
        assert sum(c * math.prod(p ** e for p, e in zip(cert.point, exp))
                   for exp, c in g.terms.items()) == 0


def test_same_groebner_cone():
    J3 = flag3_ideal()
    w1 = (0, 1, 1, 0, 0, 0)
    assert same_groebner_cone(J3, w1, tuple(2 * x for x in w1))
    assert not same_groebner_cone(J3, w1, (1, 1, 0, 0, 0, 0))
    l = lineality_vectors(FLAG3_RING)[0]
    assert same_groebner_cone(J3, w1, tuple(a + b for a, b in zip(w1, l)))


def test_cones_adjacent():
    J = cluster_ideal()
    assert cones_adjacent(J, Cone(RA, TAU_S), Cone(RA, TAU_SP))
    assert not cones_adjacent(J, Cone(RA, TAU_S), Cone(RA, TAU_S))
    with pytest.raises(NotCertified):
        # a lineality-only cone leaves the (non-binomial) ideal unchanged
        cones_adjacent(J, Cone(RA, TAU_S), Cone(RA, [], lineality=[TAU_S[1]]))


@pytest.mark.parametrize(
    "ideal, data, skip",
    [
        (lambda: flag_plucker_ideal(4), "flag4_census.json", ()),
        # extended C24's stacked route takes seconds; test_05 runs it
        (extended_ideal, "flag4_extended.json", ("C24",)),
    ],
    ids=["plucker", "extended"],
)
def test_iterated_route_matches_stacked_route(ideal, data, skip):
    J = ideal()
    ring = J.ring
    assert ring.is_positively_graded() and J.is_homogeneous()  # stacked route
    census = _load_data(data)
    rays = {label: _ray_vector(ring, spec) for label, spec in census["rays"].items()}
    cones = {label: rs for label, rs in census["cones"].items() if label not in skip}
    assert len(cones) == 14 - len(skip)
    for label, ray_labels in cones.items():
        cone = Cone(ring, [rays[r] for r in ray_labels], lineality_vectors(ring))
        iterated = _iterated_initial_ideal(J, _cone_weights(J, cone))
        assert ideal_equal(iterated, cone_initial_ideal(J, cone)), label
