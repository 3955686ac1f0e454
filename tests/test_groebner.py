import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from tropcluster import groebner
from tropcluster.flag import _load_data, _ray_vector, extended_ideal, flag_plucker_ideal
from tropcluster.groebner import (
    Ideal,
    ResourceBudget,
    buchberger,
    contains_monomial,
    eliminate,
    homogenize,
    ideal_equal,
    initial_ideal,
    normal_form,
    saturate,
    saturate_at_variables,
    standard_monomials,
)
from tropcluster.poly import OrderSpec, PolyRing, parse_polynomial
from tropcluster.trop import Cone, cone_initial_ideal, is_prime_binomial, lineality_vectors

R3 = PolyRing(["x", "y", "z"])


def p(text, ring=R3):
    return parse_polynomial(text, ring)


def ideal(ring, *gens):
    return Ideal(ring, [parse_polynomial(g, ring) for g in gens])


def test_twisted_cubic_lex():
    I = ideal(R3, "x^2 - y", "x^3 - z")
    gb = I.groebner_basis(OrderSpec.term("lex"))
    rendered = [g.render() for g in gb]
    assert "x^2 - y" in rendered
    assert "x*y - z" in rendered
    assert "y^3 - z^2" in rendered
    assert I.contains(p("x*z - y^2"))
    assert not I.contains(p("x*z - y^2 + 1"))


def test_gb_is_canonical():
    I1 = ideal(R3, "x^2 - y", "x^3 - z")
    I2 = ideal(R3, "x^3 - z", "x^2 - y", "x*y - z")
    spec = OrderSpec.term("grevlex")
    assert I1.groebner_basis(spec) == I2.groebner_basis(spec)
    assert ideal_equal(I1, I2)
    assert I1 == I2


def test_normal_form_linearity():
    I = ideal(R3, "x^2 - y", "x^3 - z")
    spec = OrderSpec.term("grevlex")
    gb = I.groebner_basis(spec)
    f, g = p("x^4 + y"), p("x*y*z - z")
    nf = lambda h: normal_form(h, gb, spec)
    assert nf(f + g) == nf(f) + nf(g)
    assert nf(nf(f)) == nf(f)


def test_trivial_ideal():
    assert ideal(R3, "x", "x + 1").is_trivial()
    assert not ideal(R3, "x", "y").is_trivial()


def test_eliminate():
    I = ideal(R3, "x^2 - y", "x^3 - z")
    E = eliminate(I, ["y", "z"])
    assert [g.render() for g in E.generators] == ["y^3 - z^2"]
    assert E.ring.names == ("y", "z")


def test_saturate():
    I = ideal(R3, "x^2*y", "x*z")
    S = saturate(I, R3.variable("x"))
    assert ideal_equal(S, ideal(R3, "y", "z"))
    # saturating by a unit-like element does nothing
    J = ideal(R3, "x*y - z")
    assert ideal_equal(saturate(J, R3.variable("y")), J)


def test_contains_monomial():
    assert not contains_monomial(ideal(R3, "x + y"))
    assert contains_monomial(ideal(R3, "x*y - x^2", "y^2"))
    assert contains_monomial(ideal(R3, "x"))
    assert not contains_monomial(ideal(R3, "x*y - 1"))


def test_homogenize():
    big = PolyRing(["x", "y", "z", "t"])
    f = p("x^2 + y - 1")
    h = homogenize(f, [1, 1, 1], big, "t")
    assert h == parse_polynomial("x^2 + y*t + - 1*t^2", big)
    # weighted homogenization
    h2 = homogenize(p("x^2 + y"), [1, 2, 0], big, "t")
    assert h2 == parse_polynomial("x^2 + y", big)


def test_initial_ideal_term_order():
    I = ideal(R3, "x^2 - y", "x^3 - z")
    init = initial_ideal(I, OrderSpec.term("lex"))
    assert all(len(g.terms) == 1 for g in init.generators)
    assert init.contains(p("x^2"))
    assert not init.contains(p("y"))


def test_initial_ideal_weight_homogeneous():
    ring = PolyRing(["p1", "p2", "p3", "p12", "p13", "p23"])
    J3 = Ideal(ring, [parse_polynomial("p1*p23 - p2*p13 + p3*p12", ring)])
    init = initial_ideal(J3, OrderSpec.weight_order([1, 0, 1, 0, 0, 0]))
    assert ideal_equal(init, Ideal(ring, [parse_polynomial("p1*p23 + p3*p12", ring)]))


def test_initial_ideal_inhomogeneous_cluster_cone():
    """Iterated weight-initial ideals of an inhomogeneous ideal, where the
    computation must go through homogenization."""
    ring = PolyRing(["A1", "A2", "A3", "A4", "A5", "A6"])
    J = ideal(
        ring,
        "A1*A4 - 1 - A2",
        "A2*A5 - A3 - A4",
        "A6*A4 - A3 - A5",
        "A5*A1 - A6 - 1",
        "A6*A2 - A3*A1 - 1",
    )
    I = J
    # weights are max-convention here, hence the negated signs
    for row in [(1, 1, -1, 0, -1, -1), (-1, 0, 0, 1, 1, 0), (-1, 0, 1, 1, 1, 0)]:
        I = initial_ideal(I, OrderSpec.weight_order(row))
    expected = ideal(
        ring,
        "A4*A6 - A5",
        "A2*A6 - 1",
        "A1*A5 - 1",
        "A2*A5 - A4",
        "A1*A4 - A2",
    )
    assert ideal_equal(I, expected)


def test_standard_monomials():
    I = ideal(R3, "x^2 - y", "x^3 - z")
    sm = standard_monomials(I, OrderSpec.term("lex"), 2)
    # standard monomials avoid x^2, x*y, x*z, y^2 (lex leading terms)
    assert (0, 0, 0) in sm
    assert (1, 0, 0) in sm
    assert (2, 0, 0) not in sm
    for e in sm:
        assert not I.contains(R3.monomial(e)) or e == (0, 0, 0)


def test_budget(monkeypatch):
    monkeypatch.setenv("TROPCLUSTER_BUDGET", "1")
    I = ideal(R3, "x^3 - y*z + x", "y^3 - x*z + y", "z^3 - x*y + z")
    with pytest.raises(ResourceBudget):
        I.groebner_basis(OrderSpec.term("lex"))
    monkeypatch.delenv("TROPCLUSTER_BUDGET")
    assert Ideal(R3, I.generators).groebner_basis(OrderSpec.term("grevlex"))


def census_initial_ideals(J=None, data_file="flag4_census.json", skip=()):
    """Label -> initial ideal of each maximal cone of an n=4 census, by
    default the Plucker one."""
    data = _load_data(data_file)
    J = J or flag_plucker_ideal(4)
    ring = J.ring
    rays = {label: _ray_vector(ring, spec) for label, spec in data["rays"].items()}
    lineality = lineality_vectors(ring)
    return {
        label: cone_initial_ideal(J, Cone(ring, [rays[r] for r in ray_labels], lineality))
        for label, ray_labels in data["cones"].items()
        if label not in skip
    }


@pytest.fixture(scope="module")
def census_inits():
    return census_initial_ideals()


def test_cached_bases_reuse_generator_objects(census_inits):
    for init in census_inits.values():
        gb = init.groebner_basis(OrderSpec.term("grevlex"))
        assert all(any(g is h for h in init.generators) for g in gb)


def test_saturate_at_variables_matches_general_saturation(census_inits):
    assert len(census_inits) == 14
    changed = set()
    for label, init in census_inits.items():
        ring = init.ring
        fast = saturate_at_variables(init)
        assert ideal_equal(fast, saturate(init, ring.monomial((1,) * ring.nvars))), label
        if not ideal_equal(fast, init):
            changed.add(label)
    assert changed == {"C17", "C51"}


def test_prime_check_caches_only_grevlex():
    inits = census_initial_ideals()
    for label, prime in (("C17", False), ("C36", True)):
        assert is_prime_binomial(inits[label]) == prime
        assert list(inits[label]._gb_cache) == [OrderSpec.term("grevlex").cache_key()]


def test_saturate_at_variables_on_extended_cones():
    # x has degree (1, 0, 1), so the sweep's grading row is not total degree;
    # extended C24's stacked route takes seconds, and test_05 runs it
    inits = census_initial_ideals(extended_ideal(), "flag4_extended.json", ("C24",))
    assert len(inits) == 13
    for label, init in inits.items():
        prod = init.ring.monomial((1,) * init.ring.nvars)
        fast = saturate_at_variables(init)
        assert ideal_equal(fast, saturate(init, prod)), label
        assert ideal_equal(fast, init), label  # every extended cone is prime


def test_saturate_at_variables_weighted_grading():
    # homogeneous for degrees (1, 2, 2) but not for total degree
    ring = PolyRing(["x", "y", "z"], [(1,), (2,), (2,)])
    I = ideal(ring, "-x^2*y + z^2", "-2*x*y^3 + x*z^3")
    sat = saturate(I, ring.monomial((1, 1, 1)))
    assert ideal_equal(saturate_at_variables(I), sat)
    assert sat.contains(p("x^4 - 2*y*z", ring)) and not I.contains(p("x^4 - 2*y*z", ring))


@st.composite
def graded_binomial_ideals(draw):
    """Binomial ideals in 3-4 variables, homogeneous for a random positive
    grading of width 1 or 2."""
    n = draw(st.integers(3, 4))
    width = draw(st.integers(1, 2))
    degree = st.tuples(*[st.integers(0, 2)] * width).filter(any)
    ring = PolyRing(list("xyzw"[:n]), [draw(degree) for _ in range(n)])
    classes: dict[tuple, list[tuple]] = {}
    for e in itertools.product(range(4), repeat=n):
        classes.setdefault(ring.multidegree(e), []).append(e)
    pairs = [c for c in classes.values() if len(c) > 1]
    assume(pairs)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        members = draw(st.sampled_from(pairs))
        i, j = draw(st.lists(st.integers(0, len(members) - 1), min_size=2, max_size=2,
                             unique=True))
        c = draw(st.integers(-3, 3).filter(bool))
        gens.append(ring.monomial(members[i]) + ring.monomial(members[j], c))
    return Ideal(ring, gens)


@settings(max_examples=100, deadline=None)
@given(graded_binomial_ideals())
def test_saturate_at_variables_matches_saturate_on_graded_binomials(I):
    prod = I.ring.monomial((1,) * I.ring.nvars)
    assert ideal_equal(saturate_at_variables(I), saturate(I, prod))


# Buchberger runs of the sweep per census cone, from the cached grevlex basis;
# cycling through all 14 variables from the generators until 14 in a row
# divided nothing took 14 runs per prime cone and 19 on C17 and C51
SWEEP_RUNS = {
    "C0": 9, "C1": 9, "C3": 8, "C8": 9, "C14": 8, "C17": 8, "C18": 8,
    "C24": 8, "C36": 9, "C44": 8, "C51": 8, "C53": 8, "C71": 8, "C77": 10,
}


def test_saturation_sweep_buchberger_runs(census_inits, monkeypatch):
    real = groebner.buchberger
    calls = []
    monkeypatch.setattr(groebner, "buchberger", lambda *args: calls.append(1) or real(*args))
    runs = {}
    for label, init in census_inits.items():
        init.groebner_basis(OrderSpec.term("grevlex"))  # cached, as after is_binomial
        calls.clear()
        saturate_at_variables(init)
        runs[label] = len(calls)
    assert runs == SWEEP_RUNS


def test_is_homogeneous():
    I = ideal(R3, "x^2 - y*z", "x*y")
    assert I.is_homogeneous() and not I._gb_cache  # no basis needed
    assert ideal(R3, "x^2 - y", "y").is_homogeneous()  # through the basis (x^2, y)
    assert not ideal(R3, "x^2 - y").is_homogeneous()
