from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropcluster.poly import (
    OrderSpec,
    Polynomial,
    PolyRing,
    ZeroPolynomial,
    initial_form,
    leading_term,
    parse_polynomial,
)

R3 = PolyRing(["x", "y", "z"])


def p(text, ring=R3):
    return parse_polynomial(text, ring)


def test_parse_render_roundtrip():
    f = p("3*x*y^2 - 1/2*z + 4")
    assert f.render() == "3*x*y^2 - 1/2*z + 4"
    assert parse_polynomial(f.render(), R3) == f


def test_parse_coefficients():
    f = p("x - x")
    assert not f
    assert p("2*x + 3*x") == p("5*x")
    assert p("-x^2*y") == -p("x^2*y")


def test_parse_errors():
    with pytest.raises(ValueError):
        p("w + 1")
    with pytest.raises(ValueError):
        p("x ^ y")


def test_arithmetic():
    f, g = p("x + y"), p("x - y")
    assert f * g == p("x^2 - y^2")
    assert f + g == p("2*x")
    assert (f - f) == R3.zero()
    assert f * 0 == R3.zero()


def test_grading():
    ring = PolyRing(["a", "b"], degrees=[(1, 0), (1, 1)])
    f = parse_polynomial("a*b", ring)
    assert f.is_homogeneous()
    assert f.multidegree() == (2, 1)
    g = parse_polynomial("a + b", ring)
    assert not g.is_homogeneous()
    assert ring.is_positively_graded()
    assert not PolyRing(["a"], degrees=[(0,)]).is_positively_graded()


def test_leading_terms_named_orders():
    f = p("x*z + y^2")
    assert leading_term(f, OrderSpec.term("lex"))[0] == (1, 0, 1)
    assert leading_term(f, OrderSpec.term("grevlex"))[0] == (0, 2, 0)
    g = p("x^3 + x*y*z")
    assert leading_term(g, OrderSpec.term("grlex"))[0] == (3, 0, 0)


def test_leading_term_zero():
    with pytest.raises(ZeroPolynomial):
        leading_term(R3.zero(), OrderSpec.term("lex"))


def test_initial_form_weight():
    f = p("x^2 + x*y + z^3")
    spec = OrderSpec.weight_order([1, 1, 0])
    assert initial_form(f, spec) == p("x^2 + x*y")
    spec2 = OrderSpec.weight_order([0, 0, 1])
    assert initial_form(f, spec2) == p("z^3")


def test_initial_form_matrix():
    f = p("x^2 + x*y + y^2")
    spec = OrderSpec.matrix_order([[1, 1, 0], [1, 0, 0]])
    assert initial_form(f, spec) == p("x^2")


def test_initial_forms_flag3():
    ring = PolyRing(["p1", "p2", "p3", "p12", "p13", "p23"])
    f = parse_polynomial("p1*p23 - p2*p13 + p3*p12", ring)
    cases = [
        ((0, 1, 1, 0, 0, 0), "-p2*p13 + p3*p12"),
        ((1, 0, 1, 0, 0, 0), "p1*p23 + p3*p12"),
        ((1, 1, 0, 0, 0, 0), "p1*p23 - p2*p13"),
    ]
    for w, expected in cases:
        got = initial_form(f, OrderSpec.weight_order(w))
        assert got == parse_polynomial(expected, ring)


def test_order_spec_extended():
    spec = OrderSpec.weight_order([1, 2])
    ext = spec.extended(1)
    assert ext.weight == (1, 2, 0)
    rows = OrderSpec.matrix_order([[1, 0]]).extended(2)
    assert rows.matrix == ((1, 0, 0, 0),)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
            st.fractions(max_denominator=5),
        ),
        max_size=6,
    )
)
def test_initial_form_is_idempotent(terms):
    f = R3.zero()
    for e, c in terms:
        f = f + R3.monomial(e, c)
    if not f:
        return
    spec = OrderSpec.weight_order([2, -1, 3])
    init = initial_form(f, spec)
    assert initial_form(init, spec) == init
    assert set(init.terms) <= set(f.terms)


# Independent reference for weight and matrix orders: exact Fraction dot
# products, then the named tiebreak written out.
TIEBREAKS = {
    "lex": lambda e: e,
    "grlex": lambda e: (sum(e), e),
    "grevlex": lambda e: (sum(e), tuple(-x for x in reversed(e))),
}


def _dot(row, e):
    return sum((Fraction(w) * x for w, x in zip(row, e)), Fraction(0))


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)
exponents = st.tuples(*[st.integers(0, 3)] * 4)


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(exponents, rationals.filter(bool), min_size=1, max_size=8),
    st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=1, max_size=3),
    st.booleans(),
    st.sampled_from(sorted(TIEBREAKS)),
)
def test_rational_orders_match_fraction_reference(terms, rows, as_weight, tiebreak):
    ring = PolyRing(["a", "b", "c", "d"])
    f = Polynomial(ring, terms)
    if as_weight:
        spec = OrderSpec.weight_order(rows[0], tiebreak=tiebreak)
        wref = lambda e: (_dot(rows[0], e),)
    else:
        spec = OrderSpec.matrix_order(rows, tiebreak=tiebreak)
        wref = lambda e: tuple(_dot(row, e) for row in rows)
    ref = lambda e: wref(e) + TIEBREAKS[tiebreak](e)

    top = max(f.terms, key=ref)
    assert leading_term(f, spec) == (top, f.terms[top])
    key = spec.sort_key()
    for a in f.terms:
        for b in f.terms:
            assert (key(a) < key(b)) == (ref(a) < ref(b))
            assert (key(a) == key(b)) == (a == b)
    best = max(wref(e) for e in f.terms)
    assert initial_form(f, spec).terms == {e: c for e, c in f.terms.items() if wref(e) == best}

    # the integer scaling is internal: the stated order data stays exact
    if as_weight:
        assert spec.weight == tuple(Fraction(x) for x in rows[0])
        assert spec.cache_key() == ("weight", None, spec.weight, None, tiebreak)
    else:
        assert spec.matrix == tuple(tuple(Fraction(x) for x in row) for row in rows)
        assert spec.cache_key() == ("matrix", None, None, spec.matrix, tiebreak)
