import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropcluster import cluster
from tropcluster.cluster import (
    AmbiguousMinimum,
    FrozenDirection,
    OracleMismatch,
    SeedData,
    dominance_less,
    gmatrix,
    gvector_from_laurent,
    gvector_of_exchanged_variable,
    laurent_div,
    laurent_expand,
    mu_matrices,
    mutate_gvector,
    mutate_matrix,
    mutate_seed,
)
from tropcluster.exactmath import QMatrix, invert
from tropcluster.poly import Polynomial, PolyRing

# the running example: type A2 with one frozen vertex
SEED = SeedData(2, 1, [[0, 1, 0], [-1, 0, -1], [0, 1, 1]])
# the six cluster variables reachable from it, as (word, index) pairs
BASIS = [((), 1), ((), 2), ((), 3), ((1,), 1), ((1, 2), 2), ((1, 2, 1), 1)]

G_S = QMatrix([[1, 0, 0, -1, -1, 0], [0, 1, 0, 1, 0, -1], [0, 0, 1, 0, 0, 0]])
G_SP = QMatrix([[-1, 0, 0, 1, 1, 0], [0, 1, 0, 0, -1, -1], [0, 0, 1, 0, 0, 0]])


def test_seed_validation():
    with pytest.raises(ValueError):
        SeedData(2, 0, [[0, 1], [1, 0]])  # not skew-symmetrizable
    with pytest.raises(ValueError):
        SeedData(2, 1, [[0, 1], [-1, 0]])  # wrong size
    # skew-symmetrizable with nontrivial d
    SeedData(2, 0, [[0, 1], [-2, 0]], d=[2, 1])
    # the frozen coupling follows the same D . B convention
    SeedData(2, 1, [[0, 2, 0], [-1, 0, 1], [0, -2, 0]], d=[1, 2, 1])
    with pytest.raises(ValueError):
        SeedData(2, 1, [[0, 2, 0], [-1, 0, 2], [0, -1, 0]], d=[1, 2, 1])


def test_seed_json_roundtrip():
    text = SEED.to_json()
    data = json.loads(text)
    assert data["n"] == 2 and data["m"] == 1
    assert SeedData.from_json(text) == SEED


def _int_rows(seed):
    return all(type(x) is int for row in seed.B for x in row)


def test_exchange_matrix_is_stored_as_int_rows():
    assert _int_rows(SEED) and isinstance(SEED.B, tuple)
    assert _int_rows(SeedData(2, 0, [[Fraction(0), Fraction(1)], [-1.0, 0]]))
    mutated = mutate_seed(SEED, (1, 2, 1))
    assert _int_rows(mutated)
    back = SeedData.from_json(mutated.to_json())
    assert back == mutated and _int_rows(back)


@pytest.mark.parametrize("half", [0.5, Fraction(1, 2)])
def test_non_integral_exchange_matrix_rejected(half):
    with pytest.raises(ValueError, match="integral"):
        SeedData(2, 0, [[0, half], [-half, 0]])
    text = json.dumps({"n": 2, "m": 0, "B": [[0, 0.5], [-0.5, 0]]})
    with pytest.raises(ValueError, match="integral"):
        SeedData.from_json(text)


def test_gmatrix_rejects_unequal_skew_symmetrizers(monkeypatch):
    seed = SeedData(2, 0, [[0, 1], [-2, 0]], d=[2, 1])
    # fail before any mutation: matrix mutation itself still accepts the seed
    monkeypatch.setattr(cluster, "mutate_matrix", None)
    with pytest.raises(ValueError, match="skew-symmetrizers"):
        gmatrix(seed, [((1,), 1)])
    monkeypatch.undo()
    assert mutate_matrix(mutate_matrix(seed, 1), 1) == seed


def test_mutate_matrix_example():
    sp = mutate_matrix(SEED, 1)
    assert invert(-QMatrix(sp.B).transpose()) == QMatrix(
        [[-1, 1, -1], [-1, 0, 0], [-1, 0, -1]]
    )


def test_mutation_involution():
    for k in (1, 2):
        assert mutate_matrix(mutate_matrix(SEED, k), k) == SEED


def test_frozen_direction():
    with pytest.raises(FrozenDirection):
        mutate_matrix(SEED, 3)
    with pytest.raises(FrozenDirection):
        mu_matrices(SEED, 0, 1)
    with pytest.raises(FrozenDirection):
        mutate_gvector((1, 0, 0), SEED, 3)


def test_mu_matrices_shape():
    mua, mux = mu_matrices(SEED, 1, -1)
    assert mux.column(0) == tuple(map(int, (-1, 1, 0))) or [
        int(x) for x in mux.column(0)
    ] == [-1, 1, 0]
    assert mua * mua == QMatrix.identity(3)
    assert mux * mux == QMatrix.identity(3)


def test_eq_3_4_both_signs():
    for k in (1, 2):
        sp = mutate_matrix(SEED, k)
        for sign in (1, -1):
            mua, mux = mu_matrices(SEED, k, sign)
            assert QMatrix(sp.B).transpose() == mux * QMatrix(SEED.B).transpose() * mua


def test_mutate_gvector_example():
    assert mutate_gvector((-1, 0, 0), SEED, 1) == (1, -1, 0)
    # unit vector untouched when b_ki = 0
    assert mutate_gvector((0, 0, 1), SEED, 1) == (0, 0, 1)


def test_gvector_of_exchanged_variable():
    assert gvector_of_exchanged_variable(SEED, 1) == (-1, 1, 0)
    assert gvector_of_exchanged_variable(SEED, 2) == (0, -1, 0)
    isolated = SeedData(1, 1, [[0, 0], [0, 1]])
    assert gvector_of_exchanged_variable(isolated, 1) == (-1, 0)


def test_laurent_expand_examples():
    assert laurent_expand(SEED, (), 2).terms == {(0, 1, 0): 1}
    assert laurent_expand(SEED, (1,), 1).terms == {(-1, 0, 0): 1, (-1, 1, 0): 1}
    assert laurent_expand(SEED, (1,), 1).render() == "x1^-1*x2 + x1^-1"
    assert laurent_expand(SEED, (1, 2), 2).terms == {
        (0, -1, 1): 1,
        (-1, 0, 0): 1,
        (-1, -1, 0): 1,
    }


R2 = PolyRing(["x1", "x2"])


def test_laurent_div_exact():
    f = Polynomial(R2, {(1, 0): 1, (0, 1): 1})
    assert laurent_div(f, R2.one()) == f
    prod = f * R2.monomial((-1, -1), 3)
    assert laurent_div(prod, f) == R2.monomial((-1, -1), 3)


def test_laurent_div_remainder():
    # 1 / (1 + x1) is not a Laurent polynomial
    with pytest.raises(ValueError):
        laurent_div(R2.one(), Polynomial(R2, {(0, 0): 1, (1, 0): 1}))
    with pytest.raises(ZeroDivisionError):
        laurent_div(R2.one(), R2.zero())


laurent_polys = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.integers(-4, 4).filter(bool),
    min_size=1,
    max_size=4,
).map(lambda terms: Polynomial(R2, terms))


@settings(max_examples=80, deadline=None)
@given(laurent_polys, laurent_polys)
def test_laurent_div_inverts_multiplication(f, g):
    assert laurent_div(f * g, g) == f


def test_dominance():
    assert dominance_less((-1, 0, 0), (-1, -1, 0), SEED) == "less"
    assert dominance_less((-1, 0, 0), (0, -1, 1), SEED) == "less"
    assert dominance_less((0, 0, 0), (0, 0, 0), SEED) == "equal"
    assert dominance_less((-1, -1, 0), (-1, 0, 0), SEED) == "greater"
    assert dominance_less((0, 0, 1), (1, 0, 0), SEED) == "incomparable"


def test_gvector_from_laurent():
    a5 = laurent_expand(SEED, (1, 2), 2)
    assert gvector_from_laurent(a5, SEED) == (-1, 0, 0)
    mono = PolyRing(["x1", "x2", "x3"]).variable("x2")
    assert gvector_from_laurent(mono, SEED) == (0, 1, 0)


def test_gvector_ambiguous():
    # two incomparable exponents: not a cluster monomial expansion
    p = Polynomial(PolyRing(["x1", "x2", "x3"]), {(0, 0, 1): 1, (1, 0, 0): 1})
    with pytest.raises(AmbiguousMinimum):
        gvector_from_laurent(p, SEED)


def test_gmatrix_frames():
    assert gmatrix(SEED, BASIS) == G_S
    assert gmatrix(SEED, BASIS, frame=(1,)) == G_SP
    # seed's own variables give the identity block
    own = [((), i) for i in (1, 2, 3)]
    assert gmatrix(SEED, own) == QMatrix.identity(3)


def _random_seed(rng: random.Random) -> SeedData:
    n, m = 2, 1
    while True:
        b = [[0] * 3 for _ in range(3)]
        for i in range(n):
            for j in range(i + 1, n):
                b[i][j] = rng.randint(-2, 2)
                b[j][i] = -b[i][j]
        for i in range(n, 3):
            for j in range(n):
                b[i][j] = rng.randint(-2, 2)
                b[j][i] = -b[i][j]
        for i in range(n, 3):
            for j in range(n, 3):
                b[i][j] = rng.randint(-1, 1) if i != j else rng.randint(-1, 1)
        try:
            return SeedData(n, m, b)
        except ValueError:
            continue


def test_random_seeds_involution_and_eq34():
    rng = random.Random(7)
    for _ in range(40):
        seed = _random_seed(rng)
        for k in (1, 2):
            sp = mutate_matrix(seed, k)
            assert mutate_matrix(sp, k) == seed
            for sign in (1, -1):
                mua, mux = mu_matrices(seed, k, sign)
                assert QMatrix(sp.B).transpose() == mux * QMatrix(seed.B).transpose() * mua
                assert mua * mua == QMatrix.identity(3)
                assert mux * mux == QMatrix.identity(3)


@st.composite
def skew_symmetrizable_seeds(draw):
    """Valid seeds with n in {2, 3}, m in {1, 2} and skew-symmetrizers
    that are not all 1."""
    n = draw(st.sampled_from((2, 3)))
    m = draw(st.sampled_from((1, 2)))
    N = n + m
    d = draw(st.lists(st.integers(1, 3), min_size=N, max_size=N)
             .filter(lambda d: set(d) != {1}))
    b = [[0] * N for _ in range(N)]
    for i in range(n):
        for j in range(i + 1, N):
            # d_i b_ij = -d_j b_ji = s * lcm(d_i, d_j)
            s = draw(st.integers(-2, 2))
            lcm = math.lcm(d[i], d[j])
            b[i][j], b[j][i] = s * lcm // d[i], -s * lcm // d[j]
    for i in range(n, N):
        for j in range(n, N):
            b[i][j] = draw(st.integers(-1, 1))
    return SeedData(n, m, b, d)


@settings(max_examples=60, deadline=None)
@given(skew_symmetrizable_seeds())
def test_mutation_matches_mu_matrices_on_skew_symmetrizable_seeds(seed):
    for k in range(1, seed.n + 1):
        sp = mutate_matrix(seed, k)
        assert _int_rows(sp)
        assert mutate_matrix(sp, k) == seed
        for sign in (1, -1):
            mua, mux = mu_matrices(seed, k, sign)
            assert QMatrix(sp.B) == (mux * QMatrix(seed.B).transpose() * mua).transpose()


@pytest.mark.parametrize("bad_sign", (1, -1))
def test_sign_disagreement_raises(monkeypatch, bad_sign):
    honest = cluster._mutated_rows

    def corrupted(B, kk, sign):
        rows = honest(B, kk, sign)
        if sign == bad_sign:
            rows = (tuple(x + 1 for x in rows[0]),) + rows[1:]
        return rows

    monkeypatch.setattr(cluster, "_mutated_rows", corrupted)
    with pytest.raises(OracleMismatch):
        mutate_matrix(SEED, 1)


@settings(max_examples=60, deadline=None)
@given(skew_symmetrizable_seeds(), st.data())
def test_mutate_gvector_matches_mu_matrices(seed, data):
    N = seed.size()
    k = data.draw(st.integers(1, seed.n))
    g = data.draw(st.lists(st.integers(-3, 3), min_size=N, max_size=N))
    for gk in (-2, 0, 3):
        g[k - 1] = gk
        out = mutate_gvector(g, seed, k)
        _, mux = mu_matrices(seed, k, 1 if gk >= 0 else -1)
        assert out == mux.matvec(g)
        assert all(type(x) is int for x in out)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(1, 2), max_size=4), st.integers(1, 2))
def test_gvector_routes_agree_on_words(word, i):
    # gmatrix raises OracleMismatch internally if the Laurent route and the
    # transport route ever disagree
    gmatrix(SEED, [(tuple(word), i)])


def test_mutate_seed_word():
    assert mutate_seed(SEED, (1, 1)) == SEED
    assert mutate_seed(SEED, (1, 2, 1)) == mutate_matrix(
        mutate_matrix(mutate_matrix(SEED, 1), 2), 1
    )
