"""Seeds, mutation, Laurent expansion, dominance order and g-vectors.

A seed is stored as its fully extended exchange matrix: an (n+m)-square
tuple of int rows whose first n columns are the extended exchange matrix
and whose frozen columns complete it to a full-rank lattice map.  Mutation
directions are 1-based (k in 1..n), matching the JSON/CLI encoding.

Laurent expansions are ``poly.Polynomial`` objects whose exponents may be
negative.  g-vectors follow the MIN convention: the g-vector of a cluster
variable is the dominance-minimal exponent of its Laurent expansion; they
need equal skew-symmetrizers (see ``gmatrix``).
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction
from typing import Iterable, Sequence

from .exactmath import QMatrix, nonnegative_combination
from .poly import OrderSpec, Polynomial, PolyRing


class FrozenDirection(Exception):
    """Mutation requested in a frozen (or out-of-range) direction."""


class AmbiguousMinimum(Exception):
    """Distinct dominance-minimal exponents survive; input was not the
    expansion of a cluster monomial."""


class OracleMismatch(Exception):
    """Two independent g-vector computations disagree."""


def _pos(x):
    return x if x > 0 else 0


def _neg(x):
    return x if x < 0 else 0


class SeedData:
    """Immutable seed: sizes, exchange matrix as int rows, d, labels."""

    __slots__ = ("n", "m", "B", "d", "labels")

    def __init__(self, n: int, m: int, B, d: Sequence[int] | None = None,
                 labels: Sequence[str] | None = None):
        N = n + m
        rows = tuple(tuple(row) for row in B)
        if len(rows) != N or any(len(row) != N for row in rows):
            raise ValueError("matrix must be (n+m)-square")
        self.B = tuple(tuple(int(x) for x in row) for row in rows)
        if self.B != rows:
            raise ValueError("exchange matrix must be integral")
        self.n = n
        self.m = m
        self.d = tuple(int(x) for x in (d if d is not None else [1] * N))
        if len(self.d) != N or any(x <= 0 for x in self.d):
            raise ValueError("need n+m positive skew-symmetrizers")
        self.labels = tuple(labels) if labels is not None else tuple(
            f"A{i + 1}" for i in range(N)
        )
        if len(self.labels) != N:
            raise ValueError("need n+m labels")
        self._validate()

    def _validate(self):
        n, B, d = self.n, self.B, self.d
        # D . B_mut skew-symmetric on the mutable block
        for i in range(n):
            for j in range(n):
                if d[i] * B[i][j] != -d[j] * B[j][i]:
                    raise ValueError("mutable block is not skew-symmetrizable")
        # top-right block determined by the frozen rows and skew-symmetrizers,
        # in the same D . B convention (mutation preserves no mixed one)
        for i in range(n):
            for j in range(n, self.size()):
                if d[i] * B[i][j] != -d[j] * B[j][i]:
                    raise ValueError(
                        "top-right block inconsistent with frozen rows"
                    )

    def size(self) -> int:
        return self.n + self.m

    def __eq__(self, other):
        return (
            isinstance(other, SeedData)
            and (self.n, self.m, self.B, self.d, self.labels)
            == (other.n, other.m, other.B, other.d, other.labels)
        )

    def __hash__(self):
        return hash((self.n, self.m, self.B, self.d, self.labels))

    def __repr__(self):
        return f"SeedData(n={self.n}, m={self.m})"

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "m": self.m,
                "B": [list(row) for row in self.B],
                "d": list(self.d),
                "labels": list(self.labels),
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "SeedData":
        data = json.loads(text)
        return cls(
            data["n"],
            data["m"],
            data["B"],
            data.get("d"),
            data.get("labels"),
        )


def _check_direction(seed: SeedData, k: int) -> int:
    """1-based mutable direction -> 0-based index."""
    if not 1 <= k <= seed.n:
        raise FrozenDirection(f"direction {k} is not mutable (n={seed.n})")
    return k - 1


def mu_matrices(seed: SeedData, k: int, sign: int) -> tuple[QMatrix, QMatrix]:
    """The tropical mutation matrices (MuA, MuX) for direction k.

    sign is +1 or -1, choosing the linear region.  MuA is the identity
    except row k, which is ([sign*b_jk]_+ ... -1 ... ); MuX is the identity
    except column k, which is ([-sign*b_kj]_+ ... -1 ...).  Both square of
    size n+m and self-inverse.
    """
    kk = _check_direction(seed, k)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    N, B = seed.size(), seed.B
    mua = [[int(i == j) for j in range(N)] for i in range(N)]
    mux = [row[:] for row in mua]
    for j in range(N):
        mua[kk][j] = _pos(sign * B[j][kk])
        mux[j][kk] = _pos(-sign * B[kk][j])
    mua[kk][kk] = mux[kk][kk] = -1
    return QMatrix(mua), QMatrix(mux)


def _mutated_rows(B: tuple, kk: int, sign: int) -> tuple:
    """Rows of (MuX * B^T * MuA)^T = MuA^T * B * MuX^T for one sign, with B
    given as int rows and kk the 0-based direction.

    MuA^T differs from the identity only in column kk and MuX^T only in row
    kk, so the product is a rank-one integer update of B.
    """
    row_k = B[kk]
    # MuA^T * B: row kk negated, row i gains [sign*b_ik]_+ times row kk
    rows = []
    for i, row in enumerate(B):
        c = _pos(sign * row[kk])
        if i == kk:
            rows.append([-x for x in row_k])
        elif c:
            rows.append([x + c * y for x, y in zip(row, row_k)])
        else:
            rows.append(list(row))
    # ... * MuX^T: column kk negated, column j gains [-sign*b_kj]_+ times
    # column kk (coefficients from the unmutated row kk)
    coeffs = [(j, c) for j, c in enumerate(_pos(-sign * b) for b in row_k)
              if c and j != kk]
    for row in rows:
        x = row[kk]
        if x:
            for j, c in coeffs:
                row[j] += c * x
        row[kk] = -x
    return tuple(tuple(row) for row in rows)


def mutate_matrix(seed: SeedData, k: int) -> SeedData:
    """Matrix mutation in direction k, B' = (MuX * B^T * MuA)^T with the
    tropical mutation matrices of ``mu_matrices``.

    Each sign's product is computed as an exact integer rank-one update;
    the two sign choices must agree.
    """
    kk = _check_direction(seed, k)
    plus = _mutated_rows(seed.B, kk, 1)
    if plus != _mutated_rows(seed.B, kk, -1):
        raise OracleMismatch("the two sign choices of matrix mutation disagree")
    return SeedData(seed.n, seed.m, plus, seed.d, seed.labels)


def mutate_seed(seed: SeedData, word: Iterable[int]) -> SeedData:
    for k in word:
        seed = mutate_matrix(seed, k)
    return seed


def mutate_gvector(g: Sequence, seed: SeedData, k: int) -> tuple:
    """Transport a g-vector from the frame of ``seed`` to that of mu_k(seed).

    Applies MuX with the sign of the k-th coordinate (the linear region of
    the piecewise-linear tropical mutation).
    """
    kk = _check_direction(seed, k)
    out = [int(x) for x in g]
    gk = out[kk]
    sign = 1 if gk >= 0 else -1
    if gk:
        # column kk of MuX: ([-sign*b_kj]_+ ... -1 ...)
        for j, b in enumerate(seed.B[kk]):
            out[j] += _pos(-sign * b) * gk
    out[kk] = -gk
    return tuple(out)


def gvector_of_exchanged_variable(seed: SeedData, k: int) -> tuple:
    """g-vector, in the current frame, of the variable created by mutating
    at k:  -f_k - sum_i [b_ik]_- f_i."""
    kk = _check_direction(seed, k)
    g = [-_neg(row[kk]) for row in seed.B]
    g[kk] = -1
    return tuple(g)


# ---------------------------------------------------------------------------
# Laurent expansion

@functools.cache
def _laurent_ring(N: int) -> PolyRing:
    """The ring of Laurent expansions in N initial cluster variables.

    Its names are fixed, not the seed's labels, which need not be distinct.
    """
    return PolyRing([f"x{j + 1}" for j in range(N)])


def laurent_div(f: Polynomial, g: Polynomial) -> Polynomial:
    """Exact quotient of Laurent polynomials (exponents may be negative);
    raises ValueError on a nonzero remainder.

    Quotient terms come in strictly grevlex-descending order.  Coordinatewise
    minima and maxima of exponents add under multiplication, so every term
    of an exact quotient lies in the box [lo, hi] below, and a term outside
    it proves a remainder; the box is finite, so the loop ends.
    """
    if not g:
        raise ZeroDivisionError("Laurent division by zero")
    key = OrderSpec.term("grevlex").sort_key()
    le = max(g.terms, key=key)
    lc = g.terms[le]
    coords = list(zip(zip(*f.terms), zip(*g.terms)))
    lo = [min(a) - min(b) for a, b in coords]
    hi = [max(a) - max(b) for a, b in coords]
    work = dict(f.terms)
    out: dict[tuple, Fraction] = {}
    while work:
        e = max(work, key=key)
        c = work.pop(e)
        shift = tuple(a - b for a, b in zip(e, le))
        if not all(a <= x <= b for a, x, b in zip(lo, shift, hi)):
            raise ValueError("Laurent division leaves a remainder")
        factor = c / lc
        out[shift] = factor
        for ge, gc in g.terms.items():
            if ge == le:
                continue
            ee = tuple(a + b for a, b in zip(ge, shift))
            s = work.get(ee, Fraction(0)) - factor * gc
            if s:
                work[ee] = s
            else:
                work.pop(ee, None)
    return Polynomial(f.ring, out)


def laurent_expand(seed: SeedData, word: Sequence[int], i: int) -> Polynomial:
    """Laurent expansion, in the initial cluster of ``seed``, of the i-th
    variable (1-based) of the seed reached by applying ``word``.

    Every expansion is checked against the positive Laurent phenomenon:
    coefficients must be positive integers, with negative exponents only in
    mutable coordinates.  The result lives in the ring of ``_laurent_ring``,
    whose j-th variable is the j-th initial cluster variable.
    """
    N = seed.size()
    if not 1 <= i <= N:
        raise ValueError(f"variable index {i} out of range")
    ring = _laurent_ring(N)
    variables = [ring.variable(name) for name in ring.names]
    current = seed
    for k in word:
        kk = _check_direction(current, k)
        plus = minus = ring.one()
        for row, v in zip(current.B, variables):
            for _ in range(_pos(row[kk])):
                plus = plus * v
            for _ in range(-_neg(row[kk])):
                minus = minus * v
        variables[kk] = laurent_div(plus + minus, variables[kk])
        current = mutate_matrix(current, k)
    result = variables[i - 1]
    for e, c in result.terms.items():
        if c <= 0 or c.denominator != 1:
            raise AssertionError("positive Laurent phenomenon violated")
        if any(e[j] < 0 for j in range(seed.n, N)):
            raise AssertionError("negative exponent in a frozen coordinate")
    return result


# ---------------------------------------------------------------------------
# dominance order and g-vectors

def dominance_less(m1: Sequence, m2: Sequence, seed: SeedData) -> str:
    """Compare two exponent vectors in the dominance order of the seed.

    Returns "equal", "less" (m1 strictly dominated by m2), "greater" or
    "incomparable".  m1 < m2 iff m2 - m1 is a nonnegative rational
    combination of the mutable exchange-matrix columns.
    """
    m1 = tuple(m1)
    m2 = tuple(m2)
    if m1 == m2:
        return "equal"
    cols = list(zip(*seed.B))[:seed.n]
    diff = tuple(b - a for a, b in zip(m1, m2))
    if nonnegative_combination(cols, diff):
        return "less"
    if nonnegative_combination(cols, tuple(-x for x in diff)):
        return "greater"
    return "incomparable"


def gvector_from_laurent(p: Polynomial, seed: SeedData, tiebreak=None) -> tuple:
    """The dominance-minimal exponent of a cluster-monomial expansion.

    ``tiebreak`` (a sort key on exponent tuples, grevlex by default) only
    fixes the order in which candidates are inspected; if more than one
    minimal exponent survives the dominance comparison, AmbiguousMinimum is
    raised.
    """
    exps = list(p.terms)
    if not exps:
        raise ValueError("zero Laurent polynomial has no g-vector")
    if tiebreak is None:
        tiebreak = OrderSpec.term("grevlex").sort_key()
    exps.sort(key=tiebreak)
    minimal = []
    for e in exps:
        if not any(
            dominance_less(other, e, seed) == "less" for other in exps if other != e
        ):
            minimal.append(e)
    if len(minimal) != 1:
        raise AmbiguousMinimum(f"{len(minimal)} dominance-minimal exponents")
    return tuple(int(x) for x in minimal[0])


def _gvector_by_transport(seed: SeedData, word: Sequence[int], i: int,
                          frame: Sequence[int]) -> tuple:
    """Transport the standard-basis g-vector of the target variable from its
    home seed back to the frame seed."""
    home = mutate_seed(seed, word)
    g = tuple(1 if j == i - 1 else 0 for j in range(seed.size()))
    current = home
    for k in reversed(list(word)):
        g = mutate_gvector(g, current, k)
        current = mutate_matrix(current, k)
    # current == seed; now walk to the frame
    for k in frame:
        g = mutate_gvector(g, current, k)
        current = mutate_matrix(current, k)
    return g


def gmatrix(seed: SeedData, basis: Sequence[tuple[Sequence[int], int]],
            frame: Sequence[int] = ()) -> QMatrix:
    """Matrix whose columns are the g-vectors, in the frame seed, of the
    listed variables (each given as (mutation word, 1-based index)).

    Each column is computed twice -- by Laurent expansion in the frame seed
    and by transporting standard basis vectors through tropical mutation --
    and the two answers must agree.  Seeds with unequal skew-symmetrizers
    raise ValueError: the Laurent route reads column k of B, the transport
    route row k, and the two agree only when d_j = d_k.
    """
    if len(set(seed.d)) > 1:
        raise ValueError(
            "g-vectors need equal skew-symmetrizers; the Laurent and transport "
            "routes disagree on seeds with unequal ones"
        )
    frame = list(frame)
    frame_seed = mutate_seed(seed, frame)
    columns = []
    for word, i in basis:
        word = list(word)
        expansion_word = list(reversed(frame)) + word
        expansion = laurent_expand(frame_seed, expansion_word, i)
        g_laurent = gvector_from_laurent(expansion, frame_seed)
        g_transport = _gvector_by_transport(seed, word, i, frame)
        if g_laurent != g_transport:
            raise OracleMismatch(
                f"g-vector routes disagree for word={word}, i={i}: "
                f"{g_laurent} vs {g_transport}"
            )
        columns.append(g_laurent)
    return QMatrix.from_columns(columns)
