"""Degenerations of flag varieties into the toric varieties of
Feigin-Fourier-Littelmann-Vinberg (FFLV) polytopes, and the search for
symmetric-group images of the FFLV initial ideal that are totally positive.

The weighting matrix has one row per positive root (i, j), listed with the
longer roots first, and one column per Plucker variable.  Column entries
record which root operators produce the given wedge basis vector from the
highest weight vector; the weight vector contracts each column against the
root degrees.  All weight data here is min-convention.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from .exactmath import QMatrix
from .flag import (
    UnsupportedN,
    flag_plucker_ideal,
    flag_ring,
    plucker_subsets,
    sn_action,
    three_term_relation,
)
from .groebner import Ideal
from .poly import OrderSpec, Polynomial, initial_form


class MissingWitness(Exception):
    """No one-signed element was found certifying non-positivity."""


def root_sequence(n: int) -> list[tuple[int, int]]:
    """Positive roots (i, j), i < j, longer roots first, then by i."""
    return sorted(
        ((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)),
        key=lambda r: (-(r[1] - r[0]), r[0]),
    )


def root_degree(root: tuple[int, int], n: int) -> int:
    i, j = root
    return (j - i + 1) * (n - j + i)


def fflv_m_vector(n: int, subset) -> tuple[int, ...]:
    """Exponents of the root operators whose product sends the highest
    weight wedge vector to the basis vector of the subset, minimal in the
    homogeneous order preferring support on later (shorter) roots.

    Closed form: indices of [k] missing from the subset are matched to the
    subset's elements above k -- the smallest missing index takes the
    largest element, the rest pair off diagonally.  Verified against the
    brute-force operator search."""
    L = tuple(sorted(subset))
    k = len(L)
    s = sum(1 for l in L if l <= k)
    q = [x for x in range(1, k + 1) if x not in L[:s]]
    high = list(L[s:])
    roots = root_sequence(n)
    m = [0] * len(roots)
    if q:
        pairs = [(q[0], high[-1])] + [(q[t], high[t - 1]) for t in range(1, len(q))]
        for pair in pairs:
            m[roots.index(pair)] = 1
    return tuple(m)


# -- brute-force oracle -----------------------------------------------------


def _wedge_apply(root, vec, k):
    """Apply the lowering operator of the root to a wedge vector (dict
    mapping sorted index tuples to coefficients)."""
    a, b = root
    out: dict[tuple, int] = {}
    for idx, coeff in vec.items():
        for pos, val in enumerate(idx):
            if val != a or b in idx:
                continue
            new = list(idx)
            new[pos] = b
            sign = 1
            ordered = sorted(new)
            for x in range(len(new)):
                for y in range(x + 1, len(new)):
                    if new[x] > new[y]:
                        sign = -sign
            key = tuple(ordered)
            out[key] = out.get(key, 0) + sign * coeff
    return {kk: v for kk, v in out.items() if v}


def _rightlex_key(a):
    # total degree first; ties prefer larger entries at later positions
    return (sum(a), tuple(-x for x in reversed(a)))


def fflv_m_vector_oracle(n: int, subset) -> tuple[int, ...]:
    """Minimal exponent (homogeneous right-lex) whose iterated root
    operators send e_1 ^ ... ^ e_k to the target wedge vector up to sign."""
    L = tuple(sorted(subset))
    k = len(L)
    roots = root_sequence(n)
    best = None
    for total in range(0, k + 1):
        candidates = []
        for combo in itertools.combinations_with_replacement(range(len(roots)), total):
            a = [0] * len(roots)
            for c in combo:
                a[c] += 1
            candidates.append(tuple(a))
        for a in sorted(candidates, key=_rightlex_key):
            vec = {tuple(range(1, k + 1)): 1}
            for pos in range(len(roots) - 1, -1, -1):
                for _ in range(a[pos]):
                    vec = _wedge_apply(roots[pos], vec, k)
            if set(vec) == {L} and abs(vec[L]) == 1:
                best = a
                break
        if best is not None:
            break
    if best is None:
        raise MissingWitness(f"no operator word reaches {L}")
    return best


def fflv_weighting_matrix(n: int) -> QMatrix:
    subsets = plucker_subsets(n)
    cols = [fflv_m_vector(n, s) for s in subsets]
    return QMatrix([[Fraction(cols[j][r]) for j in range(len(cols))]
                    for r in range(len(root_sequence(n)))])


def fflv_weight_vector(n: int) -> tuple[int, ...]:
    roots = root_sequence(n)
    degs = [root_degree(r, n) for r in roots]
    out = []
    for s in plucker_subsets(n):
        m = fflv_m_vector(n, s)
        out.append(sum(d * x for d, x in zip(degs, m)))
    return tuple(out)


def _matrix_order_rows(m: QMatrix) -> list[tuple]:
    """Rows (for the max-convention engine) realizing the min-convention
    order on column values: total degree first, then later rows dominate
    with larger entries preferred."""
    colsums = tuple(-sum(m.entries[r][c] for r in range(m.rows)) for c in range(m.cols))
    rows = [tuple(m.entries[r][c] for c in range(m.cols)) for r in range(m.rows - 1, -1, -1)]
    return [colsums] + rows


def _min_matrix_order(m: QMatrix) -> OrderSpec:
    return OrderSpec.matrix_order(_matrix_order_rows(m))


@functools.cache
def fflv_initial_ideal(n: int) -> Ideal:
    """Min-convention initial ideal of the flag ideal under the FFLV
    weighting matrix (ties broken by later rows, then grevlex)."""
    ideal = flag_plucker_ideal(n)
    from .groebner import initial_ideal

    return initial_ideal(ideal, _min_matrix_order(fflv_weighting_matrix(n)))


def fflv_initial_form(f: Polynomial, n: int) -> Polynomial:
    """Initial form of a single polynomial under the FFLV weighting matrix
    (min convention), without any Groebner computation."""
    g = f
    for w in _matrix_order_rows(fflv_weighting_matrix(n)):
        g = initial_form(g, OrderSpec.weight_order(w))
        if g.num_terms() == 1:
            break
    return g


def _one_signed(f: Polynomial) -> bool:
    signs = {c > 0 for c in f.terms.values()}
    return len(signs) == 1


def _admissible_triples(n: int):
    for jsize in range(0, n - 2):
        for J in itertools.combinations(range(1, n + 1), jsize):
            rest = [x for x in range(1, n + 1) if x not in J]
            for i, j, k in itertools.combinations(rest, 3):
                yield J, i, j, k


def verify_fflv_not_positive(n: int) -> dict:
    """For every permutation, certify that its image of the FFLV initial
    ideal is not totally positive by exhibiting a one-signed member.

    Witnesses are searched among permutation images of initial forms of the
    three-term Plucker relations; if none is one-signed, the reduced
    Groebner basis of the image ideal is scanned.  Raises MissingWitness if
    a permutation yields no certificate.
    """
    if n < 4:
        raise UnsupportedN("needs n >= 4")
    ring = flag_ring(n)
    initials = [
        fflv_initial_form(three_term_relation(n, J, i, j, k, ring), n)
        for J, i, j, k in _admissible_triples(n)
    ]
    report = {"n": n, "permutations": {}}
    for sigma in itertools.permutations(range(1, n + 1)):
        witness = None
        for f in initials:
            image = sn_action(sigma, f)
            if _one_signed(image):
                witness = image
                break
        if witness is None:
            ideal = fflv_initial_ideal(n)
            moved = Ideal(ring, [sn_action(sigma, g) for g in ideal.generators])
            for g in moved.groebner_basis(OrderSpec.term("grevlex")):
                if _one_signed(g):
                    witness = g
                    break
        key = ",".join(map(str, sigma))
        if witness is not None:
            report["permutations"][key] = {"witness": witness.render()}
            continue
        from .trop import is_totally_positive

        ideal = fflv_initial_ideal(n)
        moved = Ideal(ring, [sn_action(sigma, g) for g in ideal.generators])
        cert = is_totally_positive(moved)
        if cert.verdict.startswith("positive"):
            report["permutations"][key] = {"positive": True}
        else:
            raise MissingWitness(f"no one-signed witness for {sigma}")
    return report
