"""Workloads: seeded inputs, one operation per input, and a reference check
for every result.

Every workload builds its inputs from the random generator it is given, so
the same seed gives the same inputs.  The program sees only the generated
inputs.  References never come from the code under test: they are the
paper's stated results, the shipped census data, structural facts that
follow from the definitions, or sympy's Groebner bases.

A workload provides

- ``setup(tc)``: build the inputs and fill the program's process-wide caches
  (counted in ``setup_s``); ``tc`` is the namespace of tropcluster modules;
- ``schedule()``: an iterator of inputs, in the order the closed loop sends
  them;
- ``prepare(item)``: untimed per-operation work (writing input files);
- ``run(item)``: the operation itself (timed);
- ``check(item, result)``: ``None`` or the reason the result is wrong;
- ``sympy_check(item, result)``: ``None``, or the reason a reduced grevlex
  basis in the result disagrees with sympy's; run for every operation after
  the timed phase (``None`` instead of a method where there is no basis);
- ``run_checks()``: run-level reference checks (outside the timed region);
- ``expected``: traced functions that must record a call on this workload.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

# The paper's worked example: an A2 seed with one frozen row and its
# six-element basis.
PAPER_SEED = {"n": 2, "m": 1, "B": [[0, 1, 0], [-1, 0, -1], [0, 1, 1]]}
PAPER_BASIS = [
    {"word": [], "index": 1, "name": "A1"},
    {"word": [], "index": 2, "name": "A2"},
    {"word": [], "index": 3, "name": "A3"},
    {"word": [1], "index": 1, "name": "A4"},
    {"word": [1, 2], "index": 2, "name": "A5"},
    {"word": [1, 2, 1], "index": 1, "name": "A6"},
]
# The paper's G-matrices of that basis in the initial frame and in the
# frame mu_1 (columns A1..A6).
PAPER_G = {
    "": [[1, 0, 0, -1, -1, 0], [0, 1, 0, 1, 0, -1], [0, 0, 1, 0, 0, 0]],
    "1": [[-1, 0, 0, 1, 1, 0], [0, 1, 0, 0, -1, -1], [0, 0, 1, 0, 0, 0]],
}
# The paper's witness against positivity for the identity permutation.
IDENTITY_WITNESS = "p1*p23 + p3*p12"


def det(matrix) -> int:
    """Integer determinant by fraction-free Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    result = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            result = -result
        result *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return int(result)


def seed_matrix(mutable, frozen_row) -> list[list[int]]:
    """Fully extended exchange matrix with one frozen row (skew-symmetric
    top-right block)."""
    n = len(mutable)
    rows = [list(row) + [-frozen_row[i]] for i, row in enumerate(mutable)]
    return rows + [list(frozen_row)]


def parse_terms(text: str) -> set[tuple]:
    """Terms of a rendered polynomial as (sign, coefficient, sorted factors)."""
    out = set()
    for term in text.replace(" - ", " + -").split(" + "):
        term = term.strip()
        negative = term.startswith("-")
        factors = term.lstrip("-").split("*")
        coeff = "1"
        if factors and factors[0][0].isdigit():
            coeff = factors.pop(0)
        out.add((negative, coeff, tuple(sorted(factors))))
    return out


def one_signed(text: str) -> bool:
    return len({negative for negative, _, _ in parse_terms(text)}) == 1


class Workload:
    name = ""
    expected: tuple[str, ...] = ()

    def __init__(self, rng: random.Random, workdir: Path):
        self.rng = rng
        self.workdir = workdir
        self.tc = None

    def setup(self, tc) -> None:
        self.tc = tc

    def prepare(self, item) -> None:
        pass

    sympy_check = None

    def run_checks(self) -> list[str]:
        return []

    def key(self, item):
        return item

    def cli(self, argv) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.tc.cli.main(argv)
        return code, out.getvalue()


# The census cones whose certification took longest when the benchmark was
# defined: 6.6-7.6 s each against 2.7-4.5 s for the other ten (2-core Xeon,
# Python 3.11).
SLOW_CONES = frozenset({"C17", "C36", "C51", "C77"})


class CensusCones(Workload):
    """Certify one maximal cone of the n=4 Plucker census per operation."""

    name = "census-cones"
    expected = (
        "trop.cone_initial_ideal", "trop.is_prime_binomial", "trop.is_totally_positive",
        "trop.is_binomial", "groebner.groebner_basis", "groebner.buchberger",
        "groebner.normal_form", "groebner.initial_ideal", "groebner.saturate_at_variables",
        "groebner.contains_monomial", "poly.initial_form", "exactmath.smith_normal_form",
    )

    def __init__(self, rng, workdir, data_path: Path):
        super().__init__(rng, workdir)
        self.data = json.loads(data_path.read_text())

    def setup(self, tc) -> None:
        super().setup(tc)
        ideal = tc.flag.flag_plucker_ideal(4)  # process-wide functools.cache
        self.ring = ideal.ring
        self.generators = ideal.generators
        names = self.ring.names
        # Lineality: one indicator vector per Plucker cardinality block.
        self.lineality = [
            tuple(1 if len(v) - 1 == k else 0 for v in names) for k in range(1, 4)
        ]
        rays = {}
        for label, spec in self.data["rays"].items():
            vec = [0] * len(names)
            for var, coeff in spec.items():
                vec[names.index(var)] += coeff
            rays[label] = tuple(vec)
        self.cones = {label: [rays[r] for r in ray_labels]
                      for label, ray_labels in self.data["cones"].items()}
        self.non_prime = set(self.data["non_prime"])

    def schedule(self):
        # Stratified draws with replacement.  Certifying one of the SLOW
        # cones takes about twice as long as any other, so a run of a few
        # operations drawn freely would mix the two kinds differently for
        # every seed.  Each block of seven operations draws two SLOW cones
        # (positions 2 and 6) and five others, in proportion to the census;
        # blocks are drawn independently, so inputs repeat across blocks.
        slow = sorted(SLOW_CONES)
        fast = sorted(set(self.cones) - SLOW_CONES)
        while True:
            s, f = self.rng.sample(slow, 2), self.rng.sample(fast, 5)
            yield from (f[0], s[0], f[1], f[2], f[3], s[1], f[4])

    def run(self, label):
        tc = self.tc
        ideal = tc.groebner.Ideal(self.ring, self.generators)
        cone = tc.trop.Cone(self.ring, self.cones[label], lineality=self.lineality)
        init = tc.trop.cone_initial_ideal(ideal, cone)
        return init, {
            "monomial_free": not tc.groebner.contains_monomial(init),
            "binomial": tc.trop.is_binomial(init),
            "prime": tc.trop.is_prime_binomial(init),
            "positive": tc.trop.is_totally_positive(init).verdict,
        }

    def check(self, label, result):
        _, verdict = result
        expected = {
            "monomial_free": True,
            "binomial": True,
            "prime": label not in self.non_prime,
            "positive": "positive",
        }
        if verdict != expected:
            return f"cone {label}: {verdict} != {expected}"
        return None

    def sympy_check(self, label, result):
        init, _ = result
        grevlex = self.tc.poly.OrderSpec.term("grevlex")
        return compare_with_sympy(
            self.ring.names,
            [g.terms for g in init.generators],
            [g.terms for g in init.groebner_basis(grevlex)],
            f"cone {label}",
        )


class ClusterVerify(Workload):
    """``tropcluster verify`` on a distinct non-singular A2 seed per
    operation, with the paper's six-element basis."""

    name = "cluster-verify"
    expected = (
        "cli.main", "present.presentation_ideal", "present.ray_matrix",
        "present.verify_main_theorem", "cluster.gmatrix", "cluster.laurent_expand",
        "cluster.mutate_matrix", "trop.cone_initial_ideal", "trop.is_prime_binomial",
        "groebner.buchberger", "groebner.eliminate", "groebner.saturate",
        "groebner.initial_ideal", "exactmath.invert", "exactmath.smith_normal_form",
    )
    CLAUSES = {
        "frame_cone_prime_positive",
        "frozen_rows_in_lineality",
        "mutation_1_changes_one_row",
        "mutation_1_adjacent_prime_positive",
        "mutation_2_changes_one_row",
        "mutation_2_adjacent_prime_positive",
    }

    def setup(self, tc) -> None:
        super().setup(tc)
        population = []
        for s in (1, -1):
            for c in itertools.product(range(-2, 3), repeat=3):
                matrix = seed_matrix([[0, s], [-s, 0]], c)
                if det(matrix) != 0:
                    population.append(matrix)
        self.rng.shuffle(population)
        self.population = population
        self.basis_path = self.workdir / "basis.json"
        self.basis_path.write_text(json.dumps(PAPER_BASIS))
        self.seed_path = self.workdir / "seed.json"

    def schedule(self):
        # Distinct seeds: a seeded permutation of every non-singular choice.
        for matrix in self.population:
            yield matrix

    def key(self, matrix):
        return json.dumps(matrix)

    def prepare(self, matrix) -> None:
        self.seed_path.write_text(json.dumps({"n": 2, "m": 1, "B": matrix}))

    def run(self, matrix):
        return self.cli(["verify", "--seed", str(self.seed_path),
                         "--basis", str(self.basis_path)])

    def check(self, matrix, result):
        code, text = result
        report = json.loads(text)
        status = {c["name"]: c["status"] for c in report["clauses"]}
        if code != 0 or set(status) != self.CLAUSES or set(status.values()) != {"pass"}:
            return f"seed {matrix}: exit {code}, clauses {status}"
        return None

    def sympy_check(self, matrix, result):
        report = json.loads(result[1])
        names = [b["name"] for b in PAPER_BASIS]
        bases = [report["initial_ideals"]["frame"]]
        bases += list(report["initial_ideals"]["mutated"].values())
        for basis in bases:
            terms = [text_terms(g, names) for g in basis]
            err = compare_with_sympy(names, terms, terms, f"seed {matrix}")
            if err:
                return err
        return None


class GvectorFrames(Workload):
    """``tropcluster gvectors`` on a seeded A2 or A3 seed with one frozen
    row, four random basis words and a random frame."""

    name = "gvector-frames"
    expected = (
        "cli.main", "cluster.gmatrix", "cluster.laurent_expand", "cluster.dominance_less",
        "cluster.mutate_matrix", "exactmath.nonnegative_combination", "exactmath.rref",
    )

    def setup(self, tc) -> None:
        super().setup(tc)
        self.seed_path = self.workdir / "seed.json"
        self.basis_path = self.workdir / "basis.json"

    def schedule(self):
        rng = self.rng
        while True:
            n = rng.choice((2, 3))
            if n == 2:
                s = rng.choice((1, -1))
                mutable = [[0, s], [-s, 0]]
            else:
                a, b = rng.choice((1, -1)), rng.choice((1, -1))
                mutable = [[0, a, 0], [-a, 0, b], [0, -b, 0]]
            while True:
                matrix = seed_matrix(mutable, [rng.randint(-2, 2) for _ in range(n + 1)])
                if det(matrix) != 0:
                    break
            basis = [
                {"word": [rng.randint(1, n) for _ in range(rng.randint(0, 9))],
                 "index": rng.randint(1, n + 1), "name": f"X{k + 1}"}
                for k in range(4)
            ]
            frame = [rng.randint(1, n) for _ in range(rng.randint(0, 3))]
            yield n, matrix, basis, frame

    def key(self, item):
        return json.dumps(item)

    def prepare(self, item) -> None:
        n, matrix, basis, _ = item
        self.seed_path.write_text(json.dumps({"n": n, "m": 1, "B": matrix}))
        self.basis_path.write_text(json.dumps(basis))

    def run(self, item):
        frame = ",".join(map(str, item[3]))
        return self.cli(["gvectors", "--seed", str(self.seed_path),
                         "--basis", str(self.basis_path), "--word", frame])

    def check(self, item, result):
        n, matrix, basis, frame = item
        code, text = result
        columns = json.loads(text)["columns"]
        if code != 0 or set(columns) != {b["name"] for b in basis}:
            return f"{item}: exit {code}, columns {sorted(columns)}"
        for b in basis:
            col = columns[b["name"]]
            unit = [int(j == b["index"] - 1) for j in range(n + 1)]
            # A frozen variable never mutates, and an initial variable seen
            # from the initial frame is its own unit vector.
            if (b["index"] == n + 1 or not (b["word"] or frame)) and col != unit:
                return f"{item}: g-vector of {b['name']} is {col}, not {unit}"
            if len(col) != n + 1 or not all(isinstance(x, int) for x in col):
                return f"{item}: malformed column {col}"
        return None

    def run_checks(self) -> list[str]:
        seed = self.workdir / "paper_seed.json"
        basis = self.workdir / "paper_basis.json"
        seed.write_text(json.dumps(PAPER_SEED))
        basis.write_text(json.dumps(PAPER_BASIS))
        errors = []
        for frame, g in PAPER_G.items():
            code, text = self.cli(["gvectors", "--seed", str(seed), "--basis", str(basis),
                                   "--word", frame])
            columns = json.loads(text)["columns"]
            got = [[columns[b["name"]][r] for b in PAPER_BASIS] for r in range(3)]
            if code != 0 or got != g:
                errors.append(f"paper G-matrix in frame [{frame}]: {got} != {g}")
        return errors


class OrbitWitness(Workload):
    """``tropcluster fflv-orbit --n N`` with N in {5, 6}."""

    name = "orbit-witness"
    expected = (
        "cli.main", "fflv.verify_fflv_not_positive", "fflv.fflv_initial_form",
        "flag.sn_action", "poly.initial_form",
    )

    def schedule(self):
        # Every block of four operations holds three n=6 and one n=5, in a
        # seeded order.  n=6 takes about seven times as long as n=5, so the
        # median and the tail both sit among the n=6 operations for every
        # seed, rather than flipping between the two sizes.
        block = [5, 6, 6, 6]
        while True:
            self.rng.shuffle(block)
            yield from block

    def run(self, n):
        return self.cli(["fflv-orbit", "--n", str(n)])

    def check(self, n, result):
        code, text = result
        report = json.loads(text)
        rows = report.get("rows", [])
        perms = {",".join(map(str, p)) for p in itertools.permutations(range(1, n + 1))}
        if code != 0 or len(rows) != math.factorial(n) or {r["permutation"] for r in rows} != perms:
            return f"n={n}: exit {code}, {len(rows)} rows"
        for row in rows:
            if row["status"] != "not_positive" or not one_signed(row["witness"]):
                return f"n={n}: row {row} has no one-signed witness"
        identity = ",".join(map(str, range(1, n + 1)))
        witness = next(r["witness"] for r in rows if r["permutation"] == identity)
        if parse_terms(witness) != parse_terms(IDENTITY_WITNESS):
            return f"n={n}: identity witness {witness!r} != {IDENTITY_WITNESS!r}"
        return None


# -- sympy cross-check --------------------------------------------------------


def text_terms(text: str, names) -> dict[tuple, Fraction]:
    """Parse a rendered polynomial into exponent -> coefficient."""
    index = {v: i for i, v in enumerate(names)}
    out: dict[tuple, Fraction] = {}
    for negative, coeff, factors in parse_terms(text):
        e = [0] * len(names)
        for f in factors:
            var, _, power = f.partition("^")
            e[index[var]] += int(power or 1)
        c = Fraction(coeff) * (-1 if negative else 1)
        out[tuple(e)] = out.get(tuple(e), Fraction(0)) + c
    return out


def compare_with_sympy(names, generators, basis, label: str):
    """Compare a reduced grevlex basis (exponent -> coefficient dicts) with
    sympy's reduced grevlex basis of the generators."""
    import sympy

    gens = sympy.symbols(list(names))

    def canonical(terms):
        lead = max(terms, key=lambda e: (sum(e), tuple(-x for x in reversed(e))))
        c = terms[lead]
        return frozenset((e, v / c) for e, v in terms.items())

    def to_expr(terms):
        return sum(sympy.Rational(c.numerator, c.denominator)
                   * sympy.Mul(*[g ** k for g, k in zip(gens, e)])
                   for e, c in terms.items())

    reference = sympy.groebner([to_expr(t) for t in generators], *gens, order="grevlex")
    theirs = set()
    for p in reference.polys:
        theirs.add(canonical({e: Fraction(int(c.numerator), int(c.denominator))
                              for e, c in p.terms()}))
    ours = {canonical(t) for t in basis}
    if ours != theirs:
        return f"{label}: reduced grevlex basis differs from sympy's"
    return None


def make(name: str, rng: random.Random, workdir: Path, src: Path) -> Workload:
    if name == CensusCones.name:
        return CensusCones(rng, workdir, src / "tropcluster" / "data" / "flag4_census.json")
    for cls in (ClusterVerify, GvectorFrames, OrbitWitness):
        if cls.name == name:
            return cls(rng, workdir)
    raise KeyError(name)
