"""Batch front-end: load seeds and basis files, run the verification
pipelines, and emit deterministic JSON reports.

Exit codes: 0 when every verification clause passed, 1 when a clause
failed (the report is still written), 2 on usage errors.  Reports are
rendered with sorted keys so identical inputs give identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .cluster import SeedData, gmatrix, mutate_seed
from .groebner import Ideal, ideal_equal, initial_ideal, render_ideal
from .poly import OrderSpec, parse_polynomial
from .present import KhovanskiiSpec, presentation_ideal, ray_matrix, verify_main_theorem
from .trop import is_totally_positive


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True, default=str) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_seed(path: str) -> SeedData:
    return SeedData.from_json(Path(path).read_text())


def _load_basis(path: str) -> list[tuple]:
    """Basis file: JSON list of {"word": [...], "index": i, "name": "..."}."""
    raw = json.loads(Path(path).read_text())
    out = []
    for k, item in enumerate(raw):
        name = item.get("name", f"A{k + 1}")
        out.append((tuple(item.get("word", ())), int(item["index"]), name))
    return out


def _parse_word(text: str) -> list[int]:
    if not text:
        return []
    return [int(x) for x in text.split(",")]


def _report_exit(report: dict, out: str | None) -> int:
    _emit(report, out)
    return 0 if report.get("verified", True) else 1


def _cmd_mutate(args) -> int:
    seed = _load_seed(args.seed)
    mutated = mutate_seed(seed, _parse_word(args.word))
    report = json.loads(mutated.to_json())
    _emit(report, args.out)
    return 0


def _cmd_gvectors(args) -> int:
    seed = _load_seed(args.seed)
    basis = _load_basis(args.basis)
    frame = _parse_word(args.word)
    g = gmatrix(seed, [(word, i) for word, i, _ in basis], frame)
    report = {
        "frame": frame,
        "columns": {
            name: [int(x) for x in g.column(c)]
            for c, (_, _, name) in enumerate(basis)
        },
    }
    _emit(report, args.out)
    return 0


def _cmd_present(args) -> int:
    spec = KhovanskiiSpec(_load_seed(args.seed), _load_basis(args.basis))
    pres = presentation_ideal(spec)
    report = {
        "variables": list(pres.ring.names),
        "generators": sorted(g.render() for g in pres.ideal.generators),
    }
    _emit(report, args.out)
    return 0


def _cmd_rays(args) -> int:
    spec = KhovanskiiSpec(_load_seed(args.seed), _load_basis(args.basis))
    frame = _parse_word(args.word)
    rays = ray_matrix(spec, frame)
    report = {
        "frame": frame,
        "rows": [[str(x) for x in rays.row(r)] for r in range(rays.rows)],
    }
    _emit(report, args.out)
    return 0


def _cmd_verify(args) -> int:
    spec = KhovanskiiSpec(_load_seed(args.seed), _load_basis(args.basis))
    report = verify_main_theorem(spec)
    report["verified"] = all(c["status"] == "pass" for c in report["clauses"])
    return _report_exit(report, args.out)


FLAG3_RAYS = {
    "w1": (0, 1, 1, 0, 0, 0),
    "w2": (1, 0, 1, 0, 0, 0),
    "w3": (1, 1, 0, 0, 0, 0),
}

FLAG3_EXPECTED = {
    "w1": ("-p2*p13 + p3*p12", "positive"),
    "w2": ("p1*p23 + p3*p12", "not_positive"),
    "w3": ("p1*p23 - p2*p13", "positive"),
}


def _cmd_flag3(args) -> int:
    from .flag import flag_plucker_ideal

    j3 = flag_plucker_ideal(3)
    report = {"rays": {}, "verified": True}
    for label, w in FLAG3_RAYS.items():
        init = initial_ideal(j3, OrderSpec.weight_order(w))
        cert = is_totally_positive(init)
        expected_gen, expected_verdict = FLAG3_EXPECTED[label]
        ok = (
            ideal_equal(init, Ideal(j3.ring, [parse_polynomial(expected_gen, j3.ring)]))
            and cert.verdict == expected_verdict
        )
        entry = {
            "weight": list(w),
            "initial_ideal": render_ideal(init),
            "positivity": cert.verdict,
            "status": "pass" if ok else "fail",
        }
        if cert.witness is not None:
            entry["witness"] = cert.witness.render()
        report["rays"][label] = entry
        report["verified"] = report["verified"] and ok
    return _report_exit(report, args.out)


def _census_verified(report: dict, expect_all_prime: bool) -> bool:
    ok = report["adjacency_counts"] == {"vertices": 14, "edges": 21}
    for info in report["cones"].values():
        ok = ok and info["monomial_free"] and info["binomial"]
        ok = ok and info["positive"] == "positive" and info["prime_as_expected"]
        if expect_all_prime:
            ok = ok and info["prime"]
    return ok


def _cmd_flag4(args) -> int:
    from .flag import flag4_census

    report = dict(flag4_census())
    report["verified"] = _census_verified(report, expect_all_prime=False)
    return _report_exit(report, args.out)


def _cmd_flag4_ext(args) -> int:
    from .flag import flag4_extended_census

    report = dict(flag4_extended_census())
    report["verified"] = (
        _census_verified(report, expect_all_prime=True)
        and report["x_degree"] == 2
        and report["homogeneous"]
        and report["eliminates_to_plucker"]
    )
    return _report_exit(report, args.out)


def _cmd_fflv(args) -> int:
    from .fflv import (
        fflv_initial_ideal,
        fflv_m_vector,
        fflv_m_vector_oracle,
        fflv_weight_vector,
    )
    from .flag import plucker_name, plucker_subsets

    n = args.n
    subsets = plucker_subsets(n)
    oracle_ok = all(
        fflv_m_vector(n, s) == fflv_m_vector_oracle(n, s) for s in subsets
    )
    report = {
        "n": n,
        "m_vectors": {
            plucker_name(s): list(fflv_m_vector(n, s)) for s in subsets
        },
        "weight_vector": list(fflv_weight_vector(n)),
        "closed_form_matches_oracle": oracle_ok,
        "verified": oracle_ok,
    }
    if n == 4:
        report["initial_ideal"] = render_ideal(fflv_initial_ideal(n))
    return _report_exit(report, args.out)


def _cmd_fflv_orbit(args) -> int:
    from .fflv import MissingWitness, verify_fflv_not_positive

    try:
        result = verify_fflv_not_positive(args.n)
    except MissingWitness as exc:
        report = {"n": args.n, "verified": False, "error": str(exc)}
        return _report_exit(report, args.out)
    rows = []
    for key in sorted(result["permutations"]):
        entry = result["permutations"][key]
        if entry.get("positive"):
            rows.append({"permutation": key, "status": "positive"})
        else:
            rows.append(
                {"permutation": key, "status": "not_positive", "witness": entry["witness"]}
            )
    report = {"n": args.n, "rows": rows, "verified": True}
    return _report_exit(report, args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropcluster",
        description="Exact verification pipelines for cluster-algebra "
        "toric degenerations and tropical positivity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, *, seed=False, basis=False, word=False, n=False):
        p = sub.add_parser(name)
        if seed:
            p.add_argument("--seed", required=True, help="seed JSON file")
        if basis:
            p.add_argument("--basis", required=True, help="basis JSON file")
        if word:
            p.add_argument("--word", default="", help="comma-separated 1-based directions")
        if n:
            p.add_argument("--n", type=int, required=True)
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        p.set_defaults(fn=fn)
        return p

    add("mutate", _cmd_mutate, seed=True, word=True)
    add("gvectors", _cmd_gvectors, seed=True, basis=True, word=True)
    add("present", _cmd_present, seed=True, basis=True)
    add("rays", _cmd_rays, seed=True, basis=True, word=True)
    add("verify", _cmd_verify, seed=True, basis=True)
    add("flag3", _cmd_flag3)
    add("flag4", _cmd_flag4)
    add("flag4-ext", _cmd_flag4_ext)
    add("fflv", _cmd_fflv, n=True)
    add("fflv-orbit", _cmd_fflv_orbit, n=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
