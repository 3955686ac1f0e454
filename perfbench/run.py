"""Benchmark of the tropcluster verification pipelines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One client sends operations in a closed loop, in-process: the
next operation starts only after the previous one has finished and its
result has been checked against a reference that the code under test did
not produce (see ``workloads.py``).

``--trace 0`` measures the end-to-end metrics with no tracing wrappers: the
operations run until their summed time reaches ``--seconds``; throughput is
operations per second of that summed time.  ``--trace 1`` runs a fixed
number of operations, each once untraced and once with the per-layer
wrappers of ``tracer.py`` bound, and reports per-layer counts and times and
the traced / untraced time ratio.  Its operation count follows from
``--seconds`` and the workload's nominal operation time, so its counts repeat
exactly for a seed.

``BENCHMARK.json`` lists census-cones and gvector-frames.  Two more
workloads run the same way but are not listed, because their figures do not
repeat across runs within the regression bounds: cluster-verify
(``tropcluster verify`` on distinct A2 seeds, the only workload that reaches
``present``) takes 2-13 s per operation depending on the seed, so a run of
at most a minute holds too few operations; orbit-witness (``fflv-orbit``,
the only one that reaches ``flag.sn_action`` and ``fflv``) repeats one
2-second operation whose time follows the machine's speed, which on a shared
2-vCPU host swings by up to a factor of two from minute to minute.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when the run completed (wrong results are
reported, not raised), 2 when the program source is missing and 3 when the
environment would change which code path the program takes.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MODULES = ("exactmath", "poly", "groebner", "cluster", "trop", "present", "flag", "fflv", "cli")
SETUP_REPEATS = 5
# Nominal seconds of one operation at the time the benchmark was defined;
# only sets how many operations a traced run makes.
NOMINAL_OP_S = {
    "census-cones": 4.5,
    "cluster-verify": 5.0,
    "gvector-frames": 0.1,
    "orbit-witness": 1.5,
}
BUDGET_VARS = ("TROPCLUSTER_BUDGET", "TROPCLUSTER_TIME_BUDGET")

PER_LAYER = [
    ("groebner.buchberger.calls", "count"),
    ("groebner.buchberger.s", "s"),
    ("groebner.buchberger.self_s", "s"),
    ("groebner.normal_form.calls", "count"),
    ("groebner.groebner_basis.calls", "count"),
    ("groebner.gb_cache_hit_ratio", "ratio"),
    ("groebner.budget_fallbacks", "count"),
    ("groebner.budget_wasted_s", "s"),
    ("groebner.initial_ideal.s", "s"),
    ("groebner.eliminate.s", "s"),
    ("groebner.saturate.s", "s"),
    ("groebner.saturate_at_variables.s", "s"),
    ("groebner.contains_monomial.s", "s"),
    ("trop.cone_initial_ideal.s", "s"),
    ("trop.is_prime_binomial.s", "s"),
    ("trop.is_totally_positive.s", "s"),
    ("trop.is_binomial.s", "s"),
    ("present.presentation_ideal.s", "s"),
    ("present.ray_matrix.s", "s"),
    ("present.verify_main_theorem.self_s", "s"),
    ("cluster.gmatrix.s", "s"),
    ("cluster.laurent_expand.s", "s"),
    ("cluster.laurent_expand.calls", "count"),
    ("cluster.dominance_less.calls", "count"),
    ("cluster.mutate_matrix.calls", "count"),
    ("exactmath.nonnegative_combination.calls", "count"),
    ("exactmath.nonnegative_combination.s", "s"),
    ("exactmath.rref.calls", "count"),
    ("exactmath.rref.s", "s"),
    ("exactmath.invert.calls", "count"),
    ("exactmath.invert.s", "s"),
    ("exactmath.smith_normal_form.calls", "count"),
    ("exactmath.smith_normal_form.s", "s"),
    ("poly.initial_form.calls", "count"),
    ("poly.initial_form.s", "s"),
    ("flag.sn_action.calls", "count"),
    ("flag.sn_action.s", "s"),
    ("fflv.fflv_initial_form.s", "s"),
    ("fflv.verify_fflv_not_positive.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.op_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


def log(text: str) -> None:
    print(text, flush=True)


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def import_program():
    """Import every tropcluster module afresh (dropping earlier imports and
    with them the process-wide caches) and return them as a namespace."""
    for name in [n for n in sys.modules if n == "tropcluster" or n.startswith("tropcluster.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"tropcluster.{m}") for m in MODULES}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"tropcluster imported from {mods['cli'].__file__}, not {SRC}")
    return argparse.Namespace(**mods)


def setup(name: str, seed: int, workdir: Path):
    """Time the set-up SETUP_REPEATS times: imports, input generation and the
    program's process-wide caches.  Returns the last workload and the median."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        tc = import_program()
        wl = workloads.make(name, random.Random(f"{name}:{seed}"), workdir, SRC)
        wl.setup(tc)
        times.append(time.perf_counter() - start)
    return wl, statistics.median(times)


class Run:
    """Outcome of the operations of one run."""

    def __init__(self, wl):
        self.wl = wl
        self.latencies: list[float] = []
        self.errors: list[str] = []
        self.attempted = 0
        self.for_sympy: list[tuple] = []

    def op(self, item) -> float:
        """Run, time and check one operation; returns its time."""
        wl = self.wl
        self.attempted += 1
        wl.prepare(item)
        # Start every operation from a collected heap, so its garbage
        # collections depend on its own allocations and not on what the
        # previous operation and its check left behind.
        gc.collect()
        start = time.perf_counter()
        try:
            result = wl.run(item)
        except Exception as exc:  # a raising operation is a failed operation
            elapsed = time.perf_counter() - start
            self.errors.append(f"{item}: {type(exc).__name__}: {exc}")
            return elapsed
        elapsed = time.perf_counter() - start
        try:
            err = wl.check(item, result)
        except Exception as exc:  # an unreadable result is a wrong result
            err = f"{item}: check raised {type(exc).__name__}: {exc}"
        if err:
            self.errors.append(err)
        elif wl.sympy_check is not None:
            # sympy is imported only after the timed phase, so that it does
            # not count in the program's peak RSS.
            self.for_sympy.append((item, result))
        return elapsed

    def finish_checks(self) -> None:
        """Run-level references and the sympy cross-check, untimed."""
        self.errors.extend(self.wl.run_checks())
        for item, result in self.for_sympy:
            err = self.wl.sympy_check(item, result)
            if err:
                self.errors.append(err)
        self.for_sympy.clear()


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    value; never below the median.  Under 20 samples that percentile would
    fall below the median (under 11 it does not exist), so the median is
    reported; the value then moves smoothly from p50 upwards as the sample
    count grows instead of jumping when it crosses 10."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 20:
        return 50.0, statistics.median(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def timed_run(wl, seconds: float, budget) -> tuple[Run, dict]:
    run = Run(wl)
    busy = 0.0
    seen = set()
    repeats = 0
    schedule = wl.schedule()
    while busy < seconds:
        item = next(schedule, None)
        if item is None:
            break
        key = wl.key(item)
        repeats += key in seen
        seen.add(key)
        elapsed = run.op(item)
        run.latencies.append(elapsed)
        busy += elapsed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run.finish_checks()
    pct, tail_s = tail(run.latencies)
    log(f"operations: {len(run.latencies)} in {busy:.3f} s of operation time")
    log(f"repeat share: {repeats / len(run.latencies):.4f} (operations repeating an earlier input)")
    log(f"latency_tail_s is p{pct:.1f} of {len(run.latencies)} samples")
    log(f"groebner.budget_fallbacks: {budget.fallbacks} ({budget.wasted_s:.6f} s wasted)")
    metrics = {
        "ops_per_s": (len(run.latencies) / busy, "1/s"),
        "latency_p50_s": (statistics.median(run.latencies), "s"),
        "latency_tail_s": (tail_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return run, metrics


def traced_run(wl, seconds: float, budget) -> tuple[Run, dict]:
    trace = tracer.Tracer()
    run = Run(wl)
    pairs = max(1, math.ceil(seconds / (2 * NOMINAL_OP_S[wl.name])))
    schedule = wl.schedule()
    untraced = traced = 0.0
    done = 0
    for item in schedule:
        if done == pairs:
            break
        untraced += run.op(item)
        trace.install()
        try:
            traced += run.op(item)
        finally:
            trace.uninstall()
        done += 1
    run.finish_checks()
    missing = trace.uncalled(wl.expected)
    if missing:
        run.errors.append(f"traced functions never called: {', '.join(missing)}")
    stats = trace.stats
    metrics = {}
    for name, unit in PER_LAYER:
        func, _, field = name.rpartition(".")
        if func in stats:
            metrics[name] = (getattr(stats[func], field), unit)
    gb, bb = stats["groebner.groebner_basis"].calls, stats["groebner.buchberger"].calls
    metrics["groebner.gb_cache_hit_ratio"] = (1 - bb / gb if gb else 0.0, "ratio")
    metrics["groebner.budget_fallbacks"] = (budget.fallbacks, "count")
    metrics["groebner.budget_wasted_s"] = (budget.wasted_s, "s")
    metrics["trace.op_s"] = (traced, "s")
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    log(f"traced operations: {done}; traced {traced:.3f} s / untraced {untraced:.3f} s")
    log(f"groebner_basis calls {gb}, buchberger calls {bb}")
    if traced:
        for module in tracer.LAYERS:
            share = sum(s.self_s for k, s in stats.items() if k.startswith(module + "."))
            log(f"self time {module}: {share:.3f} s ({share / traced:.1%} of traced operation time)")
    return run, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_OP_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    set_vars = [v for v in BUDGET_VARS if v in os.environ]
    if set_vars:
        print(f"refusing to run: {', '.join(set_vars)} set; it changes which code path "
              "the program takes", file=sys.stderr)
        return 3
    if not (SRC / "tropcluster" / "__init__.py").is_file():
        print(f"program source not found under {SRC}", file=sys.stderr)
        return 2

    env = environment()
    log(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds}, trace {args.trace}")
    log(f"nproc {env['nproc']}; python {env['python']}; cpu {env['cpu']}")
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl, setup_s = setup(args.workload, args.seed, workdir)
        budget = tracer.BudgetCounter()
        tracer.install_budget_counter(budget)
        if args.trace:
            run, metrics = traced_run(wl, args.seconds, budget)
        else:
            run, metrics = timed_run(wl, args.seconds, budget)
            metrics["setup_s"] = (setup_s, "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    for err in run.errors[:20]:
        log(f"FAILED {err}")
    failed = min(len(run.errors), run.attempted)
    # error_rate is 0 on a correct program, so it is not among the JSON
    # metrics (whose bounds are shares of a non-zero median); the JSON
    # carries it as failed / attempted.
    log(f"error_rate: {failed / run.attempted} ratio ({failed} of {run.attempted})")
    for name, (value, unit) in metrics.items():
        log(f"{name}: {value} {unit}")
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
