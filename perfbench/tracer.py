"""Per-layer timing of tropcluster from outside the package.

Each traced function is replaced by a wrapper, and the wrapper is bound
wherever the package holds the function: in its defining module and in every
``tropcluster`` module that imported it by name (``trop`` keeps its own
``initial_ideal`` and ``contains_monomial``, for example).  Methods are
wrapped on their class.  No source file is edited.

A wrapper records the number of calls, the inclusive time (outermost
activation only, so recursion is not double-counted) and the self time:
inclusive time minus the time spent in traced callees.
"""

from __future__ import annotations

import sys
import time

# (module, qualified name) of every traced function, grouped by layer.
TRACED = [
    ("cli", "main"),
    ("present", "presentation_ideal"),
    ("present", "ray_matrix"),
    ("present", "verify_main_theorem"),
    ("cluster", "gmatrix"),
    ("cluster", "laurent_expand"),
    ("cluster", "dominance_less"),
    ("cluster", "mutate_matrix"),
    ("flag", "sn_action"),
    ("fflv", "fflv_initial_form"),
    ("fflv", "verify_fflv_not_positive"),
    ("trop", "cone_initial_ideal"),
    ("trop", "is_prime_binomial"),
    ("trop", "is_totally_positive"),
    ("trop", "is_binomial"),
    ("groebner", "Ideal.groebner_basis"),
    ("groebner", "buchberger"),
    ("groebner", "normal_form"),
    ("groebner", "initial_ideal"),
    ("groebner", "eliminate"),
    ("groebner", "saturate"),
    ("groebner", "saturate_at_variables"),
    ("groebner", "contains_monomial"),
    ("poly", "initial_form"),
    ("exactmath", "nonnegative_combination"),
    ("exactmath", "rref"),
    ("exactmath", "invert"),
    ("exactmath", "smith_normal_form"),
]

LAYERS = ("cli", "present", "cluster", "flag", "fflv", "trop", "groebner", "poly", "exactmath")
PACKAGE = "tropcluster"


class Stat:
    __slots__ = ("calls", "s", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.depth = 0


class BudgetCounter:
    """Counts ResourceBudget raised by ``groebner.buchberger`` and the time
    those aborted calls took.  Cheap enough to stay on in timed runs."""

    def __init__(self):
        self.fallbacks = 0
        self.wasted_s = 0.0


class Tracer:
    """Installs and removes the wrappers; holds the statistics."""

    def __init__(self):
        self.stats = {self.key(m, q): Stat() for m, q in TRACED}
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    @staticmethod
    def key(module: str, qualname: str) -> str:
        return f"{module}.{qualname.split('.')[-1]}"

    def _wrap(self, fn, stat: Stat):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stat.calls += 1
            stat.depth += 1
            frame = [0.0]  # time spent in traced callees
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.depth -= 1
                stat.self_s += elapsed - frame[0]
                if stat.depth == 0:
                    stat.s += elapsed
                if stack:
                    stack[-1][0] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Bind a wrapper in place of every traced function.  Raises
        LookupError if a traced name no longer exists."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for module, qualname in TRACED:
            mod = sys.modules[f"{PACKAGE}.{module}"]
            cls_name, _, attr = qualname.rpartition(".")
            owner = getattr(mod, cls_name, None) if cls_name else mod
            fn = vars(owner).get(attr) if owner is not None else None
            if fn is None:
                raise LookupError(f"traced function {module}.{qualname} not found")
            wrapper = self._wrap(fn, self.stats[self.key(module, qualname)])
            if cls_name:
                setattr(owner, attr, wrapper)
                self._restore.append((owner, attr, fn))
            else:
                self._restore.extend(rebind(fn, wrapper))

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._restore):
            setattr(owner, name, fn)
        self._restore.clear()

    def uncalled(self, names) -> list[str]:
        return [n for n in names if self.stats[n].calls == 0]


def install_budget_counter(budget: BudgetCounter) -> None:
    """Wrap ``groebner.buchberger`` (and every by-name import of it) so that
    each ResourceBudget it raises is counted with the time it took."""
    groebner = sys.modules[f"{PACKAGE}.groebner"]
    fn = groebner.buchberger
    exc = groebner.ResourceBudget
    clock = time.perf_counter

    def buchberger(*args, **kwargs):
        start = clock()
        try:
            return fn(*args, **kwargs)
        except exc:
            budget.fallbacks += 1
            budget.wasted_s += clock() - start
            raise

    buchberger.__wrapped__ = fn
    rebind(fn, buchberger)


def rebind(fn, wrapper) -> list[tuple[object, str, object]]:
    """Bind ``wrapper`` under every name by which a tropcluster module holds
    ``fn``; returns (module, name, fn) for each binding replaced."""
    replaced = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapper)
                replaced.append((module, attr, fn))
    return replaced
