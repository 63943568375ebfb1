"""Per-layer tracing by wrapping the module-level names each layer's callers
look up, so nothing inside the program changes.

``installed(tracer)`` swaps every wrap point for a wrapper that adds counts
and busy time to ``tracer.sums`` and puts the originals back on exit.  A wrap
point that no longer exists is recorded in ``tracer.absent`` instead of
failing, and the metrics that depend on it read 0.  Sweep rows computed in
the process pool are traced in the workers: each task returns the sums it
added, and the parent merges them.

Optimizer calls form a stack, so kernel rows, kernel time and restarts
(``make_rng`` calls) are charged to the innermost optimizer call that is
running.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import re
import resource
import time
from collections import defaultdict

MEASURES = ("c2", "concurrence", "linear", "entropy")
REGIONS = ("OneEbit", "Region1", "Region2")
OPTIMIZE_KEYS = (
    "c2.free.a00",
    "entropy.free.a11",
    "entropy.free.a22",
    "c2.product.a00",
    "concurrence.product.a00",
    "linear.product.a00",
    "entropy.product.a00",
)
KERNEL_KEYS = ("c2.2x2", "concurrence.2x2", "linear.2x2", "entropy.2x2",
               "entropy.4x4", "entropy.8x8")
_CAPACITY_FUNCTIONS = {
    "capacity_c2": "c2",
    "capacity_concurrence": "concurrence",
    "capacity_linear_entropy": "linear",
    "capacity_entropy_no_ancilla": "entropy",
}
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = [
        ("canonical.decompose.calls", "count", "lower"),
        ("canonical.decompose.us_per_call", "us", "lower"),
    ]
    for m in MEASURES:
        for r in REGIONS:
            spec.append((f"capacity.{m}.{r}.ms_per_call", "ms", "lower"))
    spec += [
        ("capacity.optimizer.calls", "count", "lower"),
        ("capacity.optimizer.s", "s", "lower"),
        ("capacity.nelder_mead.calls", "count", "lower"),
        ("capacity.nelder_mead.s", "s", "lower"),
        ("capacity.kernel_rows", "rows", "lower"),
    ]
    for key in OPTIMIZE_KEYS:
        spec += [
            (f"optimize.{key}.calls", "count", "lower"),
            (f"optimize.{key}.s_per_call", "s", "lower"),
            (f"optimize.{key}.restarts", "count", "lower"),
            (f"optimize.{key}.converged_frac", "ratio", "higher"),
            (f"optimize.{key}.kernel_rows_per_restart", "rows", "lower"),
            (f"optimize.{key}.self_s_per_restart", "s", "lower"),
        ]
    for key in KERNEL_KEYS:
        spec += [
            (f"measures.{key}.calls", "count", "lower"),
            (f"measures.{key}.rows", "rows", "lower"),
            (f"measures.{key}.rows_per_call", "rows", "higher"),
            (f"measures.{key}.ns_per_row", "ns", "lower"),
        ]
    spec += [
        ("cli.sweep.rows", "count", "higher"),
        ("cli.sweep.workers", "count", "higher"),
        ("cli.sweep.csv_bytes", "B", "lower"),
        ("cli.sweep.parallel_efficiency", "ratio", "higher"),
        ("trace.items_per_s", "1/s", "higher"),
    ]
    return spec


class Tracer:
    """Sums of counts and busy seconds, keyed by flat names."""

    def __init__(self):
        self.sums: defaultdict[str, float] = defaultdict(float)
        self.absent: dict[str, str] = {}
        self._optimizer_stack: list[str] = []

    def reset(self) -> None:
        self.sums.clear()
        self._optimizer_stack.clear()

    def add(self, name: str, value: float) -> None:
        self.sums[name] += value

    def merge(self, sums: dict) -> None:
        for name, value in sums.items():
            self.sums[name] += value

    def metrics(self) -> dict[str, float]:
        """Per-layer metric values derived from the sums."""
        s = self.sums
        out = {
            "canonical.decompose.calls": s["decompose.calls"],
            "canonical.decompose.us_per_call": 1e6 * _ratio(s["decompose.s"], s["decompose.calls"]),
        }
        for m in MEASURES:
            for r in REGIONS:
                key = f"capacity.{m}.{r}"
                out[f"{key}.ms_per_call"] = 1e3 * _ratio(s[f"{key}.s"], s[f"{key}.calls"])
        out["capacity.optimizer.calls"] = s["capacity.optimizer.calls"]
        out["capacity.optimizer.s"] = s["capacity.optimizer.s"]
        out["capacity.nelder_mead.calls"] = s["capacity.nelder_mead.calls"]
        out["capacity.nelder_mead.s"] = s["capacity.nelder_mead.s"]
        out["capacity.kernel_rows"] = s["capacity.kernel_rows"]
        for key in OPTIMIZE_KEYS:
            p = f"optimize.{key}"
            restarts = s[f"{p}.restarts"]
            out[f"{p}.calls"] = s[f"{p}.calls"]
            out[f"{p}.s_per_call"] = _ratio(s[f"{p}.s"], s[f"{p}.calls"])
            out[f"{p}.restarts"] = restarts
            out[f"{p}.converged_frac"] = _ratio(s[f"{p}.converged"], restarts)
            out[f"{p}.kernel_rows_per_restart"] = _ratio(s[f"{p}.kernel_rows"], restarts)
            out[f"{p}.self_s_per_restart"] = _ratio(
                s[f"{p}.s"] - s[f"{p}.kernel_s"], restarts
            )
        for key in KERNEL_KEYS:
            p = f"measures.{key}"
            out[f"{p}.calls"] = s[f"{p}.calls"]
            out[f"{p}.rows"] = s[f"{p}.rows"]
            out[f"{p}.rows_per_call"] = _ratio(s[f"{p}.rows"], s[f"{p}.calls"])
            out[f"{p}.ns_per_row"] = 1e9 * _ratio(s[f"{p}.s"], s[f"{p}.rows"])
        out["cli.sweep.rows"] = s["sweep.rows"]
        out["cli.sweep.workers"] = s["pool.workers"] or (1.0 if s["sweep.rows"] else 0.0)
        out["cli.sweep.csv_bytes"] = s["sweep.csv_bytes"]
        out["cli.sweep.parallel_efficiency"] = _ratio(s["sweep.cpu_s"], s["sweep.worker_wall_s"])
        return out

    def unlisted(self) -> dict[str, float]:
        """Optimizer and kernel keys seen at run time that the spec omits."""
        seen = {}
        for name, value in self.sums.items():
            parts = name.split(".")
            key = ".".join(parts[1:-1])
            if parts[0] == "optimize" and key not in OPTIMIZE_KEYS:
                seen[name] = value
            if parts[0] == "measures" and key not in KERNEL_KEYS:
                seen[name] = value
        return seen


def cpu_seconds() -> float:
    """CPU time of this process and of its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ------------------------------------------------------------------ wrappers


def _timed(tracer: Tracer, prefix: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.add(f"{prefix}.calls", 1)
            tracer.add(f"{prefix}.s", time.perf_counter() - start)

    return wrapper


def _capacity(measure: str):
    def make(tracer: Tracer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            prefix = f"capacity.{measure}.{result.region.value}"
            tracer.add(f"{prefix}.calls", 1)
            tracer.add(f"{prefix}.s", time.perf_counter() - start)
            return result

        return wrapper

    return make


def _optimizer(product: bool):
    def make(tracer: Tracer, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            key = (f"{a['measure'].value}.{'product' if product else 'free'}"
                   f".a{a['anc_a']}{a['anc_b']}")
            prefix = f"optimize.{key}"
            tracer._optimizer_stack.append(prefix)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                tracer.add(f"{prefix}.converged", result.converged_restarts)
                return result
            finally:
                tracer.add(f"{prefix}.calls", 1)
                tracer.add(f"{prefix}.s", time.perf_counter() - start)
                tracer._optimizer_stack.pop()

        return wrapper

    return make


def _hidden_optimizer(tracer: Tracer, fn):
    # capacity.py's own name for the product-start search: counted as a
    # hidden optimizer call and under its optimizer key.
    return _timed(tracer, "capacity.optimizer", _optimizer(product=True)(tracer, fn))


def _kernel(site: str):
    # The kernel runs millions of times per run at ~10 us a call, so the
    # wrapper caches its metric names and touches the sums directly.
    def make(tracer: Tracer, fn):
        names: dict[tuple, tuple[str, str, str]] = {}
        stack = tracer._optimizer_stack
        clock = time.perf_counter

        def names_for(key, kind, args, kwargs):
            dims = dict(zip(("dim_a", "dim_b"), args), **kwargs)
            p = f"measures.{kind.value}.{dims.get('dim_a', 2)}x{dims.get('dim_b', 2)}"
            names[key] = (f"{p}.calls", f"{p}.rows", f"{p}.s")
            return names[key]

        @functools.wraps(fn)
        def wrapper(states, kind, *args, **kwargs):
            start = clock()
            out = fn(states, kind, *args, **kwargs)
            elapsed = clock() - start
            key = (kind, args, *kwargs.items())
            calls, rows_name, seconds = names.get(key) or names_for(key, kind, args, kwargs)
            rows = len(out)
            sums = tracer.sums
            sums[calls] += 1
            sums[rows_name] += rows
            sums[seconds] += elapsed
            if site == "capacity":
                sums["capacity.kernel_rows"] += rows
            if stack:
                sums[stack[-1] + ".kernel_rows"] += rows
                sums[stack[-1] + ".kernel_s"] += elapsed
            return out

        return wrapper

    return make


def _restarts(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer._optimizer_stack:
            tracer.add(f"{tracer._optimizer_stack[-1]}.restarts", 1)
        return fn(*args, **kwargs)

    return wrapper


def _pool(tracer: Tracer, cls):
    class TracedPool(cls):
        """The program's process pool, with tracing carried into each task."""

        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            workers = getattr(self, "_max_workers", max_workers) or 0
            tracer.sums["pool.workers"] = max(tracer.sums["pool.workers"], workers)

        def map(self, fn, *iterables, **kwargs):
            results = super().map(_traced_call, itertools.repeat(fn), *iterables, **kwargs)
            return self._merged(results)

        @staticmethod
        def _merged(results):
            for result, sums in results:
                tracer.merge(sums)
                yield result

    return TracedPool


# (module, name, layer, wrapper factory).  The layer is what the report
# names as absent when the wrap point is missing.
WRAP_POINTS = (
    ("entcap.canonical", "decompose", "canonical",
     lambda t, fn: _timed(t, "decompose", fn)),
    *(("entcap.capacity", name, "capacity", _capacity(measure))
      for name, measure in _CAPACITY_FUNCTIONS.items()),
    ("entcap.capacity", "product_start_capacity", "capacity.optimizer", _hidden_optimizer),
    ("entcap.capacity", "minimize", "capacity.nelder_mead",
     lambda t, fn: _timed(t, "capacity.nelder_mead", fn)),
    ("entcap.capacity", "entanglement_batch", "measures", _kernel("capacity")),
    ("entcap.optimize", "entanglement_batch", "measures", _kernel("optimize")),
    ("entcap.optimize", "make_rng", "optimize.restarts", _restarts),
    ("entcap.optimize", "numeric_capacity", "optimize", _optimizer(product=False)),
    ("entcap.optimize", "product_start_capacity", "optimize", _optimizer(product=True)),
    ("entcap.optimize", "ProcessPoolExecutor", "cli", _pool),
)

_active: Tracer | None = None


def _install(tracer: Tracer) -> list:
    saved = []
    for module_name, name, layer, make in WRAP_POINTS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        original = getattr(module, name, None)
        if original is None:
            tracer.absent[f"{module_name}.{name}"] = layer
            continue
        saved.append((module, name, original))
        setattr(module, name, make(tracer, original))
    return saved


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every wrap point for the duration of the block."""
    global _active
    if _active is not None:
        raise RuntimeError("a tracer is already installed")
    saved = _install(tracer)
    _active = tracer
    try:
        yield tracer
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)
        _active = None


def _traced_call(fn, *args):
    """Run one pool task under the worker's tracer; return (result, sums).

    Forked workers inherit the parent's wrappers and tracer.  A worker
    started fresh (spawn or forkserver) installs its own for its lifetime.
    """
    global _active
    if _active is None:
        _active = Tracer()
        _install(_active)
    _active.reset()
    result = fn(*args)
    return result, dict(_active.sums)
