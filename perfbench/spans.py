"""In-memory span tracer for the traced benchmark run, and the per-layer
metrics derived from its spans.

The tracer never edits the library: it replaces names at the modules that
import them (for example `dlbounds.learn.exact_ksparse_batch`, the binding
the learner calls) with wrappers that record a span per call.  A span is
(id, name, parent, start, end, site, error, attrs); the parent is the
innermost open span on the calling thread, or, on a pool thread with no
open span, the innermost open span on the main thread.  Spans stay in
memory and are handed back whole when the invocation ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from contextlib import contextmanager
from math import comb
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    parent: int | None
    start: float
    end: float
    site: str | None
    error: str | None
    attrs: dict


def _exact_hook(fn, args, kwargs, result) -> dict:
    a = inspect.signature(fn).bind(*args, **kwargs).arguments
    return {"pairs": comb(a["d"].p, int(a["k"])) * a["signals"].shape[1]}


def _l1_hook(fn, args, kwargs, result) -> dict:
    return {"iterations": int(result[2]), "fp_residual": float(result[3])}


def _synth_hook(fn, args, kwargs, result) -> dict:
    return {"signals": len(result)}


BOUND_CALCULATORS = ("bounds.l1_generalization_bound", "bounds.ksparse_generalization_bound")

# (module, attribute, span name, call site, hook).  The call site separates
# the learner's coder calls from the harness's evaluation calls.  The bound
# calculators are also replaced inside `dlbounds.bounds` itself, so the grid
# points `optimize_fast_params` tries are seen.
WRAPS = (
    ("dlbounds.learn", "exact_ksparse_batch", "coders.exact_ksparse_batch", "learn", _exact_hook),
    ("dlbounds.experiments", "exact_ksparse_batch", "coders.exact_ksparse_batch", "eval", _exact_hook),
    ("dlbounds.learn", "l1_solve_batch", "coders.l1_solve_batch", "learn", _l1_hook),
    ("dlbounds.experiments", "l1_solve_batch", "coders.l1_solve_batch", "eval", _l1_hook),
    ("dlbounds.experiments", "learn_dictionary", "learn.learn_dictionary", None, None),
    ("dlbounds.cli", "learn_dictionary", "learn.learn_dictionary", None, None),
    ("dlbounds.experiments", "synth_sample", "learn.synth_sample", None, _synth_hook),
    ("dlbounds.cli", "synth_sample", "learn.synth_sample", None, _synth_hook),
    ("dlbounds.experiments", "uniform_sphere_matrix", "core.uniform_sphere_matrix", None, None),
    ("dlbounds.learn", "uniform_sphere_matrix", "core.uniform_sphere_matrix", None, None),
    ("dlbounds.cli", "uniform_sphere_matrix", "core.uniform_sphere_matrix", None, None),
    ("dlbounds.experiments", "babel", "coherence.babel", None, None),
    ("dlbounds.learn", "babel", "coherence.babel", None, None),
    ("dlbounds.cli", "babel", "coherence.babel", None, None),
    *((module, attr, "bounds." + attr, None, None)
      for module in ("dlbounds.bounds", "dlbounds.experiments", "dlbounds.cli")
      for attr in ("l1_generalization_bound", "ksparse_generalization_bound",
                   "optimize_fast_params")),
    *(("dlbounds.kernels", attr, "kernels." + attr, None, None)
      for attr in ("gram_matrix", "validate_kernel", "kernel_greedy_ksparse",
                   "feature_babel", "kernel_gen_bound")),
    ("dlbounds.cli", "gengap_run", "experiments.gengap_run", None, None),
    ("dlbounds.cli", "mc_babel", "experiments.mc_babel", None, None),
    ("dlbounds.cli", "records_to_csv", "experiments.records_to_csv", None, None),
)


class Tracer:
    """Records spans while enabled; `install` applies WRAPS, `restore`
    puts the original names back."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self.enabled = False
        self._ids = itertools.count(1)
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[list[int], int, int | None]:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    def _call(self, name, site, hook, fn, args, kwargs):
        stack, sid, parent = self._open()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, parent, start, end, site, type(exc).__name__, {}))
            raise
        end = time.perf_counter()
        stack.pop()
        attrs = hook(fn, args, kwargs, result) if hook else {}
        self.spans.append(Span(sid, name, parent, start, end, site, None, attrs))
        return result

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        stack, sid, parent = self._open()
        error = None
        start = time.perf_counter()
        try:
            yield
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, parent, start, end, None, error, {}))

    def wrap(self, module_name: str, attr: str, name: str, site=None, hook=None) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            return self._call(name, site, hook, original, args, kwargs)

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def counted(self, fn, key: str):
        """fn wrapped to count its calls in counters[key] while enabled."""
        self.counters[key] = 0

        def wrapper(*args):
            if self.enabled:
                self.counters[key] += 1
            return fn(*args)

        return wrapper

    def install(self) -> None:
        for module, attr, name, site, hook in WRAPS:
            self.wrap(module, attr, name, site, hook)

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


# Every per-layer metric the traced run reports: name -> (unit, better).
LAYER_METRICS = {
    "coders.exact_ksparse_batch.busy_s": ("s", "lower"),
    "coders.exact_ksparse_batch.calls": ("count", "lower"),
    "coders.exact_ksparse_batch.in_learn_s": ("s", "lower"),
    "coders.exact_ksparse_batch.in_eval_s": ("s", "lower"),
    "coders.exact_ksparse_batch.support_signal_pairs": ("count", "lower"),
    "coders.l1_solve_batch.busy_s": ("s", "lower"),
    "coders.l1_solve_batch.calls": ("count", "lower"),
    "coders.l1_solve_batch.in_learn_s": ("s", "lower"),
    "coders.l1_solve_batch.in_eval_s": ("s", "lower"),
    "coders.l1_solve_batch.iterations": ("count", "lower"),
    "coders.l1_solve_batch.iterations_max": ("count", "lower"),
    "coders.l1_solve_batch.maxiter_exits": ("count", "lower"),
    "coders.l1_solve_batch.fp_residual_max": ("norm", "lower"),
    "learn.learn_dictionary.busy_s": ("s", "lower"),
    "learn.learn_dictionary.self_s": ("s", "lower"),
    "learn.synth_sample.busy_s": ("s", "lower"),
    "learn.synth_sample.signals": ("count", "lower"),
    "core.uniform_sphere_matrix.busy_s": ("s", "lower"),
    "core.uniform_sphere_matrix.calls": ("count", "lower"),
    "coherence.babel.busy_s": ("s", "lower"),
    "coherence.babel.calls": ("count", "lower"),
    "bounds.busy_s": ("s", "lower"),
    "bounds.calls": ("count", "lower"),
    "bounds.applicable_ratio": ("ratio", "higher"),
    "kernels.gram_matrix.busy_s": ("s", "lower"),
    "kernels.validate_kernel.busy_s": ("s", "lower"),
    "kernels.kernel_greedy_ksparse.busy_s": ("s", "lower"),
    "kernels.kernel_greedy_ksparse.calls": ("count", "lower"),
    "kernels.kernel_evals": ("count", "lower"),
    "kernels.feature_babel.busy_s": ("s", "lower"),
    "kernels.kernel_gen_bound.busy_s": ("s", "lower"),
    "experiments.gengap_run.self_s": ("s", "lower"),
    "experiments.mc_babel.busy_s": ("s", "lower"),
    "experiments.mc_babel.pool_s": ("s", "lower"),
    "experiments.mc_babel.thread_speedup": ("ratio", "higher"),
    "experiments.records_to_csv.busy_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _key(name: str) -> str:
    """Spans sharing a key do not count twice when one nests in another;
    the bound calculators call each other, so they share one key."""
    return "bounds" if name.startswith("bounds.") else name


def _covered(span: Span, kids: list[Span]) -> float:
    """Length of the union of the kids' intervals, clipped to the span."""
    total = 0.0
    run_start = run_end = None
    for a, b in sorted((max(k.start, span.start), min(k.end, span.end)) for k in kids):
        if b <= a:
            continue
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def layer_metrics(spans: list[Span], max_iters: int) -> dict[str, float]:
    """Per-layer metrics of one traced invocation.  busy_s sums the
    durations of a name's outermost spans (across threads); self_s subtracts
    the time their direct children cover; calls counts outermost spans."""
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def nested_in_same(s: Span) -> bool:
        key, pid = _key(s.name), s.parent
        while pid in by_id:
            if _key(by_id[pid].name) == key:
                return True
            pid = by_id[pid].parent
        return False

    outer: dict[str, list[Span]] = {}
    for s in spans:
        if not nested_in_same(s):
            outer.setdefault(_key(s.name), []).append(s)

    def busy(key, site=None):
        return sum(s.end - s.start for s in outer.get(key, ()) if site in (None, s.site))

    def self_time(key):
        return sum(s.end - s.start - _covered(s, children.get(s.id, [])) for s in outer.get(key, ()))

    def calls(key):
        return len(outer.get(key, ()))

    def attr_values(key, attr):
        return [s.attrs[attr] for s in outer.get(key, ()) if attr in s.attrs]

    evaluations = [s for s in spans if s.name in BOUND_CALCULATORS
                   and (s.parent not in by_id or by_id[s.parent].name not in BOUND_CALCULATORS)]
    exact, l1 = "coders.exact_ksparse_batch", "coders.l1_solve_batch"
    iterations = attr_values(l1, "iterations")
    return {
        exact + ".busy_s": busy(exact),
        exact + ".calls": calls(exact),
        exact + ".in_learn_s": busy(exact, "learn"),
        exact + ".in_eval_s": busy(exact, "eval"),
        exact + ".support_signal_pairs": sum(attr_values(exact, "pairs")),
        l1 + ".busy_s": busy(l1),
        l1 + ".calls": calls(l1),
        l1 + ".in_learn_s": busy(l1, "learn"),
        l1 + ".in_eval_s": busy(l1, "eval"),
        l1 + ".iterations": sum(iterations),
        l1 + ".iterations_max": max(iterations, default=0),
        l1 + ".maxiter_exits": sum(it == max_iters for it in iterations),
        l1 + ".fp_residual_max": max(attr_values(l1, "fp_residual"), default=0.0),
        "learn.learn_dictionary.busy_s": busy("learn.learn_dictionary"),
        "learn.learn_dictionary.self_s": self_time("learn.learn_dictionary"),
        "learn.synth_sample.busy_s": busy("learn.synth_sample"),
        "learn.synth_sample.signals": sum(attr_values("learn.synth_sample", "signals")),
        "core.uniform_sphere_matrix.busy_s": busy("core.uniform_sphere_matrix"),
        "core.uniform_sphere_matrix.calls": calls("core.uniform_sphere_matrix"),
        "coherence.babel.busy_s": busy("coherence.babel"),
        "coherence.babel.calls": calls("coherence.babel"),
        "bounds.busy_s": busy("bounds"),
        "bounds.calls": calls("bounds"),
        "bounds.applicable_ratio": (sum(s.error is None for s in evaluations) / len(evaluations)
                                    if evaluations else 0.0),
        "kernels.gram_matrix.busy_s": busy("kernels.gram_matrix"),
        "kernels.validate_kernel.busy_s": busy("kernels.validate_kernel"),
        "kernels.kernel_greedy_ksparse.busy_s": busy("kernels.kernel_greedy_ksparse"),
        "kernels.kernel_greedy_ksparse.calls": calls("kernels.kernel_greedy_ksparse"),
        "kernels.feature_babel.busy_s": busy("kernels.feature_babel"),
        "kernels.kernel_gen_bound.busy_s": busy("kernels.kernel_gen_bound"),
        "experiments.gengap_run.self_s": self_time("experiments.gengap_run"),
        "experiments.mc_babel.busy_s": busy("experiments.mc_babel"),
        "experiments.records_to_csv.busy_s": busy("experiments.records_to_csv"),
        "cli.main.self_s": self_time("cli.main"),
    }
