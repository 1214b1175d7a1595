"""Spans around the calls into each imputebench layer, taken from outside
the package.

Every public function is wrapped where its caller looks it up (for example
``bench.generate`` rather than ``missingness.generate``), so the package
itself is left untouched. A thread-local stack gives each span its parent;
a layer's self time is its duration minus the part of that interval its
child spans cover.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np


@dataclass
class Span:
    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its children cover.

    Children may overlap (threads) or nest (grandchildren inside children);
    the union of the direct children's intervals is what gets subtracted.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append((s.start, s.end))
    return {
        s.span_id: s.duration - covered_length(children.get(s.span_id, ()), s.start, s.end)
        for s in spans
    }


class Tracer:
    """In-memory span recorder; spans are kept until the run ends."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        s = Span(span_id, stack[-1].span_id if stack else None, name, self.clock())
        stack.append(s)
        try:
            yield s
        finally:
            s.end = self.clock()
            stack.pop()
            with self._lock:
                self.spans.append(s)

    def wrap(self, fn: Callable, name: Callable[..., str], after: Optional[Callable] = None):
        """``fn`` inside a span named ``name(*args)``; ``after(span, args,
        result)`` runs once the span has closed, so its cost is not timed."""

        def wrapper(*args, **kwargs):
            with self.span(name(*args, **kwargs)) as s:
                result = fn(*args, **kwargs)
            if after is not None:
                after(s, args, result)
            return result

        return wrapper


@contextmanager
def patched(targets: list[tuple[object, str, Callable]]):
    """Replace ``owner.attr`` with ``make(original)`` for each target, and
    restore every original on exit."""
    saved = []
    try:
        for owner, attr, make in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def instrument(tracer: Tracer, violations: list[str]):
    """The wrappers for one traced grid. Every traced ``Imputer.run`` result
    is checked to keep the observed entries bitwise; failures are appended
    to ``violations``."""
    from imputebench import bench, ensemble, imputers

    def check_run(span, args, result):
        imputer, ds = args[0], args[1]
        obs = ds.mask.observed
        if not bitwise_equal(result.completed.values[obs], ds.observed[obs]):
            violations.append(f"{span.name} changed observed entries")
        diag = result.diagnostics
        if "iterations" in diag:
            span.attrs["iterations"] = int(diag["iterations"])
            span.attrs["converged"] = bool(diag["converged"])

    def table_shape(span, args, result):
        span.attrs["shape"] = tuple(args[0].shape)

    def fixed(name):
        return lambda *a, **k: name

    return patched([
        (bench, "discover_datasets", lambda f: tracer.wrap(f, fixed("bench.discover_datasets"))),
        (bench, "run_benchmark", lambda f: tracer.wrap(f, fixed("bench.run_benchmark"))),
        (bench, "emit_report", lambda f: tracer.wrap(f, fixed("bench.emit_report"))),
        (bench, "generate", lambda f: tracer.wrap(
            f, lambda spec, *a, **k: f"missingness.{spec.pattern}")),
        (bench, "apply_mask", lambda f: tracer.wrap(f, fixed("core.apply_mask"))),
        (bench, "standardize_observed",
         lambda f: tracer.wrap(f, fixed("bench.standardize_observed"))),
        (bench, "rmse", lambda f: tracer.wrap(f, fixed("bench.score"))),
        (bench, "imputation_accuracy", lambda f: tracer.wrap(f, fixed("bench.score"))),
        (bench, "scheduler_step", lambda f: tracer.wrap(f, fixed("scheduler.step"))),
        (imputers.Imputer, "run", lambda f: tracer.wrap(
            f, lambda imp, *a, **k: f"imputers.{imp.method}", check_run)),
        (imputers, "build_features", lambda f: tracer.wrap(
            f, fixed("featurize.build_features"), table_shape)),
        (ensemble, "blend", lambda f: tracer.wrap(f, fixed("ensemble.blend"))),
        (ensemble, "permutation_ensemble",
         lambda f: tracer.wrap(f, fixed("ensemble.permutation_ensemble"))),
        (ensemble, "adaptive_weight", lambda f: tracer.wrap(f, fixed("ensemble.adaptive_weight"))),
    ])


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced grid
# ---------------------------------------------------------------------------

# The benchmark's declared metric set: fixed here rather than read from the
# package, so a later change to the package cannot silently rename a metric.
PATTERN_TAGS = (
    "mcar", "col-mar", "nn-mnar", "self-masking", "censoring", "panel",
    "polarization-hard", "polarization-soft", "latent-factor", "cluster",
    "two-phase", "block", "seq",
)
TIMED_METHODS = ("col-mean", "knn", "soft-impute", "ice", "featurized-ridge")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every per-layer metric; a layer the grid never reached reads 0.

    ``<name>_s`` is the summed wall time of the spans with that name;
    ``self_s`` is the summed self time.
    """
    by_id = {s.span_id: s for s in spans}
    selfs = self_times(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in named(name))

    def parent_name(s):
        p = by_id.get(s.parent_id)
        return p.name if p is not None else None

    m: dict[str, float] = {}
    for method in TIMED_METHODS:
        m[f"imputers.{method}_s"] = total(f"imputers.{method}")
    for method, count in (("ice", "sweeps"), ("soft-impute", "iterations")):
        runs = named(f"imputers.{method}")
        its = sum(s.attrs.get("iterations", 0) for s in runs)
        m[f"imputers.{method}.{count}"] = float(its)
        m[f"imputers.{method}.s_per_{count.rstrip('s')}"] = _ratio(total(f"imputers.{method}"), its)
        m[f"imputers.{method}.converged_frac"] = _ratio(
            sum(bool(s.attrs.get("converged")) for s in runs), len(runs))
    m["imputers.featurized-ridge.fit_s"] = sum(
        selfs[s.span_id] for s in named("imputers.featurized-ridge"))

    tables = named("featurize.build_features")
    m["featurize.build_features_s"] = total("featurize.build_features")
    m["featurize.table_mb_computed"] = sum(
        r * c * (r + c + 2) * 8 for r, c in (s.attrs["shape"] for s in tables)) / 2**20

    for name in ("blend", "permutation_ensemble", "adaptive_weight"):
        m[f"ensemble.{name}_s"] = total(f"ensemble.{name}")
    m["ensemble.base_runs"] = float(sum(
        s.name.startswith("imputers.") and parent_name(s) == "ensemble.permutation_ensemble"
        for s in spans))

    for tag in PATTERN_TAGS:
        m[f"missingness.{tag}_s"] = total(f"missingness.{tag}")
    m["missingness.generate_calls"] = float(sum(s.name.startswith("missingness.") for s in spans))

    m["core.apply_mask_s"] = total("core.apply_mask")
    for name in ("standardize_observed", "score", "discover_datasets", "emit_report"):
        m[f"bench.{name}_s"] = total(f"bench.{name}")
    m["bench.run_benchmark.self_s"] = sum(selfs[s.span_id] for s in named("bench.run_benchmark"))
    m["bench.groups"] = float(sum(
        s.name.startswith("missingness.") and parent_name(s) == "bench.run_benchmark"
        for s in spans))
    m["bench.cells"] = float(sum(
        s.name.startswith("imputers.") and parent_name(s) == "bench.run_benchmark"
        for s in spans))

    m["scheduler.step_calls"] = float(len(named("scheduler.step")))
    m["scheduler.step_s"] = total("scheduler.step")
    return m


def busy_time(spans: list[Span], root_name: str = "cli.main") -> float:
    """Summed self time of every layer under the root spans: their duration
    minus the roots' own self time (argument parsing, table printing)."""
    selfs = self_times(spans)
    return sum(s.duration - selfs[s.span_id] for s in spans if s.name == root_name)


def required_spans(patterns: Iterable[str], methods: Iterable[str], adaptive: bool) -> set[str]:
    """Span names a grid over these patterns and methods must record."""
    need = {
        "cli.main", "bench.discover_datasets", "bench.run_benchmark", "bench.emit_report",
        "core.apply_mask", "bench.standardize_observed", "bench.score",
    }
    need |= {f"missingness.{p}" for p in patterns}
    methods = set(methods)
    if "ensemble" in methods:
        methods |= {"featurized-ridge", "soft-impute"}
        need |= {"ensemble.blend", "ensemble.permutation_ensemble", "ensemble.adaptive_weight"}
    if "featurized-ridge" in methods:
        need.add("featurize.build_features")
    need |= {f"imputers.{m}" for m in methods}
    if adaptive:
        need.add("scheduler.step")
    return need
