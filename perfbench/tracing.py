"""Outside-in tracing of grasec's layers.

A :class:`Tracer` replaces every public function of each layer module (a
module attribute such as ``field.matrix_rank``) with a wrapper that records
one span per call: name, start, end, parent span and pass id, plus a small
value taken from the call's arguments or result (matrix cells, minors
returned, ...).  Spans stay in memory; :meth:`Tracer.pass_metrics` turns the
spans of one pass into per-layer metrics after the pass has ended.

Functions are found by looking at the modules, so a function that a later
version of grasec deletes is simply not wrapped, and every metric that
needs it is reported as absent instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import time
from collections import Counter, defaultdict
from types import ModuleType

LAYERS = ("field", "varieties", "secant", "grassec", "phimap", "criteria", "reproduce", "cli")

# Span record layout (a list per span keeps the wrapper cheap).
NAME, START, END, PARENT, PASS, RAISED, INFO = range(7)


def _cells(matrix) -> int:
    shape = getattr(matrix, "shape", None)
    if shape is not None:
        return math.prod(shape) if len(shape) else 0
    return len(matrix) * len(matrix[0]) if len(matrix) else 0


# Values recorded per call, from the bound arguments (defaults applied) and
# the result.  Each is used by a metric in ``DERIVED`` below.
_INFO = {
    "field.matrix_rank": lambda args, result: _cells(args["rows"]),
    "field.maximal_minors": lambda args, result: len(result),
    "secant.terracini_rank": lambda args, result: (args["s"] * (args["spec"].dim + 1), args["p"]),
    "secant.secant_dim": lambda args, result: repr(tuple(args.items())),
}


def _is_public_function(module: ModuleType, attr: str, obj) -> bool:
    return (
        not attr.startswith("_")
        and callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == module.__name__
    )


class Tracer:
    """Wraps layer functions and keeps their spans in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.wrapped: set[str] = set()
        self.pass_id = 0
        self._stack: list[int] = []
        self._originals: list[tuple[ModuleType, str, object]] = []

    @contextlib.contextmanager
    def installed(self, modules: dict[str, ModuleType]):
        """Wrap the public functions of ``modules`` (layer name -> module) while the block runs."""
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if _is_public_function(module, attr, obj):
                    name = f"{layer}.{attr}"
                    self._originals.append((module, attr, obj))
                    setattr(module, attr, self._wrap(name, obj))
                    self.wrapped.add(name)
        try:
            yield self
        finally:
            for module, attr, obj in reversed(self._originals):
                setattr(module, attr, obj)
            self._originals.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        info = _INFO.get(name)
        signature = inspect.signature(fn) if info else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id, False, None]
            spans.append(span)
            stack.append(index)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if info is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                try:
                    span[INFO] = info(bound.arguments, result)
                except (KeyError, TypeError, AttributeError, IndexError):
                    pass  # a changed signature leaves the value unrecorded
            return result

        return wrapper

    def pass_metrics(self, pass_id: int) -> dict[str, float]:
        """Per-layer metrics of one pass.

        Every wrapped function gets ``calls``, ``total_s`` (inclusive) and
        ``self_s`` (minus the time of its wrapped child spans).  The metrics
        in ``DERIVED`` are added when all the functions they need exist.
        """
        spans = self.spans
        ids = [i for i, span in enumerate(spans) if span[PASS] == pass_id]
        child_time: dict[int, float] = defaultdict(float)
        for i in ids:
            parent = spans[i][PARENT]
            if parent >= 0:
                child_time[parent] += spans[i][END] - spans[i][START]
        calls: Counter = Counter()
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for i in ids:
            name = spans[i][NAME]
            duration = spans[i][END] - spans[i][START]
            calls[name] += 1
            total[name] += duration
            own[name] += duration - child_time[i]
        metrics: dict[str, float] = {}
        for name in sorted(self.wrapped):
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.total_s"] = total[name]
            metrics[f"{name}.self_s"] = own[name]
        view = _PassView(spans, ids)
        for metric, (needs, compute) in DERIVED.items():
            if all(need in self.wrapped for need in needs):
                metrics[metric] = compute(view)
        return metrics

    def absent(self, metric: str) -> bool:
        """True when a function the metric needs was not found in its module."""
        if metric in DERIVED:
            return not all(need in self.wrapped for need in DERIVED[metric][0])
        return metric.rsplit(".", 1)[0] not in self.wrapped


class _PassView:
    """The spans of one pass, with the lookups the derived metrics need."""

    def __init__(self, spans: list[list], ids: list[int]) -> None:
        self.spans = spans
        self._by_name: dict[str, list[list]] = defaultdict(list)
        for i in ids:
            self._by_name[spans[i][NAME]].append(spans[i])

    def named(self, name: str) -> list[list]:
        return self._by_name.get(name, [])

    def ancestor(self, span: list, names: tuple[str, ...]) -> int:
        """Index of the nearest enclosing span with one of ``names``, or -1."""
        parent = span[PARENT]
        while parent >= 0 and self.spans[parent][NAME] not in names:
            parent = self.spans[parent][PARENT]
        return parent

    def parent_name(self, span: list) -> str | None:
        return self.spans[span[PARENT]][NAME] if span[PARENT] >= 0 else None


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _repeat_calls(view: _PassView) -> int:
    keys = [span[INFO] for span in view.named("secant.secant_dim") if span[INFO] is not None]
    return len(keys) - len(set(keys))


def _primes_per_result(view: _PassView) -> float:
    primes: dict[int, set[int]] = defaultdict(set)
    for span in view.named("secant.terracini_rank"):
        owner = view.ancestor(span, ("secant.secant_dim",))
        if owner >= 0 and span[INFO] is not None:
            primes[owner].add(span[INFO][1])
    return _ratio(sum(len(ps) for ps in primes.values()), len(view.named("secant.secant_dim")))


def _degenerate_ratio(view: _PassView) -> float:
    frames = view.named("varieties.tangent_frame")
    return _ratio(sum(1 for span in frames if span[RAISED]), len(frames))


# metric -> (functions it needs, computation over one pass)
DERIVED = {
    "field.matrix_rank.cells": (
        ("field.matrix_rank",),
        lambda v: sum(s[INFO] or 0 for s in v.named("field.matrix_rank")),
    ),
    "field.maximal_minors.minors": (
        ("field.maximal_minors",),
        lambda v: sum(s[INFO] or 0 for s in v.named("field.maximal_minors")),
    ),
    "varieties.tangent_frame.degenerate_ratio": (("varieties.tangent_frame",), _degenerate_ratio),
    "secant.secant_dim.repeat_calls": (("secant.secant_dim",), _repeat_calls),
    "secant.terracini_rank.rows": (
        ("secant.terracini_rank",),
        lambda v: sum(s[INFO][0] for s in v.named("secant.terracini_rank") if s[INFO]),
    ),
    # trials and primes actually run, counted from outside (reports echo the budget)
    "secant.trials_per_result": (
        ("secant.secant_dim", "secant.terracini_rank"),
        lambda v: _ratio(len(v.named("secant.terracini_rank")), len(v.named("secant.secant_dim"))),
    ),
    "secant.primes_per_result": (("secant.secant_dim", "secant.terracini_rank"), _primes_per_result),
    # rank work issued by the direct route itself: the Jacobian and the
    # small coefficient-matrix checks
    "grassec.gs_dim_direct.jacobian_entries": (
        ("grassec.gs_dim_direct", "field.matrix_rank"),
        lambda v: sum(
            s[INFO] or 0 for s in v.named("field.matrix_rank")
            if v.parent_name(s) == "grassec.gs_dim_direct"
        ),
    ),
    # time of the slice-map route: secant calls made by gs_report / gs_dim_phi
    "grassec.phi_route_s": (
        ("grassec.gs_report", "secant.secant_dim"),
        lambda v: sum(
            s[END] - s[START] for s in v.named("secant.secant_dim")
            if v.parent_name(s) in ("grassec.gs_report", "grassec.gs_dim_phi")
        ),
    ),
    # rank tests made while enumerating s-subsets over F_q
    "phimap.count_decompositions.span_tests": (
        ("phimap.count_decompositions", "field.matrix_rank"),
        lambda v: sum(
            1 for s in v.named("field.matrix_rank")
            if v.ancestor(s, ("phimap.count_decompositions",)) >= 0
        ),
    ),
}
