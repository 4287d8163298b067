"""Span recorder wrapped around cyclekit's public functions.

``Tracer.install`` replaces every public function of the traced layers
with a recording wrapper, in every ``cyclekit`` module namespace that
holds it, so calls between modules and inside one module are both
timed.  A few class methods that carry a layer's work (the arithmetic of
``HNumber`` and the construction of ``GroupElement``) are wrapped on the
class.  ``uninstall`` puts the originals back.  The package's files are
never changed.

Spans are kept in memory as (function, parent span, start, end, request,
raised) and written out when the benchmark ends.  A span's self time is
its length minus the lengths of its child spans; calls are nested on one
thread, so the children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

from cyclekit.moebius import INFINITY

LAYERS = (
    "numbers",
    "hypercomplex",
    "moebius",
    "cycle",
    "relations",
    "metric",
    "svgout",
    "figures",
    "cli",
)

# Methods whose operators carry the layer's work; dataclass __init__ calls
# __post_init__ through the class, so wrapping it times each construction.
CLASS_METHODS = {
    "hypercomplex": (
        "HNumber",
        ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "conj", "modsq", "is_zero"),
    ),
    "moebius": ("GroupElement", ("__post_init__",)),
}

# Names that the per-layer table reports; wrapped names are "<layer>.<function>".
GROUP_ELEMENT = "moebius.GroupElement.__post_init__"

# name, unit, better
PER_LAYER_METRICS = [
    (f"{layer}.{what}", unit, "lower")
    for layer in LAYERS
    for what, unit in (("calls", "count"), ("self_s", "s"))
] + [
    ("numbers.fmt12.calls", "count", "lower"),
    ("moebius.mobius_apply.calls", "count", "lower"),
    ("moebius.mobius_apply.self_s", "s", "lower"),
    ("moebius.compose.calls", "count", "lower"),
    ("moebius.group_element.calls", "count", "lower"),
    ("moebius.infinity_frac", "frac", "lower"),
    ("cycle.similarity_transform.calls", "count", "lower"),
    ("cycle.similarity_transform.self_s", "s", "lower"),
    ("cycle.cycle_from_constraints.calls", "count", "lower"),
    ("cycle.cycle_from_constraints.self_s", "s", "lower"),
    ("cycle.solutions_per_solve", "solutions/solve", "lower"),
    ("cycle.inconsistent_frac", "frac", "lower"),
    ("relations.reflect_cycle.self_s", "s", "lower"),
    ("relations.is_s_orthogonal.self_s", "s", "lower"),
    ("relations.orthogonal_family.self_s", "s", "lower"),
    ("metric.length.calls", "count", "lower"),
    ("metric.length.self_s", "s", "lower"),
    ("metric.variational_distance_oracle.self_s", "s", "lower"),
    ("metric.is_perpendicular.self_s", "s", "lower"),
    ("svgout.render_svg.calls", "count", "lower"),
    ("svgout.render_svg.self_s", "s", "lower"),
    ("svgout.bytes_out", "bytes", "lower"),
    ("figures.run_figure.self_s", "s", "lower"),
    ("figures.files_written", "count", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.cli_main.self_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]


class Tracer:
    """Records one span per wrapped call while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = {}
        self.request = 0
        self._stack = [-1]
        self._swaps: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if not self._swaps:
            self._swaps = self._build_wrappers()
        for owner, attr, _, wrapper in self._swaps:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._swaps):
            setattr(owner, attr, original)

    def _build_wrappers(self) -> list[tuple]:
        modules = {layer: importlib.import_module(f"cyclekit.{layer}") for layer in LAYERS}
        namespaces = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == "cyclekit" or name.startswith("cyclekit."))
        ]
        swaps = []
        for layer, module in modules.items():
            for attr, func in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(func):
                    continue
                if func.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", func)
                for namespace in namespaces:
                    if vars(namespace).get(attr) is func:
                        swaps.append((namespace, attr, func, wrapper))
        for layer, (cls_name, methods) in CLASS_METHODS.items():
            cls = getattr(modules[layer], cls_name)
            for method in methods:
                func = vars(cls)[method]
                swaps.append((cls, method, func, self._wrap(f"{layer}.{cls_name}.{method}", func)))
        return swaps

    def _wrap(self, name: str, func):
        index = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack
        on_result = _RESULT_HOOKS.get(name)
        counters = self.counters

        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(slot)
            raised = None
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                raised = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[slot] = (index, parent, start, end, self.request, raised)
            if on_result is not None:
                on_result(counters, result)
            return result

        return functools.wraps(func)(traced)

    # -- results ------------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self.request = 0

    def snapshot(self, scale: float = 1.0) -> dict:
        """Counts and times of this pass, in a form that can be summed.

        Per wrapped function: calls, self seconds and inclusive seconds
        (both multiplied by ``scale``), and exceptions raised by type.
        """
        child = [0.0] * len(self.spans)
        for _, parent, start, end, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        inclusive_s: dict[str, float] = {}
        raised: dict[str, int] = {}
        for slot, (index, _, start, end, _, exc) in enumerate(self.spans):
            name = self.names[index]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + scale * (end - start - child[slot])
            inclusive_s[name] = inclusive_s.get(name, 0.0) + scale * (end - start)
            if exc is not None:
                key = f"{name}:{exc}"
                raised[key] = raised.get(key, 0) + 1
        return {
            "calls": calls,
            "self_s": self_s,
            "inclusive_s": inclusive_s,
            "raised": raised,
            "counters": dict(self.counters),
        }

    def span_record(self) -> dict:
        """The spans of this pass in JSON-ready form."""
        return {
            "fields": ["function", "parent", "start_s", "end_s", "request", "raised"],
            "functions": self.names,
            "spans": self.spans,
        }


def _count_infinity(counters, result):
    if result is INFINITY:
        counters["moebius.infinity"] = counters.get("moebius.infinity", 0) + 1


def _count_solutions(counters, result):
    counters["cycle.solutions"] = counters.get("cycle.solutions", 0) + len(result)


def _count_bytes(counters, result):
    counters["svgout.bytes_out"] = counters.get("svgout.bytes_out", 0) + len(
        result.encode("utf-8")
    )


def _count_files(counters, result):
    counters["figures.files_written"] = counters.get("figures.files_written", 0) + len(result)


_RESULT_HOOKS = {
    "moebius.mobius_apply": _count_infinity,
    "cycle.cycle_from_constraints": _count_solutions,
    "svgout.render_svg": _count_bytes,
    "figures.run_figure": _count_files,
}


def merge(snapshots: list[dict]) -> dict:
    """Sum several snapshots (one traced CLI process each)."""
    total = {"calls": {}, "self_s": {}, "inclusive_s": {}, "raised": {}, "counters": {}}
    for snap in snapshots:
        for section, values in snap.items():
            if section not in total:
                continue
            for key, value in values.items():
                total[section][key] = total[section].get(key, 0) + value
    return total


def counts_of(snapshot: dict) -> dict:
    """The parts of a snapshot that must repeat exactly for the same inputs."""
    return {
        "calls": snapshot["calls"],
        "raised": snapshot["raised"],
        "counters": snapshot["counters"],
    }


def layer_metrics(snapshot: dict) -> dict[str, float]:
    """Per-layer metrics from one pass."""
    calls, self_s = snapshot["calls"], snapshot["self_s"]
    counters, raised = snapshot["counters"], snapshot["raised"]
    out: dict[str, float] = {}
    for layer in LAYERS:
        prefix = layer + "."
        out[f"{layer}.calls"] = sum(v for k, v in calls.items() if k.startswith(prefix))
        out[f"{layer}.self_s"] = sum(
            v for k, v in self_s.items() if k.startswith(prefix)
        )

    def n(name):
        return calls.get(name, 0)

    def t(name):
        return self_s.get(name, 0.0)

    for name in (
        "numbers.fmt12",
        "moebius.mobius_apply",
        "moebius.compose",
        "cycle.similarity_transform",
        "cycle.cycle_from_constraints",
        "metric.length",
        "svgout.render_svg",
    ):
        out[f"{name}.calls"] = n(name)
    for name in (
        "moebius.mobius_apply",
        "cycle.similarity_transform",
        "cycle.cycle_from_constraints",
        "relations.reflect_cycle",
        "relations.is_s_orthogonal",
        "relations.orthogonal_family",
        "metric.length",
        "metric.variational_distance_oracle",
        "metric.is_perpendicular",
        "svgout.render_svg",
        "figures.run_figure",
        "cli.cli_main",
    ):
        out[f"{name}.self_s"] = t(name)
    out["moebius.group_element.calls"] = n(GROUP_ELEMENT)
    solves = n("cycle.cycle_from_constraints")
    out["moebius.infinity_frac"] = _ratio(
        counters.get("moebius.infinity", 0), n("moebius.mobius_apply")
    )
    out["cycle.solutions_per_solve"] = _ratio(counters.get("cycle.solutions", 0), solves)
    out["cycle.inconsistent_frac"] = _ratio(
        raised.get("cycle.cycle_from_constraints:Inconsistent", 0), solves
    )
    out["svgout.bytes_out"] = counters.get("svgout.bytes_out", 0)
    out["figures.files_written"] = counters.get("figures.files_written", 0)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
