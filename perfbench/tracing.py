"""Spans around the program's public functions, recorded from outside.

The program itself is not instrumented.  ``Patcher`` replaces each
traced function at every place it is bound while tracing is on: module
attributes (``smoothing`` imports ``convolve_grid`` by name, the package
re-exports most functions, ``checks`` reaches ``_accel`` through the
module), class attributes for methods, and bound methods that objects
built before tracing started still hold (a finished run's ``BlendedMap``
keeps ``LocalGraph.value`` bound as its ``f``).  ``restore`` puts every
original back.

A target whose module or attribute no longer exists is reported as
absent instead of raising, so the benchmark survives renames; its
metrics then read zero and its call predictions are skipped.

Span and metric names are ``<module>.<function>``; the scan kernels of
``reachsmooth._accel`` appear as ``accel.*`` because a metric name must
start with a letter or a digit.
"""

import functools
import sys
import time
import types
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from stats import self_times


@dataclass(frozen=True)
class Target:
    """One traced layer boundary: a span name and where its code lives.

    ``attrs`` are ``"function"`` or ``"Class.method"`` names inside
    ``module``; several attrs may share one span name.  ``count`` maps
    ``(args, kwargs, result)`` to ``{counter: amount}`` for the work
    counters of that span.  ``metrics`` are the per-layer metrics the
    benchmark reports for it, by suffix (see ``layer_metrics``).
    """

    name: str
    module: str
    attrs: tuple
    count: object = None
    metrics: tuple = ("calls", "s")


@dataclass
class Tracer:
    """In-memory span log: ``(name, start, end, parent, op)`` tuples."""

    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=lambda: defaultdict(int))
    op: int = -1
    _stack: list = field(default_factory=list)

    def call(self, name, count, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.op)
        if count is not None:
            for key, amount in count(args, kwargs, result).items():
                self.counters[f"{name}.{key}"] += amount
        return result

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span of the benchmark's own."""
        return self.call(name, None, fn, args, kwargs)

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds.

        Inclusive time counts only the outermost span of a name, so a
        function that re-enters itself is not counted twice.
        """
        selfs = self_times(self.spans)
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, t0, t1, parent, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += selfs[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                row["s"] += t1 - t0
        return dict(out)

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            fh.write("# name_id start_s end_s parent op\n")
            fh.write("# names " + " ".join(names) + "\n")
            for name, t0, t1, parent, op in self.spans:
                fh.write(f"{code[name]} {t0!r} {t1!r} {parent} {op}\n")


class Patcher:
    """Installs tracing wrappers for a set of targets and undoes them."""

    def __init__(self, tracer, targets):
        self.tracer = tracer
        self.targets = targets
        self.absent = []
        self._undo = []

    def _resolve(self, target):
        mod = sys.modules.get(target.module)
        if mod is None:
            return None
        found = []
        for attr in target.attrs:
            owner, _, name = attr.rpartition(".")
            holder = getattr(mod, owner, None) if owner else mod
            fn = holder.__dict__.get(name) if holder is not None else None
            if not callable(fn):
                return None
            found.append((holder, name, fn))
        return found

    def _set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrapper(self, target, fn):
        tracer, name, count = self.tracer, target.name, target.count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, count, fn, args, kwargs)

        return traced

    def install(self, holders=()):
        """Wrap every binding; ``holders`` are objects whose attributes
        may hold bound methods created before tracing started."""
        if self._undo:
            raise RuntimeError("tracing wrappers already installed")
        originals = {}
        for target in self.targets:
            found = self._resolve(target)
            if found is None:
                self.absent.append(target.name)
                continue
            for holder, name, fn in found:
                originals[id(fn)] = (fn, self._wrapper(target, fn))
                if isinstance(holder, type):
                    self._set(holder, name, originals[id(fn)][1])
        modules = [m for key, m in list(sys.modules.items())
                   if key == "reachsmooth" or key.startswith("reachsmooth.")]
        for mod in modules:
            for name, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, name, hit[1])
        for obj in holders:
            for name, value in list(vars(obj).items()):
                if isinstance(value, types.MethodType):
                    hit = originals.get(id(value.__func__))
                    if hit is not None and hit[0] is value.__func__:
                        self._set(obj, name, types.MethodType(hit[1], value.__self__))

    def restore(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


# ---------------------------------------------------------------------------
# the traced layers of reachsmooth and their work counters


def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _count_pv(args, kwargs, result):
    curve, upto = args[0], _arg(args, kwargs, 2, "upto")
    depth = len(curve.patches) if upto is None else int(upto)
    return {"points": np.size(_arg(args, kwargs, 1, "s")), "depth": depth}


def _count_y(args, kwargs, result):
    return {"points": np.size(_arg(args, kwargs, 1, "y"))}


def _count_samples(args, kwargs, result):
    return {"samples": np.size(args[0])}


def _count_patch(args, kwargs, result):
    record = result[2]
    return {"applied": int(record.applied), "attempts": record.halvings + 1}


def _count_pair_sets(args, kwargs, result):
    return {"pairs": 2 * len(args[0]) * len(args[1])}


def _count_quotient(args, kwargs, result):
    n = np.size(args[0])
    return {"pairs": n * (n - 1) // 2}


_PKG = "reachsmooth"

CHECKERS = (
    "check_convolution_lipschitz", "check_blend_lipschitz",
    "patch_graph_arrays", "check_tangent_distance_bound", "check_angle_bound",
    "check_hausdorff_bound", "check_far_point_distance",
    "check_main_theorem", "_formula_rows",
)

TARGETS = (
    Target("curves.point_and_velocity", f"{_PKG}.curves",
           ("ClosedCurve.point_and_velocity",), _count_pv,
           ("calls", "points", "self_s", "depth_mean")),
    Target("curves.graph_solve", f"{_PKG}.curves",
           ("LocalGraph.value", "LocalGraph.slope", "LocalGraph.value_and_slope"),
           _count_y, ("calls", "points", "s")),
    Target("curves.local_graph_at", f"{_PKG}.curves", ("local_graph_at",)),
    Target("curves.sample_manifold", f"{_PKG}.curves", ("sample_manifold",),
           lambda a, k, r: {"points": r.count}, ("calls", "points", "s")),
    Target("curves.with_patch", f"{_PKG}.curves", ("ClosedCurve.with_patch",)),
    Target("kernels.convolve_grid", f"{_PKG}.kernels", ("convolve_grid",),
           _count_samples, ("calls", "samples", "s")),
    Target("kernels.sup_deviation_ck", f"{_PKG}.kernels", ("sup_deviation_ck",)),
    Target("kernels.find_support_radius", f"{_PKG}.kernels",
           ("find_support_radius",), None, ("calls", "s", "attempts_per_call")),
    Target("partition.plateau", f"{_PKG}.partition",
           ("PlateauFunction.__call__", "PlateauFunction.derivative",
            "PlateauFunction.second_derivative")),
    Target("smoothing.build_net", f"{_PKG}.smoothing", ("build_net",)),
    Target("smoothing.smooth_patch", f"{_PKG}.smoothing", ("smooth_patch",),
           _count_patch,
           ("calls", "s", "self_s", "applied_ratio", "attempts_per_patch")),
    Target("smoothing.blended_map", f"{_PKG}.smoothing",
           ("BlendedMap.value", "BlendedMap.derivative",
            "BlendedMap.value_and_derivative"), _count_y, ("calls", "points", "s")),
    Target("smoothing.smooth_core_probe", f"{_PKG}.smoothing",
           ("smooth_core_probe",)),
    Target("reach.analytic_reach", f"{_PKG}.reach", ("analytic_reach",)),
    Target("reach.estimate_reach_federer", f"{_PKG}.reach",
           ("estimate_reach_federer",),
           lambda a, k, r: {"pairs": r.pairs_scanned},
           ("calls", "pairs", "s", "pairs_per_s")),
    *(Target(f"checks.{name.lstrip('_')}", f"{_PKG}.checks", (name,))
      for name in CHECKERS),
    Target("checks.estimate_lipschitz", f"{_PKG}.checks", ("estimate_lipschitz",),
           _count_samples, ("calls", "samples", "s")),
    Target("linalg.hausdorff_distance_sampled", f"{_PKG}.linalg",
           ("hausdorff_distance_sampled",), _count_pair_sets,
           ("calls", "pairs", "s")),
    Target("accel.federer_scan", f"{_PKG}._accel", ("federer_scan",),
           lambda a, k, r: {"pairs": r[3]}, ("calls", "pairs", "s")),
    Target("accel.max_abs_diff_quotient", f"{_PKG}._accel",
           ("max_abs_diff_quotient",), _count_quotient, ("calls", "pairs", "s")),
    Target("accel.directed_hausdorff", f"{_PKG}._accel",
           ("directed_hausdorff",),
           lambda a, k, r: {"pairs": len(a[0]) * len(a[1])},
           ("calls", "pairs", "s")),
)

def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer metric values of every target, from one traced pass.

    A target with no calls (or one that is absent) reads zero throughout.
    """
    summary = tracer.summary()
    counters = tracer.counters
    nested = defaultdict(int)  # (parent name, child name) -> direct calls
    for name, _, _, parent, _ in tracer.spans:
        if parent >= 0:
            nested[(tracer.spans[parent][0], name)] += 1
    out = {}
    for target in TARGETS:
        row = summary.get(target.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        calls = row["calls"]
        for kind in target.metrics:
            if kind in row:
                value = row[kind]
            elif kind == "depth_mean":
                value = _ratio(counters[f"{target.name}.depth"], calls)
            elif kind == "applied_ratio":
                value = _ratio(counters[f"{target.name}.applied"], calls)
            elif kind == "attempts_per_patch":
                value = _ratio(counters[f"{target.name}.attempts"], calls)
            elif kind == "attempts_per_call":
                value = _ratio(nested[(target.name, "kernels.sup_deviation_ck")], calls)
            elif kind == "pairs_per_s":
                value = _ratio(counters[f"{target.name}.pairs"], row["s"])
            else:
                value = counters[f"{target.name}.{kind}"]
            out[f"{target.name}.{kind}"] = value
    return out
