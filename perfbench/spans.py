"""In-memory span tracer that wraps hbfourier's functions from the outside.

`Tracer.install` replaces, in every hbfourier module namespace that holds
them, the public functions of the layer modules, the constructors of the
measure classes, the grid evaluator `transforms._grid_moments` and the
`scipy.optimize` module seen by `zeros` and `inequality`.  Each wrapped call
appends a span (name, start, end, parent) to a list; `restore` puts every
original object back.  Nothing inside the package is edited, so spans stop at
the package's module boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
import types
from collections import Counter

LAYERS = ("measure", "transforms", "inequality", "sampling", "zeros", "posdef")
PACKAGE_MODULES = ("hbfourier", "hbfourier.cli") + tuple(f"hbfourier.{name}" for name in LAYERS)
#: private names wrapped in addition to the public functions
EXTRA_FUNCTIONS = (("transforms", "_grid_moments"),)
#: measure-class methods that do the work of building a measure
CLASS_METHODS = (
    ("StieltjesMeasure", "__post_init__"),
    ("PiecewiseLinearDensity", "__post_init__"),
    ("PiecewiseLinearDensity", "interpolant"),
    ("PiecewiseLinearDensity", "step"),
)
OPTIMIZE_USERS = ("zeros", "inequality")


def _grid_counts(counters, args, kwargs, result):
    measure, x = args[0], args[1]
    points = int(getattr(x, "size", 1))
    dens = measure.density
    parts = len(measure.atoms) + (len(dens.nodes) - 1 if dens is not None else 0)
    counters["transforms.grid_points"] += points
    counters["transforms.grid_point_panels"] += points * parts


def _count_samples(counters, args, kwargs, result):
    counters["zeros.boundary_samples"] += result.boundary_samples


def _count_equality_points(counters, args, kwargs, result):
    counters["inequality.equality_points"] += len(result.equality_points)


def _count_terms(counters, args, kwargs, result):
    counters["sampling.series_terms"] += result.n_terms


def _count_hhat_samples(counters, args, kwargs, result):
    counters["posdef.hhat_samples"] += result.samples


#: span name -> hook that adds the call's work counts
RESULT_HOOKS = {
    "transforms._grid_moments": _grid_counts,
    "zeros.count_zeros": _count_samples,
    "inequality.check_inequality": _count_equality_points,
    "sampling.interp_rhs": _count_terms,
    "posdef.check_h_hat_identity": _count_hhat_samples,
}


class _ModuleProxy:
    """Stands in for a module; callable attributes come back wrapped."""

    def __init__(self, module, prefix: str, tracer: "Tracer"):
        self._module = module
        self._prefix = prefix
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._module, name)
        if callable(attr):
            return self._tracer.wrap(f"{self._prefix}.{name}", attr)
        return attr


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.counters: Counter = Counter()
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)
        self.missing: list = []

    # -- recording ------------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        spans = self.spans
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, clock(), None, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """One span around the benchmark's own code."""
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    # -- patching -------------------------------------------------------------

    def install(self):
        modules = [importlib.import_module(name) for name in PACKAGE_MODULES]
        targets = []  # (span name, original function)
        for layer in LAYERS:
            mod = importlib.import_module(f"hbfourier.{layer}")
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                ):
                    targets.append((f"{layer}.{attr}", obj))
        for layer, attr in EXTRA_FUNCTIONS:
            obj = getattr(importlib.import_module(f"hbfourier.{layer}"), attr, None)
            if obj is None:
                self.missing.append(f"{layer}.{attr}")
            else:
                targets.append((f"{layer}.{attr}", obj))
        for name, original in targets:
            wrapper = self.wrap(name, original, RESULT_HOOKS.get(name))
            for mod in modules:
                for attr, obj in list(vars(mod).items()):
                    if obj is original:
                        self._patch(mod, attr, wrapper)

        measure_mod = importlib.import_module("hbfourier.measure")
        for cls_name, attr in CLASS_METHODS:
            cls = getattr(measure_mod, cls_name)
            raw = cls.__dict__.get(attr)
            if raw is None:
                self.missing.append(f"measure.{cls_name}.{attr}")
                continue
            name = f"measure.{cls_name}.{attr}"
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            else:
                self._patch(cls, attr, self.wrap(name, raw))

        for layer in OPTIMIZE_USERS:
            mod = importlib.import_module(f"hbfourier.{layer}")
            opt = getattr(mod, "optimize", None)
            if isinstance(opt, types.ModuleType) and opt.__name__ == "scipy.optimize":
                self._patch(mod, "optimize", _ModuleProxy(opt, "scipy.optimize", self))

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------

    def busy(self, predicate) -> float:
        """Wall time inside spans matching `predicate`, nested matches counted once."""
        total = 0.0
        for name, start, end, parent in self.spans:
            if not predicate(name) or end is None:
                continue
            outer = True
            while parent >= 0:
                if predicate(self.spans[parent][0]):
                    outer = False
                    break
                parent = self.spans[parent][3]
            if outer:
                total += end - start
        return total

    def calls(self, predicate) -> int:
        return sum(1 for span in self.spans if predicate(span[0]))

    def summary(self) -> dict:
        """Per span name: calls, total time and self time (total minus children)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            if end is None:
                continue
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return out

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
            ],
            "summary": self.summary(),
            "counters": dict(self.counters),
            "missing": self.missing,
        }
        path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
