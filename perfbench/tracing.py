"""Span tracer that wraps the public functions of the cubecond modules.

Every public function defined in a traced module is replaced by a wrapper in
each cubecond namespace that holds it, including the names a calling module
imported (``cubecond.pv.evaluate_batch`` is the same function as
``cubecond.poly.evaluate_batch``).  A wrapper records one span per call --
name, start, end, parent span and input id -- into flat arrays kept in
memory, plus the work counts its counter extracts from the arguments and the
result.  ``restore`` puts the original functions back.

Functions are discovered at install time, so a function that a later version
of the library removes is simply not traced and its counters read 0.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import os
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("poly", "interval", "pv", "condition", "univariate", "random", "experiments", "cli")
BENCH = "bench"  # module name of the spans the benchmark opens around each input


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _point_terms(args, kwargs, result):
    f = _arg(args, kwargs, 0, "f")
    points = np.asarray(_arg(args, kwargs, 1, "points"))
    rows = 1 if points.ndim < 2 else points.shape[0]
    return {"point_terms": rows * f.support_size}


def _pv_counts(args, kwargs, report):
    return {
        "processed_boxes": report.processed_count,
        "final_boxes": report.final_count,
        "max_level_boxes": max(report.per_depth_counts),
    }


def _grid_counts(args, kwargs, enclosure):
    f = _arg(args, kwargs, 0, "f")
    eps = _arg(args, kwargs, 1, "grid_eps")
    # the uniform grid has ceil(1/eps) + 1 points per axis
    return {
        "grid_points": (math.ceil(1.0 / eps) + 1) ** f.n,
        "finite_upper": int(math.isfinite(enclosure.upper)),
    }


# Work counters, keyed by the traced function's "<module>.<name>".
COUNTERS = {
    "poly.evaluate_batch": _point_terms,
    "poly.gradient_batch": _point_terms,
    "interval.predicate_clause_batch": lambda a, k, r: {"boxes": len(r)},
    "interval.standard_subdivision": lambda a, k, r: {"children": len(r)},
    "pv.pv_subdivide": _pv_counts,
    "pv.verify_output_boxes": lambda a, k, r: {
        "boxes": _arg(a, k, 1, "report").final_count
    },
    "pv.amortization_bound": lambda a, k, r: {"points": _arg(a, k, 1, "n_samples")},
    "condition.global_condition": _grid_counts,
    "condition.kappa_batch": lambda a, k, r: {"points": len(r)},
    "univariate.descartes_isolate": lambda a, k, r: {"tree_nodes": r.tree.nodes},
    "experiments.run_experiment": lambda a, k, r: {"trials": _arg(a, k, 0, "cfg").trials},
    "experiments.emit_csv": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))},
}


class Tracer:
    """In-memory span store; one instance per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.input = array("q")
        self.error = array("b")
        self.counts: dict[str, float] = defaultdict(float)
        self.input_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.input.append(self.input_id)
        self.error.append(0)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, input_id: int):
        """A benchmark-side span around one input."""
        self.input_id = input_id
        index = self._open(self._name_id(name))
        try:
            yield
        except Exception:
            self.error[index] = 1
            raise
        finally:
            self._close(index)

    def _wrap(self, qualname: str, fn):
        name_id = self._name_id(qualname)
        counter = COUNTERS.get(qualname)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.error[index] = 1
                raise
            finally:
                self._close(index)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    name = f"{qualname}.{key}"
                    # a "max_" count keeps its largest value, the others add up
                    if key.startswith("max_"):
                        counts[name] = max(counts[name], value)
                    else:
                        counts[name] += value
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of MODULES in every cubecond namespace."""
        namespaces = [importlib.import_module("cubecond")]
        wrappers = {}
        for short in MODULES:
            try:
                module = importlib.import_module(f"cubecond.{short}")
            except ImportError:
                continue
            namespaces.append(module)
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._patched.append((module, attr, obj))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "input": np.frombuffer(self.input, dtype=np.int64),
            "error": np.frombuffer(self.error, dtype=np.int8),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict:
        """Per-function call counts, inclusive and self seconds, and errors.

        A span's self time is its duration minus the durations of its direct
        children; spans of one thread nest, so the children never overlap.
        """
        a = self.arrays()
        duration = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child_time = np.bincount(
            a["parent"][nested], weights=duration[nested], minlength=len(duration)
        )
        self_time = duration - child_time
        k = len(self.names)
        return {
            "calls": dict(zip(self.names, np.bincount(a["name"], minlength=k).tolist())),
            "incl_s": dict(zip(self.names, np.bincount(a["name"], duration, k).tolist())),
            "self_s": dict(zip(self.names, np.bincount(a["name"], self_time, k).tolist())),
            "errors": dict(
                zip(self.names, np.bincount(a["name"], a["error"].astype(float), k).tolist())
            ),
            "spans": len(duration),
        }


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float, draws: int) -> dict:
    """The per-layer metrics of one traced pass, by name, as (value, unit)."""
    s = tracer.summary()
    calls = lambda q: s["calls"].get(q, 0)  # noqa: E731
    incl = lambda q: s["incl_s"].get(q, 0.0)  # noqa: E731
    count = lambda key: tracer.counts.get(key, 0.0)  # noqa: E731

    def per(numerator: float, denominator: float, scale: float) -> float:
        return numerator * scale / denominator if denominator else 0.0

    module_self = defaultdict(float)
    for qualname, seconds in s["self_s"].items():
        module_self[qualname.split(".", 1)[0]] += seconds
    library_self = sum(v for m, v in module_self.items() if m != BENCH)

    m = {}
    for q in ("poly.evaluate_batch", "poly.gradient_batch"):
        m[f"{q}.calls"] = (calls(q), "count")
        m[f"{q}.point_terms"] = (count(f"{q}.point_terms"), "count")
        m[f"{q}.ns_per_point_term"] = (per(incl(q), count(f"{q}.point_terms"), 1e9), "ns")
    q = "interval.predicate_clause_batch"
    m[f"{q}.boxes"] = (count(f"{q}.boxes"), "count")
    m[f"{q}.us_per_box"] = (per(incl(q), count(f"{q}.boxes"), 1e6), "us")
    q = "interval.standard_subdivision"
    m[f"{q}.children"] = (count(f"{q}.children"), "count")
    m[f"{q}.us_per_child"] = (per(incl(q), count(f"{q}.children"), 1e6), "us")
    q = "pv.pv_subdivide"
    m[f"{q}.calls"] = (calls(q), "count")
    for key in ("processed_boxes", "final_boxes", "max_level_boxes"):
        m[f"{q}.{key}"] = (count(f"{q}.{key}"), "count")
    m["pv.final_per_processed"] = (
        per(count(f"{q}.final_boxes"), count(f"{q}.processed_boxes"), 1.0),
        "ratio",
    )
    q = "pv.verify_output_boxes"
    m[f"{q}.boxes"] = (count(f"{q}.boxes"), "count")
    m[f"{q}.us_per_box"] = (per(incl(q), count(f"{q}.boxes"), 1e6), "us")
    q = "pv.amortization_bound"
    m[f"{q}.points"] = (count(f"{q}.points"), "count")
    m[f"{q}.ns_per_point"] = (per(incl(q), count(f"{q}.points"), 1e9), "ns")
    q = "condition.global_condition"
    m[f"{q}.calls"] = (calls(q), "count")
    m[f"{q}.grid_points"] = (count(f"{q}.grid_points"), "count")
    m[f"{q}.ns_per_point"] = (per(incl(q), count(f"{q}.grid_points"), 1e9), "ns")
    m["condition.finite_upper_frac"] = (per(count(f"{q}.finite_upper"), calls(q), 1.0), "ratio")
    q = "condition.local_condition"
    m[f"{q}.calls"] = (calls(q), "count")
    m[f"{q}.us_per_call"] = (per(incl(q), calls(q), 1e6), "us")
    m["condition.kappa_batch.points"] = (count("condition.kappa_batch.points"), "count")
    q = "condition.dist1_to_sigma_x"
    m[f"{q}.calls"] = (calls(q), "count")
    m[f"{q}.ms_per_call"] = (per(incl(q), calls(q), 1e3), "ms")
    q = "univariate.oracle_roots"
    m[f"{q}.calls"] = (calls(q), "count")
    m[f"{q}.ms_per_call"] = (per(incl(q), calls(q), 1e3), "ms")
    m["univariate.oracle_calls_per_draw"] = (per(calls(q), draws, 1.0), "ratio")
    m["univariate.oracle_failed"] = (s["errors"].get(q, 0.0), "count")
    q = "univariate.descartes_isolate"
    m[f"{q}.calls"] = (calls(q), "count")
    m[f"{q}.tree_nodes"] = (count(f"{q}.tree_nodes"), "count")
    m[f"{q}.us_per_node"] = (per(incl(q), count(f"{q}.tree_nodes"), 1e6), "us")
    q = "random.sample"
    m[f"{q}.draws"] = (calls(q), "count")
    m[f"{q}.us_per_draw"] = (per(incl(q), calls(q), 1e6), "us")
    m["random.model_constants.calls"] = (calls("random.model_constants"), "count")
    q = "experiments.run_experiment"
    m[f"{q}.calls"] = (calls(q), "count")
    m[f"{q}.trials"] = (count(f"{q}.trials"), "count")
    m[f"{q}.ms_per_trial"] = (per(incl(q), count(f"{q}.trials"), 1e3), "ms")
    m["experiments.emit_csv.bytes"] = (count("experiments.emit_csv.bytes"), "bytes")
    q = "cli.main"
    m[f"{q}.calls"] = (calls(q), "count")
    m[f"{q}.ms_per_call"] = (per(incl(q), calls(q), 1e3), "ms")
    for module in MODULES:
        m[f"{module}.self_s"] = (module_self.get(module, 0.0), "s")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["trace.bench_self_s"] = (traced_wall - library_self, "s")
    m["trace.spans"] = (s["spans"], "count")
    return m
