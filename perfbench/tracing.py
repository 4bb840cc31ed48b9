"""Per-layer spans around calls into otmatch, taken from outside the package.

A :class:`Tracer` rebinds each layer's entry function in the namespace of
the module that calls it (``otmatch.riot.sinkhorn`` and
``otmatch.iot.sinkhorn`` are separate bindings), so every span knows its
caller and its parent span. Nothing under ``src/`` is edited: leaving the
``with`` block restores every original binding.

Modules are looked up in ``sys.modules`` because the attribute
``otmatch.sinkhorn`` is the function re-exported by the package, not the
module. A binding whose name no longer exists is reported as missing and its
metrics as null, never as zero.
"""

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

import otmatch.cli  # noqa: F401  (loads every module the bindings name)

CALIBRATION_SAMPLES = 3
_MIN_CALIBRATION_S = 0.005


def _sinkhorn_in_riot(parent):
    return "sinkhorn.predict" if parent == "solver.predict" else "sinkhorn.relax"


# (module, name, span name or function of the parent span, spans it can open).
# A leading underscore marks a boundary without a public name: its metrics
# are bound to a private helper and go missing if the helper is renamed.
BINDINGS = (
    ("otmatch.cli", "iot_fit", "solver.fit", ("solver.fit",)),
    ("otmatch.cli", "riot_fit", "solver.fit", ("solver.fit",)),
    ("otmatch.cli", "joint_fit", "solver.fit", ("solver.fit",)),
    ("otmatch.cli", "predict_matching", "solver.predict", ("solver.predict",)),
    ("otmatch.riot", "_evaluate_at", "riot.evaluate", ("riot.evaluate",)),
    ("otmatch.riot", "_inner_solve_raw", "riot.inner", ("riot.inner",)),
    ("otmatch.riot", "_theta_root", "riot.theta", ("riot.theta",)),
    ("otmatch.riot", "_relaxation_dual", "riot.relax", ("riot.relax",)),
    ("otmatch.riot", "sinkhorn", _sinkhorn_in_riot, ("sinkhorn.relax", "sinkhorn.predict")),
    ("otmatch.riot", "kernel_cost", "kernels.cost", ("kernels.cost",)),
    ("otmatch.riot", "assemble_interaction_grad", "kernels.grad", ("kernels.grad",)),
    ("otmatch.iot", "_model_plan", "iot.model_plan", ("iot.model_plan",)),
    ("otmatch.iot", "sinkhorn", "sinkhorn.iot", ("sinkhorn.iot",)),
    ("otmatch.iot", "kernel_cost", "kernels.cost", ("kernels.cost",)),
    ("otmatch.iot", "assemble_interaction_grad", "kernels.grad", ("kernels.grad",)),
    ("otmatch.joint", "project_metric_simplex", "joint.project", ("joint.project",)),
    ("otmatch.joint", "sinkhorn", "sinkhorn.side_grad", ("sinkhorn.side_grad",)),
)

# The CLI reaches the CSV layer through its module alias ``mio``.
IO_MODULE = ("otmatch.cli", "mio")
IO_FUNCTIONS = (("read_matrix", "io.read"), ("read_vector", "io.read"),
                ("write_matrix", "io.write"), ("write_vector", "io.write"))


def private_binding(metric):
    """The private helper a per-layer metric is bound to, or None."""
    for module, attr, _, spans in BINDINGS:
        if attr.startswith("_") and any(metric.startswith(span + ".") for span in spans):
            return f"{module}.{attr}"
    return None


class _Proxy:
    """Stand-in for a module: traced functions first, the module for the rest."""

    def __init__(self, module, functions):
        self._module = module
        self.__dict__.update(functions)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Collects span self times, call counts and per-layer counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.max_self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.gap_max = 0.0
        self.top_level_s = 0.0
        self.samples = defaultdict(list)
        self.missing = []
        self.missing_spans = set()
        self._stack = []
        self._saved = []

    # -- installation -------------------------------------------------------

    def __enter__(self):
        for module_name, attr, name_of, spans in BINDINGS:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self._note_missing(f"{module_name}.{attr}", spans)
                continue
            self._rebind(module, attr, self._wrap(original, name_of))

        module_name, attr = IO_MODULE
        io_module = getattr(sys.modules.get(module_name), attr, None)
        functions = {}
        for fn_name, span in IO_FUNCTIONS:
            original = getattr(io_module, fn_name, None)
            if original is None:
                self._note_missing(f"otmatch.io.{fn_name}", (span,))
            else:
                functions[fn_name] = self._wrap(original, span)
        if io_module is not None:
            self._rebind(sys.modules[module_name], attr, _Proxy(io_module, functions))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def _rebind(self, module, attr, value):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def _note_missing(self, qualname, spans):
        if qualname not in self.missing:
            self.missing.append(qualname)
        self.missing_spans.update(spans)

    # -- spans --------------------------------------------------------------

    def _wrap(self, fn, name_of):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            name = name_of(parent) if callable(name_of) else name_of
            frame = [name, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if name.startswith("sinkhorn."):
                    self.counts["sinkhorn.errors"] += 1
                raise
            finally:
                self._close(frame, time.perf_counter() - start)
            self._record(name, signature, args, kwargs, result)
            return result

        return traced

    def _close(self, frame, duration):
        self._stack.pop()
        name, child_s = frame
        own = duration - child_s
        self.calls[name] += 1
        self.self_s[name] += own
        self.max_self_s[name] = max(self.max_self_s[name], own)
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self.top_level_s += duration

    def _record(self, name, signature, args, kwargs, result):
        """Counters read from a span's arguments and result."""
        if name.startswith("io."):
            self.counts[name + ".bytes"] += os.path.getsize(
                signature.bind(*args, **kwargs).arguments["path"])
        elif name.startswith("sinkhorn.") and hasattr(result, "iterations"):
            self.counts[name + ".sweeps"] += result.iterations
            if len(self.samples[name]) < CALIBRATION_SAMPLES:
                bound = signature.bind(*args, **kwargs).arguments
                self.samples[name].append(
                    tuple(np.array(getattr(bound[k], attr, bound[k]), dtype=float)
                          for k, attr in (("C", "entries"), ("mu", "values"),
                                          ("nu", "values")))
                    + (float(bound["lam"]),))
        elif name == "riot.inner":
            self.gap_max = max(self.gap_max, float(result.multiplier_gap))
        elif name == "solver.fit":
            if hasattr(result, "iterations"):
                self.counts["iot.iterations"] += result.iterations
            else:
                self.counts["riot.outer_iters"] += len(result.objective_trace) - 1


def bare_sweep_s(C, mu, nu, lam):
    """Seconds per bare scaling sweep (two mat-vecs, two divisions) on C.

    The median of three timings, each over enough sweeps to last a few
    milliseconds.
    """
    K = np.exp(-lam * C)
    sweeps = 8
    while True:
        times = []
        for _ in range(3):
            a = np.ones(C.shape[0])
            start = time.perf_counter()
            for _ in range(sweeps):
                b = nu / (K.T @ a)
                a = mu / (K @ b)
            times.append(time.perf_counter() - start)
        elapsed = float(np.median(times))
        if elapsed >= _MIN_CALIBRATION_S:
            return elapsed / sweeps
        sweeps *= 4


# Spans reported as calls and self seconds per round.
SPANS = ("riot.theta", "riot.inner", "riot.relax", "riot.evaluate", "iot.model_plan",
         "kernels.cost", "kernels.grad", "joint.project", "sinkhorn.relax", "sinkhorn.iot",
         "sinkhorn.predict", "sinkhorn.side_grad", "io.read", "io.write")
_SINKHORN = {"sinkhorn.relax", "sinkhorn.iot", "sinkhorn.predict", "sinkhorn.side_grad"}
_SOLVER = {"solver.fit", "solver.predict"}
_TOP_LEVEL = _SOLVER | {"io.read", "io.write"}

# name -> unit of every per-layer metric, in BENCHMARK.json's order.
LAYER_UNITS = {}
for _span in SPANS:
    LAYER_UNITS[f"{_span}.calls"] = "count"
    LAYER_UNITS[f"{_span}.s"] = "s"
LAYER_UNITS.update({
    "sinkhorn.relax.sweeps": "count", "sinkhorn.iot.sweeps": "count",
    "sinkhorn.predict.sweeps": "count", "sinkhorn.errors": "count",
    "sinkhorn.relax.overhead_x": "ratio", "sinkhorn.iot.overhead_x": "ratio",
    "riot.inner.multiplier_gap_max": "1", "riot.outer_iters": "count",
    "iot.iterations": "count", "joint.project.s_max": "s",
    "io.read.bytes": "bytes", "io.write.bytes": "bytes",
    "solver.self.s": "s", "cli.other.s": "s",
    "quality.kl_hat": "nats", "quality.kl_iot_ref": "nats", "quality.kl_margin": "nats",
    "trace.fit_s": "s", "trace.predict_s": "s", "trace.overhead_s": "s",
})


def layer_metrics(tracer, rounds, op_s):
    """Per-layer values as means per traced round (one fit plus its predict).

    ``op_s`` is the summed wall time of the traced ops. Returns
    {name: value} for the span metrics, with None where a binding is missing.
    The quality and trace metrics are the caller's.
    """
    missing = tracer.missing_spans
    out = {}

    def per_round(value, *needs):
        return None if missing.intersection(needs) else value / rounds

    for span in SPANS:
        out[f"{span}.calls"] = per_round(tracer.calls[span], span)
        out[f"{span}.s"] = per_round(tracer.self_s[span], span)
    for key in ("sinkhorn.relax.sweeps", "sinkhorn.iot.sweeps", "sinkhorn.predict.sweeps",
                "io.read.bytes", "io.write.bytes"):
        out[key] = per_round(tracer.counts[key], key.rsplit(".", 1)[0])
    for span in ("sinkhorn.relax", "sinkhorn.iot"):
        out[f"{span}.overhead_x"] = None if span in missing else _overhead(tracer, span)
    out["sinkhorn.errors"] = per_round(tracer.counts["sinkhorn.errors"], *_SINKHORN)
    out["riot.inner.multiplier_gap_max"] = None if "riot.inner" in missing else tracer.gap_max
    out["riot.outer_iters"] = per_round(tracer.counts["riot.outer_iters"], "solver.fit")
    out["iot.iterations"] = per_round(tracer.counts["iot.iterations"], "solver.fit")
    out["joint.project.s_max"] = None if "joint.project" in missing \
        else tracer.max_self_s["joint.project"]
    out["solver.self.s"] = per_round(
        tracer.self_s["solver.fit"] + tracer.self_s["solver.predict"], *_SOLVER)
    out["cli.other.s"] = per_round(op_s - tracer.top_level_s, *_TOP_LEVEL)
    return out


def _overhead(tracer, span):
    """Per-sweep time of the traced solves over a bare sweep on the same inputs.

    0 when the span never ran in this workload.
    """
    sweeps = tracer.counts[f"{span}.sweeps"]
    if not sweeps:
        return 0.0
    bare = float(np.mean([bare_sweep_s(*s) for s in tracer.samples[span]]))
    return (tracer.self_s[span] / sweeps) / bare
