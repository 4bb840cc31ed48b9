"""Closed-loop runner, output checks and metrics of one workload.

Imported by run.py after the BLAS threads are pinned and the program is
loaded from this checkout's src/.
"""

import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy
import scipy

from checks import CheckError, check_finite, check_fit, check_predict, kl, shift_distance
from instances import kernel_cost, make_instance
from tracing import LAYER_UNITS, Tracer, layer_metrics, private_binding
from workloads import END_TO_END_UNITS, TOY, WORKLOADS

# Instance generation and CSV writing are repeated this often; setup_s
# reports the median.
SETUP_REPEATS = 3
# The reference loop is timed this often before the first round and after
# every round.
PROBE_REPEATS = 9

_PROBE_MATRIX = numpy.linspace(0.0, 1.0, 400).reshape(20, 20)


@dataclass
class Round:
    """One fit op and its predict ops on every held-out population."""

    fit_s: float
    A: numpy.ndarray
    plan: numpy.ndarray
    predict_s: list = field(default_factory=list)
    predicted: list = field(default_factory=list)


class Runner:
    """Closed-loop runner of one workload's ops, with their output checks."""

    def __init__(self, cli, workload, seed, work):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0

    def setup(self):
        """Draw the inputs and write them under an empty work directory."""
        wl = self.workload
        self.instances = [
            make_instance(self.seed, wl.key, i, wl.m, wl.sigma, wl.held_out,
                          wl.side_costs, str(self.work / f"in{i}"))
            for i in range(wl.instances)]
        self.config = []
        if wl.config:
            path = self.work / "config.json"
            path.write_text(json.dumps(wl.config))
            self.config = ["--config", str(path)]

    def _op(self, argv):
        """Run one CLI call; returns (seconds, exit code or error text)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            code = self.cli.main(argv + self.config)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = traceback.format_exc()
        return time.perf_counter() - start, code

    def _fail(self, what, index, detail):
        self.failed += 1
        print(f"FAILED {what} on instance {index}: {detail}", file=sys.stderr)

    def fit(self, index, method=None):
        """One fit op; returns a Round without predictions, or None on failure."""
        inst = self.instances[index]
        method = method or self.workload.method
        out = self.work / f"out{index}-{method}"
        argv = ["fit", "--method", "iot" if method == "iot" else "riot",
                "--coupling", inst.files["coupling"], "--users", inst.files["users"],
                "--items", inst.files["items"], "--seed", str(self.seed), "--out", str(out)]
        if method != "iot":
            argv += ["--cost-u", inst.files["cost_u"], "--cost-v", inst.files["cost_v"]]
        if method == "joint":
            argv.append("--joint-side-costs")
        seconds, code = self._op(argv)
        try:
            if code != 0:
                raise CheckError(f"exit {code}")
            A, plan = check_fit(out / "A.csv", out / "fitted_plan.csv",
                                (inst.U.shape[0], inst.V.shape[0]), inst.pi0.shape)
        except CheckError as exc:
            self._fail(f"fit --method {method}", index, exc)
            return None
        return Round(seconds, A, plan)

    def round(self, index):
        """A fit op, then a predict op per held-out population with its A."""
        result = self.fit(index)
        if result is None:
            return None
        out = self.work / f"out{index}-{self.workload.method}"
        for pop in self.instances[index].held_out:
            argv = ["predict", "--interaction", str(out / "A.csv"),
                    "--users", pop.files["users"], "--items", pop.files["items"],
                    "--mu", pop.files["mu"], "--nu", pop.files["nu"],
                    "--out", str(out / "predicted.csv")]
            seconds, code = self._op(argv)
            try:
                if code != 0:
                    raise CheckError(f"exit {code}")
                plan = check_predict(out / "predicted.csv", pop.mu, pop.nu)
            except CheckError as exc:
                self._fail("predict", index, exc)
                return None
            result.predict_s.append(seconds)
            result.predicted.append(plan)
        return result

    def quality(self, index, result):
        """kl_fit, cost_dist and predict_kl of one round, checked finite."""
        inst = self.instances[index]
        try:
            values = {
                "kl_fit": kl(inst.pi0, result.plan),
                "cost_dist": shift_distance(kernel_cost(inst.U, inst.V, result.A), inst.C0),
                "predict_kl": _mean([kl(pop.pi0, plan) for pop, plan
                                     in zip(inst.held_out, result.predicted)])}
            check_finite(**values)
        except CheckError as exc:
            self._fail("quality check", index, exc)
            return None
        return values


def _reference_loop():
    """About half a millisecond of small numpy calls and Python, like a solver's inner loop."""
    v = numpy.ones(20)
    for _ in range(150):
        v = numpy.exp(-_PROBE_MATRIX) @ v
        v /= v.sum()


class SpeedProbe:
    """Follows the host's speed with a fixed reference loop timed between rounds.

    A shared host has slow phases that last minutes, in which every op of
    this process runs up to 60% slower, so the median of a 30 s run follows
    the phase it lands in. The fastest of a run's hundreds of sub-millisecond
    reference timings does not: even in a slow phase some run at full speed.
    Scaling a round's op times by floor / (reference time around the round)
    gives what they take at the host's full speed.
    """

    def __init__(self):
        self.samples = []
        self.last = self._sample()

    def _sample(self):
        times = []
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            _reference_loop()
            times.append(time.perf_counter() - start)
        self.samples.extend(times)
        return statistics.median(times)

    def around_round(self):
        """Reference time around the round just made: the mean of the probes before and after."""
        before, self.last = self.last, self._sample()
        return (before + self.last) / 2

    def floor(self):
        return min(self.samples)


def _mean(values):
    return sum(values) / len(values) if values else float("nan")


def _median(values):
    values = list(values)
    return statistics.median(values) if values else float("nan")


def run_untraced(runner, seconds):
    """End-to-end metrics: at least one full pass, then more until time is up.

    ``fit_s`` and ``predict_s`` are medians of op times scaled to the
    host's full speed (see SpeedProbe); the unscaled medians are printed
    beside them. The quality metrics come from the first pass, so they are
    the same on every run at one seed.
    """
    n = len(runner.instances)
    probe = SpeedProbe()
    timed, quality = [], {}
    start = time.perf_counter()
    rounds = 0
    while rounds < n or time.perf_counter() - start < seconds:
        i = rounds % n
        rounds += 1
        result = runner.round(i)
        near = probe.around_round()
        if result is None:
            continue
        timed.append((result.fit_s, result.predict_s, near))
        if rounds <= n:
            quality[i] = runner.quality(i, result)
    floor = probe.floor()
    fit_s = [f for f, _, _ in timed]
    predict_s = [p for _, ps, _ in timed for p in ps]
    print(f"unscaled medians: fit_s {_median(fit_s):.6g} s, predict_s {_median(predict_s):.6g} s; "
          f"reference loop: floor {floor:.4g} s, median {_median(probe.samples):.4g} s")
    metrics = {name: _mean([q[name] for q in quality.values() if q])
               for name in ("kl_fit", "cost_dist", "predict_kl")}
    metrics["fit_s"] = _median(f * floor / near for f, _, near in timed)
    metrics["predict_s"] = _median(p * floor / near for _, ps, near in timed for p in ps)
    return metrics


def run_traced(runner, seconds):
    """Per-layer metrics: each round untraced, then traced, until time is up."""
    n = len(runner.instances)
    tracer = Tracer()
    traced_fit, traced_predict, overhead = [], [], []
    kl_hat, kl_ref, margin = [], [], []
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        i = rounds % n
        rounds += 1
        inst = runner.instances[i]
        plain = runner.round(i)
        if plain is None:
            continue
        with tracer:
            traced = runner.round(i)
        if traced is None:
            continue
        traced_fit.append(traced.fit_s)
        traced_predict.append(sum(traced.predict_s))
        overhead.append(traced.fit_s - plain.fit_s)
        ref = plain if runner.workload.method == "iot" else runner.fit(i, method="iot")
        if ref is None:
            continue
        kl_hat.append(kl(inst.pi0, inst.pi_hat))
        kl_ref.append(kl(inst.pi0, ref.plan))
        margin.append(kl_ref[-1] - kl(inst.pi0, traced.plan))

    if tracer.missing:
        print("missing bindings (metrics reported as null): " + ", ".join(tracer.missing),
              file=sys.stderr)
    done = len(traced_fit)
    if not done:
        return {}
    metrics = layer_metrics(tracer, done, sum(traced_fit) + sum(traced_predict))
    metrics.update({
        "quality.kl_hat": _mean(kl_hat), "quality.kl_iot_ref": _mean(kl_ref),
        "quality.kl_margin": _mean(margin),
        "trace.fit_s": _mean(traced_fit), "trace.predict_s": _mean(traced_predict),
        "trace.overhead_s": statistics.median(overhead),
    })
    return metrics


def run_workload(cli, import_s, work_dir, name, seed, seconds, trace, toy=False):
    """Set up and run one workload in this process; returns the result dict.

    ``import_s`` is the caller's measure of the program's import time; it
    is part of setup_s. Inputs and outputs live under ``work_dir``, which is
    removed afterwards.
    """
    workload = WORKLOADS[name]
    if toy:
        workload = replace(workload, **TOY)
    work = Path(work_dir) / f"{name}-{os.getpid()}"
    runner = Runner(cli, workload, seed, work)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            start = time.perf_counter()
            runner.setup()
            setup_times.append(time.perf_counter() - start)
        if trace:
            units = LAYER_UNITS
            values = run_traced(runner, seconds)
        else:
            units = END_TO_END_UNITS
            values = run_untraced(runner, seconds)
            values["setup_s"] = import_s + statistics.median(setup_times)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for metric, unit in units.items():
        value = values.get(metric)
        if value is not None and value != value:
            value = None
        metrics[metric] = {"value": value, "unit": unit}
    complete = bool(trace) or all(m["value"] is not None for m in metrics.values())
    return {"correct": runner.failed == 0 and complete, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def environment(seed, commit):
    return {"nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": commit, "seed": seed}


def print_table(result):
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = "null" if value is None else f"{value:.6g}"
        private = private_binding(name)
        note = f"  (private: {private})" if private else ""
        print(f"{name:<32} {shown:>14} {metric['unit']}{note}")
    rate = result["failed"] / result["attempted"] if result["attempted"] else float("nan")
    print(f"{'fail_rate':<32} {rate:>14.6g} ratio "
          f"({result['failed']} of {result['attempted']} ops)")


