"""Smoke test of the benchmark itself, at toy sizes; runs in well under a minute.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import otmatch.io  # noqa: E402
import otmatch.riot  # noqa: E402

import bench  # noqa: E402
import tracing  # noqa: E402
from checks import CheckError, check_coupling, check_predict  # noqa: E402
from instances import make_instance  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, section):
    proc, lines = _run("--workload", "all", "--seed", "3", "--seconds", "0.5",
                       "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {f"{w['name']}.{m['name']}": m["unit"]
                for w in SPEC["workloads"] for m in SPEC[section]}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert got == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_single_workload_result_line_meets_the_contract(trace, section):
    """The line the benchmark is read by: booleans and whole numbers, not look-alikes."""
    proc, lines = _run("--workload", "riot-m20", "--seed", "3", "--seconds", "0.5",
                       "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert type(result["attempted"]) is int and result["attempted"] >= 1
    assert type(result["failed"]) is int and result["failed"] == 0
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[section]}
    for name, metric in result["metrics"].items():
        assert type(metric["value"]) in (int, float), name


def test_spec_names_the_workloads_that_exist():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_same_seed_same_inputs(tmp_path):
    a = make_instance(5, 1, 0, 6, 8e-3, 2, True, str(tmp_path / "a"))
    b = make_instance(5, 1, 0, 6, 8e-3, 2, True, str(tmp_path / "b"))
    pairs = [(a.files, b.files)] + [(x.files, y.files) for x, y in zip(a.held_out, b.held_out)]
    for files_a, files_b in pairs:
        for name in files_a:
            assert Path(files_a[name]).read_bytes() == Path(files_b[name]).read_bytes()


def test_plan_that_does_not_sum_to_one_is_caught(tmp_path):
    plan = np.full((3, 4), 1 / 12)
    np.savetxt(tmp_path / "ok.csv", plan, delimiter=",")
    check_coupling(tmp_path / "ok.csv", (3, 4))
    np.savetxt(tmp_path / "bad.csv", 2 * plan, delimiter=",")
    with pytest.raises(CheckError, match="sums to"):
        check_coupling(tmp_path / "bad.csv", (3, 4))
    with pytest.raises(CheckError, match="marginal"):
        check_predict(tmp_path / "ok.csv", np.full(3, 1 / 3),
                      np.array([0.4, 0.2, 0.2, 0.2]))


def _toy_run(tmp_path, trace=0):
    import otmatch.cli
    return bench.run_workload(otmatch.cli, 0.0, tmp_path, "riot-m20", 3, 0.0, trace, toy=True)


def test_corrupted_fit_output_fails_the_run(tmp_path, monkeypatch):
    write = otmatch.io.write_matrix

    def corrupting(path, matrix):
        if str(path).endswith("fitted_plan.csv"):
            matrix = 2 * np.asarray(matrix)
        write(path, matrix)

    monkeypatch.setattr(otmatch.io, "write_matrix", corrupting)
    result = _toy_run(tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_untraced_run_installs_no_shim(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("tracer installed in an untraced run")

    monkeypatch.setattr(tracing.Tracer, "__enter__", refuse)
    assert _toy_run(tmp_path)["correct"]


def test_tracer_restores_bindings_and_reports_missing_names(monkeypatch):
    import otmatch.cli
    originals = {(m, a): getattr(sys.modules[m], a) for m, a, *_ in tracing.BINDINGS}
    io_alias = otmatch.cli.mio
    monkeypatch.delattr(otmatch.riot, "_theta_root")
    with tracing.Tracer() as tracer:
        assert otmatch.riot.sinkhorn is not originals[("otmatch.riot", "sinkhorn")]
    assert "otmatch.riot._theta_root" in tracer.missing
    metrics = tracing.layer_metrics(tracer, 1, 0.0)
    assert metrics["riot.theta.calls"] is None and metrics["riot.theta.s"] is None
    assert metrics["riot.inner.calls"] == 0
    for (module, attr), original in originals.items():
        if attr != "_theta_root":
            assert getattr(sys.modules[module], attr) is original
    assert otmatch.cli.mio is io_alias


def test_checkout_without_program_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = _run("--workload", "riot-m20", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
