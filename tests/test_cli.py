import json
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import otmatch
from otmatch import cli, io as mio
from otmatch.bounds import kl_divergence
from otmatch.cli import (EXIT_INPUT, EXIT_INTERNAL, EXIT_OK, EXIT_SOLVER, _synth_config,
                         main)
from otmatch.containers import HyperParams
from otmatch.synth import SynthConfig, generate_instance


@pytest.fixture
def workspace(tmp_path):
    cfg = SynthConfig(m=5, n=4, p=3, q=2, seed=3,
                      hyper=HyperParams(step_size=5.0, outer_iters=4))
    inst = generate_instance(cfg)
    rng = np.random.default_rng(0)
    counts = rng.integers(1, 40, (5, 4))
    paths = {
        "counts": tmp_path / "counts.csv",
        "users": tmp_path / "users.csv",
        "items": tmp_path / "items.csv",
        "cost_u": tmp_path / "cu.csv",
        "cost_v": tmp_path / "cv.csv",
        "config": tmp_path / "config.json",
    }
    mio.write_matrix(paths["counts"], counts)
    mio.write_matrix(paths["users"], inst.U)
    mio.write_matrix(paths["items"], inst.V)
    mio.write_matrix(paths["cost_u"], inst.C_u)
    mio.write_matrix(paths["cost_v"], inst.C_v)
    paths["config"].write_text(json.dumps({
        "kernel": {"kind": "polynomial", "gamma": 0.05, "c0": 1.0, "degree": 2},
        "hyper": {"lambda": 1.0, "L": 4, "s": 5.0, "delta": 0.01},
        "seed": 3,
    }))
    return tmp_path, paths


def fit_args(paths, out, method="riot", extra=()):
    args = ["fit", "--method", method, "--config", str(paths["config"]),
            "--counts", str(paths["counts"]), "--users", str(paths["users"]),
            "--items", str(paths["items"]), "--out", str(out)]
    if method == "riot":
        args += ["--cost-u", str(paths["cost_u"]), "--cost-v", str(paths["cost_v"])]
    return args + list(extra)


class TestFit:
    def test_riot_writes_four_files(self, workspace):
        tmp, paths = workspace
        out = tmp / "fit_riot"
        assert main(fit_args(paths, out)) == EXIT_OK
        for name in ("A.csv", "fitted_plan.csv", "objective_trace.csv", "run.json"):
            assert (out / name).exists()
        meta = json.loads((out / "run.json").read_text())
        assert {"seed", "config_hash", "wall_time_s"} <= set(meta)

    def test_missing_cost_u_is_input_error(self, workspace, capsys):
        tmp, paths = workspace
        args = ["fit", "--method", "riot", "--config", str(paths["config"]),
                "--counts", str(paths["counts"]), "--users", str(paths["users"]),
                "--items", str(paths["items"]), "--cost-v", str(paths["cost_v"]),
                "--out", str(tmp / "nope")]
        assert main(args) == EXIT_INPUT
        assert "--cost-u" in capsys.readouterr().err
        assert not (tmp / "nope").exists()

    def test_negative_count_names_position(self, workspace, capsys):
        tmp, paths = workspace
        counts = mio.read_matrix(paths["counts"])
        counts[1, 2] = -4
        mio.write_matrix(paths["counts"], counts)
        assert main(fit_args(paths, tmp / "neg")) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "row 2" in err and "column 3" in err
        assert not (tmp / "neg").exists()

    def test_iot_needs_no_side_costs(self, workspace):
        tmp, paths = workspace
        assert main(fit_args(paths, tmp / "fit_iot", method="iot")) == EXIT_OK

    def test_joint_flag_writes_side_costs(self, workspace):
        tmp, paths = workspace
        out = tmp / "fit_joint"
        args = ["fit", "--method", "riot", "--joint-side-costs",
                "--config", str(paths["config"]),
                "--counts", str(paths["counts"]), "--users", str(paths["users"]),
                "--items", str(paths["items"]), "--out", str(out)]
        assert main(args) == EXIT_OK
        assert (out / "cost_u.csv").exists() and (out / "cost_v.csv").exists()

    def test_joint_flag_with_iot_is_input_error(self, workspace, capsys):
        tmp, paths = workspace
        args = fit_args(paths, tmp / "nope", method="iot", extra=["--joint-side-costs"])
        assert main(args) == EXIT_INPUT
        assert "--joint-side-costs" in capsys.readouterr().err
        assert not (tmp / "nope").exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, "abc"])
    def test_bad_side_step_is_input_error(self, workspace, capsys, value):
        tmp, paths = workspace
        cfg = json.loads(paths["config"].read_text())
        cfg["side_step"] = value
        paths["config"].write_text(json.dumps(cfg))
        args = fit_args(paths, tmp / "nope", extra=["--joint-side-costs"])
        assert main(args) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: side_step must")
        assert not (tmp / "nope").exists()

    @pytest.mark.parametrize("method", ["iot", "riot"])
    def test_side_step_without_joint_flag_is_input_error(self, workspace, capsys, method):
        tmp, paths = workspace
        cfg = json.loads(paths["config"].read_text())
        cfg["side_step"] = 0.5
        paths["config"].write_text(json.dumps(cfg))
        assert main(fit_args(paths, tmp / "nope", method=method)) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "side_step" in err and "--joint-side-costs" in err
        assert not (tmp / "nope").exists()

    @pytest.mark.parametrize("joint", [False, True])
    @pytest.mark.parametrize("flag", ["--cost-u", "--cost-v"])
    def test_wrong_side_cost_shape_is_input_error(self, workspace, capsys, flag, joint):
        # a 3x3 side cost on the 5x4 market, rejected before --out is made
        tmp, paths = workspace
        mio.write_matrix(paths[flag[2:].replace("-", "_")], 1.0 - np.eye(3))
        extra = ["--joint-side-costs"] if joint else []
        assert main(fit_args(paths, tmp / "nope", extra=extra)) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err
        assert not (tmp / "nope").exists()

    @pytest.mark.parametrize("case", ["joint_two_rows", "riot_empty_row"])
    def test_input_error_inside_fit_leaves_no_out(self, workspace, capsys, case):
        # both inputs pass the CLI's own checks and are rejected by the fit
        tmp, paths = workspace
        counts = mio.read_matrix(paths["counts"])
        if case == "joint_two_rows":
            counts = counts[:2]
            mio.write_matrix(paths["users"], mio.read_matrix(paths["users"])[:, :2])
            args = ["fit", "--method", "riot", "--joint-side-costs",
                    "--config", str(paths["config"]), "--counts", str(paths["counts"]),
                    "--users", str(paths["users"]), "--items", str(paths["items"]),
                    "--out", str(tmp / "nope")]
        else:
            counts[1] = 0
            args = fit_args(paths, tmp / "nope")
        mio.write_matrix(paths["counts"], counts)
        assert main(args) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "profile counts" not in err
        assert not (tmp / "nope").exists()

    def test_overflowing_joint_side_cost_is_input_error(self, workspace, capsys):
        tmp, paths = workspace
        huge = np.full((5, 5), 1e308)
        np.fill_diagonal(huge, 0.0)
        mio.write_matrix(paths["cost_u"], huge)
        args = ["fit", "--method", "riot", "--joint-side-costs",
                "--config", str(paths["config"]), "--counts", str(paths["counts"]),
                "--users", str(paths["users"]), "--items", str(paths["items"]),
                "--cost-u", str(paths["cost_u"]), "--out", str(tmp / "nope")]
        assert main(args) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: projection input is too large")
        assert not (tmp / "nope").exists()

    @pytest.mark.parametrize("kernel", [{"gamma": 1.0}, "polynomial"])
    def test_kernel_spec_without_kind_is_input_error(self, workspace, capsys, kernel):
        tmp, paths = workspace
        paths["config"].write_text(json.dumps({"kernel": kernel}))
        assert main(fit_args(paths, tmp / "nope")) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: kernel spec")

    @pytest.mark.parametrize("degree", [2.5, "abc"])
    def test_bad_kernel_degree_is_input_error(self, workspace, capsys, degree):
        tmp, paths = workspace
        paths["config"].write_text(json.dumps(
            {"kernel": {"kind": "polynomial", "gamma": 0.05, "c0": 1.0, "degree": degree}}))
        assert main(fit_args(paths, tmp / "nope")) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: polynomial degree")
        assert not (tmp / "nope").exists()

    @pytest.mark.parametrize("method, key, name", [
        ("riot", "delta", "delta"), ("riot", "sinkhorn_tol", "sinkhorn_tol"),
        ("iot", "lambda", "lam"), ("iot", "L", "outer_iters")])
    def test_non_finite_hyper_is_input_error(self, workspace, capsys, method, key, name):
        tmp, paths = workspace
        cfg = json.loads(paths["config"].read_text())
        cfg["hyper"][key] = float("inf")
        paths["config"].write_text(json.dumps(cfg))
        assert main(fit_args(paths, tmp / "nope", method=method)) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: {name} must")
        assert not (tmp / "nope").exists()

    @pytest.mark.parametrize("section, key, message", [
        ("hyper", "lambda", "lam must"), ("hyper", "L", "outer_iters must"),
        ("kernel", "degree", "polynomial degree must"), ("kernel", "gamma", "kernel gamma must"),
        (None, "side_step", "side_step must")])
    def test_boolean_number_is_input_error(self, workspace, capsys, section, key, message):
        # JSON true is not the number 1
        tmp, paths = workspace
        cfg = json.loads(paths["config"].read_text())
        (cfg if section is None else cfg[section])[key] = True
        paths["config"].write_text(json.dumps(cfg))
        args = fit_args(paths, tmp / "nope", extra=["--joint-side-costs"])
        assert main(args) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp / "nope").exists()

    @pytest.mark.parametrize("kernel, key", [
        ({"kind": "linear", "degree": "abc"}, "degree"),
        ({"kind": "polynomial", "gama": 3.0}, "gama")])
    def test_kernel_key_the_kind_does_not_use_is_input_error(self, workspace, capsys,
                                                             kernel, key):
        tmp, paths = workspace
        paths["config"].write_text(json.dumps({"kernel": kernel}))
        assert main(fit_args(paths, tmp / "nope", method="iot")) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(key) in err
        assert not (tmp / "nope").exists()

    @pytest.mark.parametrize("key", ["K", "inner_iters"])
    def test_inner_iteration_count_is_not_a_setting(self, workspace, capsys, key):
        tmp, paths = workspace
        cfg = json.loads(paths["config"].read_text())
        cfg["hyper"][key] = 20
        paths["config"].write_text(json.dumps(cfg))
        assert main(fit_args(paths, tmp / "nope")) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(key) in err
        assert not (tmp / "nope").exists()

    def test_hyper_section_not_an_object_is_input_error(self, workspace, capsys):
        tmp, paths = workspace
        paths["config"].write_text(json.dumps({"hyper": [1, 2]}))
        assert main(fit_args(paths, tmp / "nope")) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: config section 'hyper'")
        assert not (tmp / "nope").exists()

    def test_hyper_key_under_two_spellings_is_input_error(self, workspace, capsys):
        tmp, paths = workspace
        paths["config"].write_text(json.dumps({"hyper": {"lam": 1.0, "lambda": 2.0}}))
        assert main(fit_args(paths, tmp / "nope")) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'lam'" in err and "'lambda'" in err
        assert not (tmp / "nope").exists()

    def test_solver_failure_exits_with_json_diagnostic(self, workspace, capsys):
        tmp, paths = workspace
        paths["config"].write_text(json.dumps(
            {"hyper": {"sinkhorn_max_iters": 1, "sinkhorn_tol": 1e-15}}))
        assert main(fit_args(paths, tmp / "nope", method="iot")) == EXIT_SOLVER
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "SinkhornConvergenceError"
        assert not (tmp / "nope").exists()

    def test_reproducible_outputs(self, workspace):
        tmp, paths = workspace
        out1, out2 = tmp / "r1", tmp / "r2"
        assert main(fit_args(paths, out1)) == EXIT_OK
        assert main(fit_args(paths, out2)) == EXIT_OK
        for name in ("A.csv", "fitted_plan.csv", "objective_trace.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("seed", ["abc", -1, 1.5, True])
    def test_config_seed_must_be_a_nonnegative_integer(self, workspace, capsys, seed):
        tmp, paths = workspace
        cfg = json.loads(paths["config"].read_text())
        cfg["seed"] = seed
        paths["config"].write_text(json.dumps(cfg))
        assert main(fit_args(paths, tmp / "nope")) == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: seed must be an integer >= 0, got {seed!r}"]
        assert not (tmp / "nope").exists()

    def test_whole_float_seed_reads_as_int(self, workspace):
        tmp, paths = workspace
        cfg = json.loads(paths["config"].read_text())
        cfg["seed"] = 1.0
        paths["config"].write_text(json.dumps(cfg))
        assert main(fit_args(paths, tmp / "out", method="iot")) == EXIT_OK
        assert json.loads((tmp / "out" / "run.json").read_text())["seed"] == 1

    def test_empty_counts_path_is_named(self, workspace, capsys):
        tmp, paths = workspace
        args = fit_args(paths, tmp / "nope")
        args[args.index("--counts") + 1] = ""
        assert main(args) == EXIT_INPUT
        assert capsys.readouterr().err.splitlines() == ["error: --counts: no such file: "]
        assert not (tmp / "nope").exists()

    def test_seed_flag_wins_over_the_config(self, workspace, capsys):
        tmp, paths = workspace
        cfg = json.loads(paths["config"].read_text())
        cfg["seed"] = "abc"
        paths["config"].write_text(json.dumps(cfg))
        assert main(fit_args(paths, tmp / "out", extra=["--seed", "2"])) == EXIT_OK
        assert json.loads((tmp / "out" / "run.json").read_text())["seed"] == 2
        assert main(fit_args(paths, tmp / "nope", extra=["--seed", "-1"])) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: seed must be")
        assert not (tmp / "nope").exists()


class TestPredict:
    def test_round_trip_reproduces_fitted_plan(self, workspace):
        tmp, paths = workspace
        out = tmp / "fit"
        assert main(fit_args(paths, out)) == EXIT_OK
        plan = mio.read_matrix(out / "fitted_plan.csv")
        mio.write_vector(tmp / "mu.csv", plan.sum(axis=1))
        mio.write_vector(tmp / "nu.csv", plan.sum(axis=0))
        pred_path = tmp / "pred.csv"
        args = ["predict", "--interaction", str(out / "A.csv"),
                "--users", str(paths["users"]), "--items", str(paths["items"]),
                "--mu", str(tmp / "mu.csv"), "--nu", str(tmp / "nu.csv"),
                "--config", str(paths["config"]), "--out", str(pred_path)]
        assert main(args) == EXIT_OK
        np.testing.assert_allclose(mio.read_matrix(pred_path), plan, atol=1e-8)

    def test_wrong_interaction_shape(self, workspace, capsys):
        tmp, paths = workspace
        mio.write_matrix(tmp / "badA.csv", np.zeros((2, 2)))
        mio.write_vector(tmp / "mu.csv", np.full(5, 0.2))
        mio.write_vector(tmp / "nu.csv", np.full(4, 0.25))
        args = ["predict", "--interaction", str(tmp / "badA.csv"),
                "--users", str(paths["users"]), "--items", str(paths["items"]),
                "--mu", str(tmp / "mu.csv"), "--nu", str(tmp / "nu.csv"),
                "--config", str(paths["config"]), "--out", str(tmp / "p.csv")]
        assert main(args) == EXIT_INPUT
        assert "interaction shape" in capsys.readouterr().err

    def test_unbalanced_marginals_are_input_error(self, workspace, capsys):
        # a --mu of mass 0.5 against a --nu of mass 1 can never converge
        tmp, paths = workspace
        mio.write_matrix(tmp / "A0.csv", np.zeros((3, 2)))
        mio.write_vector(tmp / "mu.csv", np.full(5, 0.1))
        mio.write_vector(tmp / "nu.csv", np.full(4, 0.25))
        args = ["predict", "--interaction", str(tmp / "A0.csv"),
                "--users", str(paths["users"]), "--items", str(paths["items"]),
                "--mu", str(tmp / "mu.csv"), "--nu", str(tmp / "nu.csv"),
                "--config", str(paths["config"]), "--out", str(tmp / "p.csv")]
        assert main(args) == EXIT_INPUT
        assert "marginal masses" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--mu", "--nu"])
    @pytest.mark.parametrize("case", ["nan", "negative", "mass_two"])
    def test_bad_marginal_is_input_error_naming_flag(self, workspace, capsys, flag, case):
        tmp, paths = workspace
        mio.write_matrix(tmp / "A0.csv", np.zeros((3, 2)))
        marginals = {"--mu": np.full(5, 0.2), "--nu": np.full(4, 0.25)}
        bad = marginals[flag]
        if case == "nan":
            bad[0] = np.nan
        elif case == "negative":
            bad[:2] = (-0.1, bad[0] + bad[1] + 0.1)
        else:
            bad *= 2.0
        mio.write_vector(tmp / "mu.csv", marginals["--mu"])
        mio.write_vector(tmp / "nu.csv", marginals["--nu"])
        args = ["predict", "--interaction", str(tmp / "A0.csv"),
                "--users", str(paths["users"]), "--items", str(paths["items"]),
                "--mu", str(tmp / "mu.csv"), "--nu", str(tmp / "nu.csv"),
                "--config", str(paths["config"]), "--out", str(tmp / "p.csv")]
        assert main(args) == EXIT_INPUT
        err = capsys.readouterr().err
        if case == "nan":
            # the CSV reader rejects it and names the file
            path = tmp / f"{flag[2:]}.csv"
            assert err.startswith(f"error: {path}: non-finite value at line 1, column 1")
        else:
            assert err.startswith(f"error: {flag}: ")
        assert not (tmp / "p.csv").exists()

    def test_marginal_of_the_wrong_length_is_input_error(self, workspace, capsys):
        # the transport solve, not the CLI, checks the marginals' lengths
        tmp, paths = workspace
        mio.write_matrix(tmp / "A0.csv", np.zeros((3, 2)))
        mio.write_vector(tmp / "mu.csv", np.full(4, 0.25))
        mio.write_vector(tmp / "nu.csv", np.full(4, 0.25))
        args = ["predict", "--interaction", str(tmp / "A0.csv"),
                "--users", str(paths["users"]), "--items", str(paths["items"]),
                "--mu", str(tmp / "mu.csv"), "--nu", str(tmp / "nu.csv"),
                "--config", str(paths["config"]), "--out", str(tmp / "p.csv")]
        assert main(args) == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: marginal shapes (4,)/(4,) "), err
        assert "cost shape (5, 4)" in err[0]
        assert not (tmp / "p.csv").exists()

    def test_config_sinkhorn_settings_reach_the_solve(self, workspace, capsys):
        tmp, paths = workspace
        mio.write_matrix(tmp / "A.csv", np.random.default_rng(1).normal(0, 1, (3, 2)))
        mio.write_vector(tmp / "mu.csv", np.full(5, 0.2))
        mio.write_vector(tmp / "nu.csv", np.full(4, 0.25))
        paths["config"].write_text(json.dumps(
            {"hyper": {"sinkhorn_max_iters": 1, "sinkhorn_tol": 1e-15}}))
        args = ["predict", "--interaction", str(tmp / "A.csv"),
                "--users", str(paths["users"]), "--items", str(paths["items"]),
                "--mu", str(tmp / "mu.csv"), "--nu", str(tmp / "nu.csv"),
                "--config", str(paths["config"]), "--out", str(tmp / "p.csv")]
        assert main(args) == EXIT_SOLVER
        err = capsys.readouterr().err
        assert json.loads(err)["error"] == "SinkhornConvergenceError"
        assert not (tmp / "p.csv").exists()

    def test_constant_interaction_gives_product(self, workspace):
        tmp, paths = workspace
        mio.write_matrix(tmp / "A0.csv", np.zeros((3, 2)))
        mu = np.full(5, 0.2)
        nu = np.full(4, 0.25)
        mio.write_vector(tmp / "mu.csv", mu)
        mio.write_vector(tmp / "nu.csv", nu)
        args = ["predict", "--interaction", str(tmp / "A0.csv"),
                "--users", str(paths["users"]), "--items", str(paths["items"]),
                "--mu", str(tmp / "mu.csv"), "--nu", str(tmp / "nu.csv"),
                "--config", str(paths["config"]), "--out", str(tmp / "p.csv")]
        assert main(args) == EXIT_OK
        np.testing.assert_allclose(mio.read_matrix(tmp / "p.csv"),
                                   np.outer(mu, nu), atol=1e-9)


class TestSimulateAndEval:
    def simulate_config(self, tmp):
        cfg = tmp / "sim.json"
        cfg.write_text(json.dumps({
            "synth": {"m": 5, "n": 5, "p": 3, "q": 2, "repetitions": 2,
                      "sigma_grid": [1e-3, 1e-2], "delta_grid": [0.01],
                      "noise_sigma": 5e-3},
            "hyper": {"L": 3, "s": 5.0},
        }))
        return cfg

    def test_figure2_outputs(self, tmp_path):
        cfg = self.simulate_config(tmp_path)
        out = tmp_path / "sweep"
        args = ["simulate", "--figure", "2", "--seed", "7", "--config", str(cfg),
                "--out", str(out)]
        assert main(args) == EXIT_OK
        sweep = mio.read_matrix(out / "sweep.csv")
        assert sweep.shape == (4, 6)  # 2 sigmas x 1 delta x 2 reps
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == 7 and len(summary["cells"]) == 2

    def test_figure2_parallel_reproducible(self, tmp_path):
        cfg = self.simulate_config(tmp_path)
        outs = []
        for name, workers in (("s1", "1"), ("s2", "2")):
            out = tmp_path / name
            args = ["simulate", "--figure", "2", "--seed", "7", "--config",
                    str(cfg), "--workers", workers, "--out", str(out)]
            assert main(args) == EXIT_OK
            outs.append(out)
        assert (outs[0] / "sweep.csv").read_bytes() == (outs[1] / "sweep.csv").read_bytes()
        assert (outs[0] / "summary.json").read_bytes() == (outs[1] / "summary.json").read_bytes()

    def test_figure2_rejects_zero_workers(self, tmp_path):
        out = tmp_path / "sweep"
        args = ["simulate", "--figure", "2", "--config", str(self.simulate_config(tmp_path)),
                "--workers", "0", "--out", str(out)]
        assert main(args) == EXIT_INPUT
        assert not out.exists()

    def test_failed_forward_solve_is_a_solver_error(self, tmp_path, capsys):
        # the instance is drawn once; its failed solve is not an input error
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"hyper": {"sinkhorn_max_iters": 1}}))
        out = tmp_path / "plans"
        args = ["simulate", "--figure", "3", "--config", str(cfg), "--out", str(out)]
        assert main(args) == EXIT_SOLVER
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "SinkhornConvergenceError"
        assert not out.exists()

    def test_figure3_outputs(self, tmp_path):
        cfg = self.simulate_config(tmp_path)
        out = tmp_path / "plans"
        args = ["simulate", "--figure", "3", "--seed", "5", "--config", str(cfg),
                "--out", str(out)]
        assert main(args) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        plans = {name: mio.read_matrix(out / f"{name}.csv")
                 for name in ("pi0", "pi_hat", "pi_riot", "pi_iot")}
        for plan in plans.values():
            assert plan.shape == (5, 5) and plan.sum() == pytest.approx(1.0)
        assert summary["kl_hat"] == pytest.approx(
            kl_divergence(plans["pi0"], plans["pi_hat"]), rel=1e-6)
        assert summary["kl_riot"] > 0 and summary["kl_iot"] > 0

    def test_figure4_outputs(self, tmp_path):
        cfg = self.simulate_config(tmp_path)
        out = tmp_path / "recovery"
        args = ["simulate", "--figure", "4", "--seed", "5", "--config", str(cfg),
                "--out", str(out)]
        assert main(args) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert {"d_riot", "d_iot"} <= set(summary)
        assert (out / "cost_true.csv").exists()
        assert (out / "cost_riot_aligned.csv").exists()

    def test_figures_3_and_4_come_from_one_experiment(self, tmp_path):
        cfg = self.simulate_config(tmp_path)
        summaries = []
        for figure in ("3", "4"):
            out = tmp_path / f"fig{figure}"
            assert main(["simulate", "--figure", figure, "--seed", "5", "--config", str(cfg),
                         "--out", str(out)]) == EXIT_OK
            summaries.append(json.loads((out / "summary.json").read_text()))
        for key in ("kl_hat", "kl_riot", "kl_iot"):
            assert summaries[0][key] == summaries[1][key]

    @pytest.mark.parametrize("cfg, name", [({"synth": [1, 2]}, "synth")])
    def test_config_section_not_an_object_is_input_error(self, tmp_path, capsys, cfg, name):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        args = ["simulate", "--figure", "3", "--config", str(path),
                "--out", str(tmp_path / "nope")]
        assert main(args) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: config section {name!r}")
        assert not (tmp_path / "nope").exists()

    @pytest.mark.parametrize("cfg, name", [({"hyper": {"L": 2, "outer_iters": 3}}, "hyper")])
    def test_hyper_key_under_two_spellings_is_input_error(self, tmp_path, capsys, cfg,
                                                          name):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        args = ["simulate", "--figure", "3", "--config", str(path),
                "--out", str(tmp_path / "nope")]
        assert main(args) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: config section {name!r}")
        assert all(repr(key) in err for key in cfg["hyper"])
        assert not (tmp_path / "nope").exists()

    @pytest.mark.parametrize("key, value", [
        ("hyper", {"lam": 2.0}), ("kernel", {"kind": "linear"}), ("seed", 1)])
    def test_synth_section_holds_only_the_protocol(self, tmp_path, capsys, key, value):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps({"synth": {"m": 4, key: value}}))
        args = ["simulate", "--figure", "3", "--config", str(path),
                "--out", str(tmp_path / "nope")]
        assert main(args) == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: seed, hyper and kernel are top-level keys, not 'synth' keys"]
        assert not (tmp_path / "nope").exists()

    def test_synth_config_reads_the_top_level_sections(self):
        cfg = {"hyper": {"lambda": 2.0, "L": 3}, "kernel": {"kind": "linear"},
               "synth": {"m": 4, "delta_grid": [0.5]}}
        scfg = _synth_config(cfg, 7)
        assert (scfg.hyper.lam, scfg.hyper.outer_iters, scfg.kernel.kind) == (2.0, 3, "linear")
        assert (scfg.m, scfg.seed, scfg.delta_grid) == (4, 7, (0.5,))
        assert _synth_config({}, 0) == SynthConfig()

    @pytest.mark.parametrize("figure", ["2", "3"])
    @pytest.mark.parametrize("seed", ["abc", -1, 1.5, True])
    def test_config_seed_must_be_a_nonnegative_integer(self, tmp_path, capsys, figure, seed):
        cfg = json.loads(self.simulate_config(tmp_path).read_text())
        cfg["seed"] = seed
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        args = ["simulate", "--figure", figure, "--config", str(path),
                "--out", str(tmp_path / "nope")]
        assert main(args) == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: seed must be an integer >= 0, got {seed!r}"]
        assert not (tmp_path / "nope").exists()

    def test_negative_seed_flag_is_input_error(self, tmp_path, capsys):
        args = ["simulate", "--figure", "3", "--seed", "-1",
                "--config", str(self.simulate_config(tmp_path)), "--out", str(tmp_path / "nope")]
        assert main(args) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: seed must be")
        assert not (tmp_path / "nope").exists()

    @pytest.mark.parametrize("figure", ["2", "3"])
    def test_fractional_repetitions_is_input_error(self, tmp_path, capsys, figure):
        cfg = json.loads(self.simulate_config(tmp_path).read_text())
        cfg["synth"]["repetitions"] = 1.5
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        args = ["simulate", "--figure", figure, "--config", str(path),
                "--out", str(tmp_path / "nope")]
        assert main(args) == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: repetitions must be an integer >= 1, got 1.5"]
        assert not (tmp_path / "nope").exists()

    def test_cli_import_leaves_multiprocessing_out(self):
        # Only a parallel sweep needs the process pool; importing the CLI
        # must not pay for multiprocessing.
        code = "import sys, otmatch.cli; print('multiprocessing' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(otmatch.__file__)))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_runs_without_scipy(self, tmp_path):
        # scipy is a test dependency only: with every scipy import failing,
        # the CLI still imports and runs a whole experiment.
        cfg = self.simulate_config(tmp_path)
        argv = ["simulate", "--figure", "3", "--seed", "5", "--config", str(cfg),
                "--out", str(tmp_path / "plans")]
        code = ("import sys\n"
                "sys.modules['scipy'] = None\n"
                "import otmatch.cli\n"
                f"sys.exit(otmatch.cli.main({argv!r}))\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(otmatch.__file__)))
        proc = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert (tmp_path / "plans" / "summary.json").exists()

    @pytest.mark.parametrize("lam", ["0", "-1", "nan", "inf"])
    def test_eval_lambda_must_be_finite_and_positive(self, tmp_path, capsys, lam):
        plan = np.full((2, 2), 0.25)
        for name in ("a", "c"):
            mio.write_matrix(tmp_path / f"{name}.csv", plan)
        out = tmp_path / "report.json"
        assert main(["eval", "--pred", str(tmp_path / "a.csv"), "--test", str(tmp_path / "a.csv"),
                     "--cost-true", str(tmp_path / "c.csv"),
                     "--cost-pred", str(tmp_path / "c.csv"),
                     f"--lambda={lam}", "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: --lambda")
        assert not out.exists()

    def test_eval_identity(self, tmp_path, capsys):
        plan = np.full((2, 2), 0.25)
        mio.write_matrix(tmp_path / "a.csv", plan)
        assert main(["eval", "--pred", str(tmp_path / "a.csv"),
                     "--test", str(tmp_path / "a.csv")]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report == {"rmse": 0.0, "mae": 0.0, "kl": 0.0}

    def test_eval_cost_true_needs_cost_pred(self, tmp_path, capsys):
        mio.write_matrix(tmp_path / "a.csv", np.full((2, 2), 0.25))
        out = tmp_path / "report.json"
        assert main(["eval", "--pred", str(tmp_path / "a.csv"), "--test", str(tmp_path / "a.csv"),
                     "--cost-true", str(tmp_path / "a.csv"), "--out", str(out)]) == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: --cost-true and --cost-pred must be given together"]
        assert not out.exists()

    def test_eval_out_writes_the_report(self, tmp_path, capsys):
        mio.write_matrix(tmp_path / "a.csv", np.full((2, 2), 0.25))
        out = tmp_path / "report.json"
        assert main(["eval", "--pred", str(tmp_path / "a.csv"), "--test", str(tmp_path / "a.csv"),
                     "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert out.read_text() == '{\n  "kl": 0.0,\n  "mae": 0.0,\n  "rmse": 0.0\n}\n'

    def test_eval_shape_mismatch(self, tmp_path, capsys):
        mio.write_matrix(tmp_path / "a.csv", np.full((2, 2), 0.25))
        mio.write_matrix(tmp_path / "b.csv", np.full((1, 4), 0.25))
        assert main(["eval", "--pred", str(tmp_path / "a.csv"),
                     "--test", str(tmp_path / "b.csv")]) == EXIT_INPUT

    @pytest.mark.parametrize("shape_true, shape_pred, flag", [
        ((3, 3), (4, 4), "--cost-pred"), ((4, 4), (3, 3), "--cost-true"),
        ((4, 4), (4, 4), "--cost-true")], ids=["3x3-4x4", "4x4-3x3", "4x4-4x4"])
    def test_eval_cost_shape_must_match_plans(self, tmp_path, capsys, shape_true,
                                              shape_pred, flag):
        mio.write_matrix(tmp_path / "a.csv", np.full((3, 3), 1 / 9))
        mio.write_matrix(tmp_path / "ct.csv", np.ones(shape_true))
        mio.write_matrix(tmp_path / "cp.csv", np.ones(shape_pred))
        out = tmp_path / "report.json"
        assert main(["eval", "--pred", str(tmp_path / "a.csv"), "--test", str(tmp_path / "a.csv"),
                     "--cost-true", str(tmp_path / "ct.csv"),
                     "--cost-pred", str(tmp_path / "cp.csv"), "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: {flag}: cost shape")
        assert not out.exists()

    def test_eval_with_costs_reports_bounds(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        from otmatch.transport import sinkhorn
        C0 = rng.uniform(0, 2, (3, 3))
        C1 = rng.uniform(0, 2, (3, 3))
        mu = np.full(3, 1 / 3)
        p0 = sinkhorn(C0, mu, mu, 1.0).plan.entries
        p1 = sinkhorn(C1, mu, mu, 1.0).plan.entries
        mio.write_matrix(tmp_path / "test.csv", p0)
        mio.write_matrix(tmp_path / "pred.csv", p1)
        mio.write_matrix(tmp_path / "c0.csv", C0)
        mio.write_matrix(tmp_path / "c1.csv", C1)
        assert main(["eval", "--pred", str(tmp_path / "pred.csv"),
                     "--test", str(tmp_path / "test.csv"),
                     "--cost-true", str(tmp_path / "c0.csv"),
                     "--cost-pred", str(tmp_path / "c1.csv")]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert "cost_shift_distance" in report
        assert report["prediction_error_bound"]["satisfied"]

    def test_eval_bounds_finite_where_plans_underflow(self, tmp_path, capsys):
        # exp(-800) is 0 in float64, so both predicted plans have zero entries
        C0 = 800.0 * (1.0 - np.eye(3))
        C1 = C0 + np.array([[0.0, 0.1, 0.2], [0.3, 0.0, 0.1], [0.2, 0.3, 0.0]])
        uniform = np.full((3, 3), 1 / 9)
        for name, matrix in (("u.csv", uniform), ("c0.csv", C0), ("c1.csv", C1)):
            mio.write_matrix(tmp_path / name, matrix)
        assert main(["eval", "--pred", str(tmp_path / "u.csv"), "--test", str(tmp_path / "u.csv"),
                     "--cost-true", str(tmp_path / "c0.csv"),
                     "--cost-pred", str(tmp_path / "c1.csv")]) == EXIT_OK
        bound = json.loads(capsys.readouterr().out)["prediction_error_bound"]
        assert np.isfinite(bound["bound"]) and np.isfinite(bound["observed"])


# Every scalar a config sets, as (section, key), with a value out of its range;
# a grid key stands for one entry of that grid.
_CONFIG_SCALARS = {
    ("hyper", "lam"): 0, ("hyper", "lam_u"): 0, ("hyper", "lam_v"): 0, ("hyper", "delta"): -1,
    ("hyper", "step_size"): 0, ("hyper", "outer_iters"): -1, ("hyper", "sinkhorn_tol"): 0,
    ("hyper", "sinkhorn_max_iters"): 0,
    ("kernel", "gamma"): float("inf"), ("kernel", "c0"): float("-inf"), ("kernel", "degree"): 0,
    (None, "seed"): -1, (None, "side_step"): -1,
    **{("synth", key): 0 for key in ("m", "n", "p", "q", "repetitions")},
    ("synth", "noise_sigma"): -1, ("synth", "sigma_grid"): -1, ("synth", "delta_grid"): -1,
}


class TestConfigInput:
    def test_every_hyper_field_is_tried(self):
        tried = {key for section, key in _CONFIG_SCALARS if section == "hyper"}
        assert tried == {f.name for f in fields(HyperParams)}

    @pytest.mark.parametrize("bad", ["abc", "nan", "true", "out_of_range"])
    @pytest.mark.parametrize("section, key", list(_CONFIG_SCALARS))
    def test_bad_scalar_is_one_input_error(self, workspace, capsys, section, key, bad):
        tmp, paths = workspace
        value = {"abc": "abc", "nan": float("nan"), "true": True,
                 "out_of_range": _CONFIG_SCALARS[section, key]}[bad]
        cfg = {"kernel": {"kind": "polynomial"}}
        (cfg if section is None else cfg.setdefault(section, {}))[key] = (
            [value] if key.endswith("_grid") else value)
        paths["config"].write_text(json.dumps(cfg))
        out = tmp / "nope"
        if key == "side_step":
            args = fit_args(paths, out, extra=["--joint-side-costs"])
        else:
            args = ["simulate", "--figure", "3", "--config", str(paths["config"]),
                    "--out", str(out)]
        assert main(args) == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and key in err[0], err
        assert not out.exists()

    @pytest.mark.parametrize("cfg, keys", [
        ({"hyperr": {"L": 3}, "kernal": {"kind": "linear"}}, ["hyperr", "kernal"]),
        ({"synth": {"m": 4, "sigma": 0.1}}, ["sigma"]),
        ({"synth": {"sigma_grid": 0.5}}, ["sigma_grid"]),
        ({"synth": {"delta_grid": "abc"}}, ["delta_grid"]),
        ({"synth": {"delta_grid": []}}, ["delta_grid"])])
    def test_unknown_key_or_bad_grid_is_one_input_error(self, tmp_path, capsys, cfg, keys):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        args = ["simulate", "--figure", "3", "--config", str(path),
                "--out", str(tmp_path / "nope")]
        assert main(args) == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert all(key in err[0] for key in keys), err
        assert not (tmp_path / "nope").exists()

    def test_config_holding_a_list_is_one_input_error(self, tmp_path, capsys):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps([{"seed": 1}]))
        args = ["simulate", "--figure", "3", "--config", str(path),
                "--out", str(tmp_path / "nope")]
        assert main(args) == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {path}: config must be a JSON object"]
        assert not (tmp_path / "nope").exists()

    @pytest.mark.parametrize("synth", [{"m": 1e300}, {"p": 2 ** 40, "q": 2 ** 40}])
    def test_unaddressable_size_is_one_input_error(self, tmp_path, capsys, synth):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps({"synth": synth}))
        args = ["simulate", "--figure", "3", "--config", str(path),
                "--out", str(tmp_path / "nope")]
        assert main(args) == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "must be at most" in err[0], err
        assert not (tmp_path / "nope").exists()


# The flags each command reads a CSV matrix or vector from.
_CSV_FLAGS = {
    "fit": ("--counts", "--coupling", "--users", "--items", "--cost-u", "--cost-v"),
    "predict": ("--interaction", "--users", "--items", "--mu", "--nu"),
    "eval": ("--pred", "--test", "--cost-true", "--cost-pred"),
}


class TestNonFiniteInput:
    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, flags in _CSV_FLAGS.items() for flag in flags])
    def test_non_finite_entry_names_the_file(self, workspace, capsys, command, flag):
        tmp, paths = workspace
        plan = mio.read_matrix(paths["counts"])
        plan /= plan.sum()
        files = {"--counts": paths["counts"], "--users": paths["users"],
                 "--items": paths["items"], "--cost-u": paths["cost_u"],
                 "--cost-v": paths["cost_v"]}
        for name, arr in (("--coupling", plan), ("--interaction", np.zeros((3, 2))),
                          ("--mu", plan.sum(axis=1)), ("--nu", plan.sum(axis=0)),
                          ("--pred", plan), ("--test", plan),
                          ("--cost-true", np.ones(plan.shape)),
                          ("--cost-pred", np.ones(plan.shape))):
            files[name] = tmp / f"{name[2:]}.csv"
            mio.write_matrix(files[name], np.atleast_2d(arr))
        bad = mio.read_matrix(files[flag])
        bad[-1, -1] = np.inf
        mio.write_matrix(files[flag], bad)

        flags = list(_CSV_FLAGS[command])
        if command == "fit":
            # one matching source: the coupling only when it holds the bad entry
            flags.remove("--counts" if flag == "--coupling" else "--coupling")
        out = tmp / "nope"
        args = [command] + (["--method", "riot"] if command == "fit" else [])
        for f in flags:
            args += [f, str(files[f])]
        assert main(args + ["--out", str(out)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {files[flag]}: non-finite value at line "
                              f"{bad.shape[0]}, column {bad.shape[1]}\n")
        assert not out.exists()


class TestUsageErrors:
    def test_unknown_figure_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--figure", "9", "--out", str(tmp_path / "x")])
        assert exc.value.code == EXIT_INPUT

    def test_conflicting_inputs(self, workspace, capsys):
        tmp, paths = workspace
        args = fit_args(paths, tmp / "x", extra=["--coupling", str(paths["counts"])])
        assert main(args) == EXIT_INPUT
        assert "exactly one" in capsys.readouterr().err

    def test_program_fault_is_its_own_exit_code(self, tmp_path, capsys, monkeypatch):
        def crash(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_simulate", crash)
        assert main(["simulate", "--figure", "3", "--out", str(tmp_path / "x")]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err.startswith("Traceback (most recent call last):\n")
        assert err.endswith("RuntimeError: boom\n")


class _CountingIO:
    """Stand-in for ``otmatch.cli.mio`` that records each path it reads,
    as a tracer's proxy would, and defers to the module for the rest."""

    def __init__(self):
        self.read = []

    def __getattr__(self, name):
        return getattr(mio, name)

    def read_matrix(self, path):
        self.read.append(str(path))
        return mio.read_matrix(path)

    def read_vector(self, path):
        self.read.append(str(path))
        return mio.read_vector(path)


class TestEntryPoint:
    def test_two_calls_build_one_parser(self, tmp_path, capsys, monkeypatch):
        built = []

        class CountingParser(cli._Parser):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("prog"))
                super().__init__(*args, **kwargs)

        mio.write_matrix(tmp_path / "a.csv", np.full((2, 2), 0.25))
        argv = ["eval", "--pred", str(tmp_path / "a.csv"), "--test", str(tmp_path / "a.csv")]
        monkeypatch.setattr(cli, "_Parser", CountingParser)
        cli.build_parser.cache_clear()
        try:
            assert main(argv) == EXIT_OK and main(argv) == EXIT_OK
        finally:
            cli.build_parser.cache_clear()
        assert built.count("otmatch") == 1

    def test_every_input_file_is_read_through_the_module_alias(self, workspace,
                                                              monkeypatch):
        tmp, paths = workspace
        counting = _CountingIO()
        monkeypatch.setattr(cli, "mio", counting)
        out = tmp / "fit"
        assert main(fit_args(paths, out)) == EXIT_OK
        assert sorted(counting.read) == sorted(
            str(paths[key]) for key in ("counts", "users", "items", "cost_u", "cost_v"))

        plan = mio.read_matrix(out / "fitted_plan.csv")
        mio.write_vector(tmp / "mu.csv", plan.sum(axis=1))
        mio.write_vector(tmp / "nu.csv", plan.sum(axis=0))
        predict = {"--interaction": out / "A.csv", "--users": paths["users"],
                   "--items": paths["items"], "--mu": tmp / "mu.csv", "--nu": tmp / "nu.csv"}
        counting.read.clear()
        args = ["predict", "--config", str(paths["config"]), "--out", str(tmp / "p.csv")]
        for flag, path in predict.items():
            args += [flag, str(path)]
        assert main(args) == EXIT_OK
        assert sorted(counting.read) == sorted(map(str, predict.values()))
