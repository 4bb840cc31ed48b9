import json

import numpy as np
import pytest

from otmatch import io as mio
from otmatch.bounds import kl_divergence
from otmatch.cli import EXIT_INPUT, EXIT_OK, EXIT_SOLVER, main
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
    mio.write_matrix(paths["users"], inst.U.features)
    mio.write_matrix(paths["items"], inst.V.features)
    mio.write_matrix(paths["cost_u"], inst.C_u.entries)
    mio.write_matrix(paths["cost_v"], inst.C_v.entries)
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
        assert err.startswith(f"error: {flag}: ")
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

    @pytest.mark.parametrize("cfg, name", [
        ({"synth": [1, 2]}, "synth"), ({"synth": {"hyper": [1, 2]}}, "synth.hyper")])
    def test_config_section_not_an_object_is_input_error(self, tmp_path, capsys, cfg, name):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        args = ["simulate", "--figure", "3", "--config", str(path),
                "--out", str(tmp_path / "nope")]
        assert main(args) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: config section {name!r}")
        assert not (tmp_path / "nope").exists()

    def test_eval_identity(self, tmp_path, capsys):
        plan = np.full((2, 2), 0.25)
        mio.write_matrix(tmp_path / "a.csv", plan)
        assert main(["eval", "--pred", str(tmp_path / "a.csv"),
                     "--test", str(tmp_path / "a.csv")]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report == {"rmse": 0.0, "mae": 0.0, "kl": 0.0}

    def test_eval_shape_mismatch(self, tmp_path, capsys):
        mio.write_matrix(tmp_path / "a.csv", np.full((2, 2), 0.25))
        mio.write_matrix(tmp_path / "b.csv", np.full((1, 4), 0.25))
        assert main(["eval", "--pred", str(tmp_path / "a.csv"),
                     "--test", str(tmp_path / "b.csv")]) == EXIT_INPUT

    def test_eval_with_costs_reports_bounds(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        from otmatch.sinkhorn import sinkhorn
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
