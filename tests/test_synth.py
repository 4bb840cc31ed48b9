import concurrent.futures

import numpy as np
import pytest

import otmatch.synth as synth
from otmatch.containers import HyperParams
from otmatch.errors import SinkhornConvergenceError, ValidationError
from otmatch.kernels import KernelSpec
from otmatch.synth import (SynthConfig, add_noise, cost_recovery_experiment,
                           generate_instance, robustness_sweep)


def small_config(**kwargs):
    base = dict(m=5, n=4, p=3, q=2, seed=11,
                hyper=HyperParams(step_size=10.0, outer_iters=6),
                sigma_grid=(1e-3,), delta_grid=(0.01,), repetitions=1)
    base.update(kwargs)
    return SynthConfig(**base)


class TestSynthConfig:
    def test_defaults_match_reference_protocol(self):
        cfg = SynthConfig()
        assert (cfg.m, cfg.n, cfg.p, cfg.q) == (20, 20, 10, 8)
        assert cfg.kernel == KernelSpec("polynomial", gamma=0.05, c0=1.0, degree=2)
        assert len(cfg.sigma_grid) == 8
        assert cfg.sigma_grid[-1] == pytest.approx(0.5)

    @pytest.mark.parametrize("kwargs", [
        {"m": 0}, {"repetitions": 0}, {"sigma_grid": ()}, {"noise_sigma": -0.1},
        {"m": 2.5}, {"q": "3"}, {"p": True}, {"repetitions": 1.5},
        {"repetitions": float("nan")}, {"seed": -1}, {"seed": 0.5}, {"seed": False},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValidationError):
            small_config(**kwargs)

    def test_integral_floats_become_ints(self):
        cfg = small_config(m=5.0, repetitions=2.0, seed=np.int64(3))
        assert (cfg.m, cfg.repetitions, cfg.seed) == (5, 2, 3)
        assert all(type(v) is int for v in (cfg.m, cfg.repetitions, cfg.seed))


class TestGenerateInstance:
    def test_shapes_match_config(self):
        cfg = SynthConfig(m=20, n=20, p=10, q=8, seed=1)
        inst = generate_instance(cfg)
        assert inst.U.shape == (10, 20)
        assert inst.V.shape == (8, 20)
        assert inst.A0.shape == (10, 8)
        assert inst.pi0.shape == (20, 20)
        assert inst.C_u.shape == (20, 20)

    def test_deterministic_per_seed(self):
        a = generate_instance(small_config())
        b = generate_instance(small_config())
        np.testing.assert_array_equal(a.U, b.U)
        np.testing.assert_array_equal(a.pi0.entries, b.pi0.entries)
        c = generate_instance(small_config(seed=12))
        assert np.abs(a.U - c.U).max() > 0

    def test_side_costs_are_euclidean_metrics(self):
        inst = generate_instance(small_config())
        cu = inst.C_u
        assert np.abs(np.diag(cu)).max() == 0.0
        np.testing.assert_allclose(cu, cu.T)

    def test_failed_solve_propagates_after_one_call(self, monkeypatch):
        # one draw, never re-drawn: the forward solve's own error reaches the caller
        calls = []

        def always_fails(*args, **kwargs):
            calls.append(args)
            raise SinkhornConvergenceError("no convergence", iterations=1)

        monkeypatch.setattr(synth, "sinkhorn", always_fails)
        with pytest.raises(SinkhornConvergenceError, match="no convergence"):
            generate_instance(small_config())
        assert len(calls) == 1


class TestAddNoise:
    def test_sigma_zero_identity(self):
        inst = generate_instance(small_config())
        out = add_noise(inst.pi0, 0.0, 7)
        np.testing.assert_array_equal(out.entries, inst.pi0.entries)

    def test_noise_structure(self):
        inst = generate_instance(small_config())
        out = add_noise(inst.pi0, 5e-3, 7)
        assert out.entries.sum() == pytest.approx(1.0)
        # (pi0 + |eps|) / S dominates pi0 / S entrywise for the common S
        scale = (out.entries / inst.pi0.entries).min()
        assert np.all(out.entries >= inst.pi0.entries * scale - 1e-15)

    def test_deterministic_per_seed(self):
        inst = generate_instance(small_config())
        a = add_noise(inst.pi0, 1e-3, 42)
        b = add_noise(inst.pi0, 1e-3, 42)
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_noise_monotone_in_sigma(self):
        from otmatch.bounds import kl_divergence
        inst = generate_instance(small_config())
        kls = []
        for sigma in (1e-4, 1e-3, 1e-2, 1e-1):
            vals = [kl_divergence(inst.pi0, add_noise(inst.pi0, sigma, s))
                    for s in range(20)]
            kls.append(np.mean(vals))
        inversions = sum(a > b for a, b in zip(kls, kls[1:]))
        assert inversions <= 1


class TestRobustnessSweep:
    def test_single_cell_bookkeeping(self):
        res = robustness_sweep(small_config())
        assert len(res.records) == 1
        rec = res.records[0]
        assert rec.rep == 0 and not rec.failed
        for val in (rec.kl_riot, rec.kl_iot, rec.kl_hat):
            assert np.isfinite(val) and val >= 0
        (agg,) = res.aggregates
        assert (agg["sigma"], agg["delta"]) == (1e-3, 0.01)
        assert agg["n"] == 1 and agg["n_failed"] == 0 and not agg["incomplete"]

    def test_sigma_zero_baseline(self):
        res = robustness_sweep(small_config(sigma_grid=(0.0,)))
        assert res.records[0].kl_hat == 0.0

    def test_parallel_matches_serial(self):
        cfg = small_config(sigma_grid=(1e-3, 1e-2), repetitions=2)
        serial = robustness_sweep(cfg, max_workers=1)
        parallel = robustness_sweep(cfg, max_workers=2)
        assert serial.records == parallel.records
        assert serial.aggregates == parallel.aggregates

    def test_pool_is_capped_at_the_cell_count(self, monkeypatch):
        sizes = []

        class InProcessPool:
            """Records the pool size it is asked for and maps in this process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        cfg = small_config(delta_grid=(0.01, 0.1))
        assert robustness_sweep(cfg, max_workers=64).records == robustness_sweep(cfg).records
        assert sizes == [2]
        robustness_sweep(small_config(), max_workers=8)
        assert sizes == [2]

    def test_repeated_grid_value_is_counted_once_per_cell(self):
        cfg = SynthConfig(m=5, n=5, p=3, q=2, sigma_grid=(1e-3, 1e-3), delta_grid=(0.01,),
                          hyper=HyperParams(outer_iters=2))
        res = robustness_sweep(cfg)
        assert len(res.records) == 2
        assert [agg["n"] for agg in res.aggregates] == [1, 1]
        for agg, rec in zip(res.aggregates, res.records):
            assert agg["mean_kl_hat"] == rec.kl_hat and agg["std_kl_hat"] == 0.0

    def test_failed_fit_marks_only_its_cell(self, monkeypatch):
        cfg = small_config(delta_grid=(0.01, 0.1), repetitions=2)
        baseline = robustness_sweep(cfg)
        fit = synth.riot_fit

        def fails_at_large_delta(pi_hat, U, V, kernel, C_u, C_v, params):
            if params.delta == 0.1:
                raise SinkhornConvergenceError("no convergence", iterations=1)
            return fit(pi_hat, U, V, kernel, C_u, C_v, params)

        monkeypatch.setattr(synth, "riot_fit", fails_at_large_delta)
        res = robustness_sweep(cfg)
        for rec, base in zip(res.records, baseline.records):
            if rec.delta == 0.1:
                assert rec.failed and np.isnan(rec.kl_riot) and np.isnan(rec.kl_iot)
            else:
                assert rec == base
        ok, failed = res.aggregates
        assert ok == baseline.aggregates[0]
        assert failed["n_failed"] == failed["n"] == 2 and failed["incomplete"]
        assert np.isnan(failed["mean_kl_riot"]) and np.isnan(failed["mean_kl_hat"])

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_fewer_than_one_worker(self, workers):
        with pytest.raises(ValidationError, match="max_workers"):
            robustness_sweep(small_config(), max_workers=workers)


class TestCostRecoveryExperiment:
    def test_noise_free_recovery(self):
        cfg = small_config(
            m=6, n=6, p=3, q=2, noise_sigma=0.0, delta_grid=(1e-4,),
            hyper=HyperParams(step_size=50.0, outer_iters=300))
        res = cost_recovery_experiment(cfg)
        assert res.d_riot <= 1e-2

    def test_alignment_is_shift_exact(self):
        from otmatch.bounds import cost_shift_distance
        cfg = small_config(noise_sigma=5e-3,
                           hyper=HyperParams(step_size=5.0, outer_iters=4))
        res = cost_recovery_experiment(cfg)
        C_r = res.C_tilde_riot
        assert cost_shift_distance(res.C_tilde_riot, res.C_tilde_riot) == 0.0
        # aligned copy differs from the truth by exactly d
        assert np.linalg.norm(C_r - res.C0) == pytest.approx(
            res.d_riot, abs=1e-9)

    def test_plans_are_those_of_the_fits_it_scores(self):
        from dataclasses import replace

        from otmatch.bounds import kl_divergence
        from otmatch.iot import iot_fit
        cfg = small_config(noise_sigma=5e-3)
        res = cost_recovery_experiment(cfg)
        inst = generate_instance(cfg)
        np.testing.assert_array_equal(res.pi0.entries, inst.pi0.entries)
        for name in ("hat", "riot", "iot"):
            assert getattr(res, f"kl_{name}") == kl_divergence(res.pi0, getattr(res, f"pi_{name}"))
        # The plan of the IOT fit whose cost the experiment scores: the
        # converged fit, not one at the configured step budget.
        converged = iot_fit(res.pi_hat, inst.U, inst.V, cfg.kernel,
                            replace(cfg.hyper, **synth.IOT_CONVERGED_BUDGET))
        np.testing.assert_array_equal(res.pi_iot.entries, converged.fitted_plan.entries)
