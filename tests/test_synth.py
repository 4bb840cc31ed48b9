import numpy as np
import pytest

from otmatch.containers import HyperParams
from otmatch.errors import ValidationError
from otmatch.kernels import KernelSpec
from otmatch.synth import (SynthConfig, add_noise, cost_recovery_experiment,
                           generate_instance, ground_truth_cost, robustness_sweep)


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
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValidationError):
            small_config(**kwargs)


class TestGenerateInstance:
    def test_shapes_match_config(self):
        cfg = SynthConfig(m=20, n=20, p=10, q=8, seed=1)
        inst = generate_instance(cfg)
        assert inst.U.features.shape == (10, 20)
        assert inst.V.features.shape == (8, 20)
        assert inst.A0.entries.shape == (10, 8)
        assert inst.pi0.shape == (20, 20)
        assert inst.C_u.shape == (20, 20)

    def test_deterministic_per_seed(self):
        a = generate_instance(small_config())
        b = generate_instance(small_config())
        np.testing.assert_array_equal(a.U.features, b.U.features)
        np.testing.assert_array_equal(a.pi0.entries, b.pi0.entries)
        c = generate_instance(small_config(seed=12))
        assert np.abs(a.U.features - c.U.features).max() > 0

    def test_side_costs_are_euclidean_metrics(self):
        inst = generate_instance(small_config())
        cu = inst.C_u.entries
        assert np.abs(np.diag(cu)).max() == 0.0
        np.testing.assert_allclose(cu, cu.T)

    def test_ground_truth_cost_consistent(self):
        cfg = small_config()
        inst = generate_instance(cfg)
        from otmatch.kernels import kernel_cost
        np.testing.assert_array_equal(
            ground_truth_cost(cfg, inst).entries,
            kernel_cost(inst.U, inst.V, inst.A0, cfg.kernel).entries)


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
        C_r = res.C_tilde_riot.entries
        assert cost_shift_distance(res.C_tilde_riot, res.C_tilde_riot) == 0.0
        # aligned copy differs from the truth by exactly d
        assert np.linalg.norm(C_r - res.C0.entries) == pytest.approx(
            res.d_riot, abs=1e-9)
