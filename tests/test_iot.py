import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

from otmatch.containers import CouplingMatrix, HyperParams, as_array
from otmatch.errors import DivergenceError
from otmatch.iot import MAX_HALVINGS, _evaluate_at, _gradient_at, descend, iot_fit
from otmatch.kernels import KernelSpec
from otmatch.sinkhorn import sinkhorn
from otmatch.synth import SynthConfig, generate_instance
from otmatch.bounds import kl_divergence

from conftest import forward_instance, noised, peak_arrays, poly_kernel


def hyper(**kwargs):
    base = dict(lam=1.0, step_size=10.0, outer_iters=40)
    base.update(kwargs)
    return HyperParams(**base)


def evaluate(A, pi_hat, U, V, kern, params):
    """The fit's (objective, plan) at A."""
    pi_hat = as_array(pi_hat)
    return _evaluate_at(A, pi_hat, pi_hat.sum(1), pi_hat.sum(0), U, V, kern, params)


def gradient(A, pi_hat, U, V, kern, params):
    """The fit's gradient at A, from the plan of :func:`evaluate`."""
    pi = evaluate(A, pi_hat, U, V, kern, params)[1]
    return _gradient_at(A, pi, as_array(pi_hat), U, V, kern, params)


class TestIotObjective:
    def test_one_by_one_zero(self):
        inst = forward_instance(0, m=1, n=1, p=1, q=1)
        val, _ = evaluate(np.zeros((1, 1)), inst["pi0"], inst["U"], inst["V"],
                          inst["kern"], hyper())
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_hand_value_against_model_plan(self):
        # pihat uniform against a plan with entries .4/.1/.1/.4
        pi_hat = np.full((2, 2), 0.25)
        plan = np.array([[0.4, 0.1], [0.1, 0.4]])
        expected = -(pi_hat * np.log(plan)).sum()
        assert expected == pytest.approx(1.60944, abs=1e-5)

    def test_self_consistency_equals_plan_cross_entropy(self):
        inst = forward_instance(1)
        params = hyper()
        val, _ = evaluate(inst["A0"], inst["pi0"], inst["U"], inst["V"],
                          inst["kern"], params)
        p = inst["pi0"].entries
        assert val == pytest.approx(-(p * np.log(p)).sum(), abs=1e-7)

    def test_equals_cross_entropy_of_its_own_plan(self):
        inst = forward_instance(8, m=7, n=6)
        pi_hat = noised(inst["pi0"], inst["rng"], 5e-3)
        val, plan = evaluate(0.5 * inst["A0"], pi_hat, inst["U"], inst["V"],
                             inst["kern"], hyper())
        expected = -(pi_hat.entries * np.log(plan)).sum()
        assert val == pytest.approx(expected, rel=1e-12)

    def test_underflowed_plan_entry_scores_its_log_space_value(self, rng):
        # identity features make C = A; exp(-lam C_00) underflows to zero
        # while pihat_00 > 0, so the plan has an exact zero there
        lam = 2.0
        C = rng.uniform(0.0, 1.0, (3, 3))
        C[0, 0] = 400.0
        pi_hat = rng.dirichlet(np.ones(9)).reshape(3, 3)
        val, plan = evaluate(C, pi_hat, np.eye(3), np.eye(3), KernelSpec("linear"),
                             hyper(lam=lam, sinkhorn_tol=1e-13))
        assert plan[0, 0] == 0.0
        # oracle: log-domain Sinkhorn at the same marginals
        log_mu, log_nu = np.log(pi_hat.sum(1)), np.log(pi_hat.sum(0))
        f, g = np.zeros(3), np.zeros(3)
        for _ in range(500):
            g = log_nu - logsumexp(f[:, None] - lam * C, axis=0)
            f = log_mu - logsumexp(g[None, :] - lam * C, axis=1)
        expected = -(pi_hat * (f[:, None] - lam * C + g[None, :])).sum()
        assert np.isfinite(val)
        assert val == pytest.approx(expected, rel=1e-10)


class TestIotGradient:
    def test_stationary_at_ground_truth(self):
        inst = forward_instance(2)
        g = gradient(inst["A0"], inst["pi0"], inst["U"], inst["V"],
                     inst["kern"], hyper())
        assert np.linalg.norm(g) <= 1e-6

    def test_constant_cost_degenerate_kernel(self, rng):
        U = np.zeros((2, 3))
        V = rng.normal(0, 1, (2, 4))
        pi_hat = rng.dirichlet(np.ones(12)).reshape(3, 4)
        g = gradient(rng.normal(0, 1, (2, 2)), pi_hat, U, V,
                     KernelSpec("linear"), hyper())
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_finite_differences(self, seed):
        inst = forward_instance(100 + seed, m=4, n=4, p=2, q=2)
        params = hyper(sinkhorn_tol=1e-12)
        pi_hat = noised(inst["pi0"], inst["rng"], 2e-3)
        A = inst["rng"].normal(0, 0.3, (2, 2))
        g = gradient(A, pi_hat, inst["U"], inst["V"], inst["kern"], params)
        h = 1e-6
        fd = np.zeros_like(A)
        for i in range(2):
            for j in range(2):
                dA = np.zeros_like(A)
                dA[i, j] = h
                fd[i, j] = (evaluate(A + dA, pi_hat, inst["U"], inst["V"],
                                     inst["kern"], params)[0]
                            - evaluate(A - dA, pi_hat, inst["U"], inst["V"],
                                       inst["kern"], params)[0]) / (2 * h)
        assert np.abs(g - fd).max() / max(np.abs(fd).max(), 1e-12) <= 1e-4


@pytest.fixture(scope="module")
def market_300():
    inst = forward_instance(12, m=300, n=300, p=3, q=2)
    pi_hat = noised(inst["pi0"], inst["rng"], 1e-5).entries
    return inst, pi_hat, 0.5 * inst["A0"]


class TestIotMemory:
    """Peaks in units of one 300-by-300 float array. An evaluation holds the
    cost, the kernel exp(-lam C) that becomes the plan, and the plan's
    validated copy; a gradient holds its weights and one Gram product."""

    def test_evaluate_peaks_below_three_and_a_half_arrays(self, market_300):
        inst, pi_hat, A = market_300
        peak = peak_arrays(lambda: evaluate(A, pi_hat, inst["U"], inst["V"], inst["kern"],
                                            hyper()), pi_hat.shape)
        assert peak <= 3.5

    def test_gradient_peaks_below_three_and_a_half_arrays(self, market_300):
        inst, pi_hat, A = market_300
        pi = evaluate(A, pi_hat, inst["U"], inst["V"], inst["kern"], hyper())[1]
        peak = peak_arrays(lambda: _gradient_at(A, pi, pi_hat, inst["U"], inst["V"],
                                                inst["kern"], hyper()), pi_hat.shape)
        assert peak <= 3.5


class TestIotFit:
    def test_noise_free_recovery(self):
        inst = forward_instance(3, m=4, n=4, p=2, q=2)
        result = iot_fit(inst["pi0"], inst["U"], inst["V"], inst["kern"],
                         hyper(outer_iters=500))
        assert kl_divergence(inst["pi0"], result.fitted_plan) <= 1e-4

    def test_zero_iterations_is_noop(self):
        inst = forward_instance(4)
        result = iot_fit(inst["pi0"], inst["U"], inst["V"], inst["kern"],
                         hyper(outer_iters=0))
        np.testing.assert_allclose(result.A, 0.0)
        assert result.iterations == 0
        assert result.objective_trace.size == 1

    def test_fixed_marginal_property(self):
        inst = forward_instance(5, m=6, n=7, p=3, q=2)
        pi_hat = noised(inst["pi0"], inst["rng"], 8e-3)
        result = iot_fit(pi_hat, inst["U"], inst["V"], inst["kern"], hyper())
        fitted = result.fitted_plan.entries
        np.testing.assert_allclose(fitted.sum(1), pi_hat.entries.sum(1), atol=1e-8)
        np.testing.assert_allclose(fitted.sum(0), pi_hat.entries.sum(0), atol=1e-8)

    def test_trace_monotone_within_slack(self):
        inst = forward_instance(6)
        pi_hat = noised(inst["pi0"], inst["rng"], 5e-3)
        result = iot_fit(pi_hat, inst["U"], inst["V"], inst["kern"], hyper())
        trace = result.objective_trace
        assert np.all(np.diff(trace) <= 1e-6)
        assert np.all(np.isfinite(trace))

    def test_fitted_plan_matches_sinkhorn_of_A(self):
        inst = forward_instance(7)
        pi_hat = noised(inst["pi0"], inst["rng"], 5e-3)
        params = hyper()
        result = iot_fit(pi_hat, inst["U"], inst["V"], inst["kern"], params)
        from otmatch.kernels import kernel_cost
        C = kernel_cost(inst["U"], inst["V"], result.A, inst["kern"])
        redo = sinkhorn(C, pi_hat.entries.sum(1), pi_hat.entries.sum(0), params.lam,
                        tol=params.sinkhorn_tol).plan
        np.testing.assert_allclose(result.fitted_plan.entries, redo.entries, atol=1e-9)

    def test_large_lam_trial_plans_with_zeros_do_not_warn(self):
        # at lam = 50 some backtracking trials have plan entries that
        # underflow to zero under pihat > 0; the likelihood is read from the
        # log-potentials, so no log of zero is taken and every trial is finite
        cfg = SynthConfig()
        inst = generate_instance(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = iot_fit(inst.pi0, inst.U, inst.V, cfg.kernel,
                             HyperParams(lam=50.0, outer_iters=5))
        assert np.all(np.isfinite(result.objective_trace))


class TestDescend:
    """The shared driver on the stub objective ||A - 1||^2 over 1-by-1 A."""

    @staticmethod
    def evaluate(A):
        return float(((A - 1.0) ** 2).sum()), None

    @staticmethod
    def gradient(A, point):
        return 2.0 * (A - 1.0)

    def test_returns_best_iterate(self):
        # A penalty that grows with every step makes the re-evaluated
        # objective 1, .35, .2625, .3156, ...: the best is the second step.
        calls = []

        def after_step(A, point):
            calls.append(A)
            return self.evaluate(A)[0] + 0.1 * len(calls), None

        params = hyper(step_size=0.25, outer_iters=4)
        (obj, A, _), trace, steps = descend(np.zeros((1, 1)), self.evaluate,
                                            self.gradient, params, after_step)
        assert steps == 4 and len(trace) == 5
        assert obj == min(trace) == trace[2] < trace[-1]
        np.testing.assert_allclose(A, 0.75)

    def test_keeps_current_point_when_no_halving_decreases(self):
        evaluations = []

        def evaluate(A):
            evaluations.append(A)
            return self.evaluate(A)

        params = hyper(step_size=0.25, outer_iters=2)
        # An ascent direction: every trial step increases the objective.
        (obj, A, _), trace, steps = descend(np.zeros((1, 1)), evaluate,
                                            lambda A, p: -self.gradient(A, p), params)
        assert steps == 2
        assert trace == [1.0, 1.0, 1.0] and obj == 1.0
        np.testing.assert_array_equal(A, 0.0)
        assert len(evaluations) == 1 + 2 * (MAX_HALVINGS + 1)

    def test_stops_on_vanishing_gradient(self):
        _, trace, steps = descend(np.ones((1, 1)), self.evaluate, self.gradient,
                                  hyper(outer_iters=5))
        assert steps == 0 and trace == [0.0]

    def test_non_finite_objective_raises_with_trace(self):
        def after_step(A, point):
            return (np.inf if A[0, 0] > 0.6 else self.evaluate(A)[0]), None

        params = hyper(step_size=0.25, outer_iters=5)
        with pytest.raises(DivergenceError) as err:
            descend(np.zeros((1, 1)), self.evaluate, self.gradient, params, after_step)
        assert err.value.trace == [1.0, 0.25]
