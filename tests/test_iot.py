import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st
from scipy.special import logsumexp

from otmatch.containers import CouplingMatrix, HyperParams, as_array
from otmatch.errors import (DivergenceError, OtmatchError, RootFindingError,
                            SinkhornConvergenceError, ValidationError)
import otmatch.iot
from otmatch.iot import MAX_HALVINGS, _evaluate_at, _gradient_at, descend, iot_fit
from otmatch.kernels import KernelSpec
from otmatch.transport import sinkhorn
from otmatch.synth import SynthConfig, add_noise, generate_instance
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

    def test_far_quasi_newton_trial_does_not_end_the_fit(self):
        # On this market (found by the property below) a unit quasi-Newton
        # step reaches a cost whose Sinkhorn solve does not converge; the
        # search halves past it and the fit converges.
        inst = forward_instance(3, m=4, n=3, lam=0.1)
        pi_hat = noised(inst["pi0"], inst["rng"], 0.008382009313692856)
        params = hyper(lam=0.1, outer_iters=100)
        result = iot_fit(pi_hat, inst["U"], inst["V"], inst["kern"], params)
        g = gradient(result.A, pi_hat, inst["U"], inst["V"], inst["kern"], params)
        assert np.linalg.norm(g) <= 1e-6

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


def steepest_descent(A, evaluate, gradient, params, steps):
    """Reference fixed-step descent: ``steps`` steps of ``params.step_size``,
    each halved until the objective does not increase. Returns the final
    objective."""
    obj, point = evaluate(A)
    for _ in range(steps):
        grad = gradient(A, point)
        step = params.step_size
        for _ in range(MAX_HALVINGS + 1):
            obj_next, point_next = evaluate(A - step * grad)
            if obj_next <= obj:
                A, obj, point = A - step * grad, obj_next, point_next
                break
            step *= 0.5
    return obj


class TestIotConvergence:
    """The fit stops on its gradient tolerance, not on its step budget, at the
    synth defaults (m = n = 20, lam = 1, step size 10)."""

    @pytest.mark.parametrize("sigma", [0.0, 1e-3, 8e-3])
    @pytest.mark.parametrize("seed", range(3))
    def test_reaches_gradient_tolerance_within_200_evaluations(self, seed, sigma,
                                                               monkeypatch):
        cfg = SynthConfig(seed=seed, noise_sigma=sigma)
        inst = generate_instance(cfg)
        pi_hat = add_noise(inst.pi0, sigma, seed)
        solves = []
        model_plan = otmatch.iot._model_plan
        monkeypatch.setattr(otmatch.iot, "_model_plan",
                            lambda *args: solves.append(1) or model_plan(*args))
        params = HyperParams(outer_iters=200)
        result = iot_fit(pi_hat, inst.U, inst.V, cfg.kernel, params)
        assert len(solves) <= 200
        g = gradient(result.A, pi_hat, inst.U, inst.V, cfg.kernel, params)
        assert np.linalg.norm(g) <= 1e-6

    def test_no_worse_than_3000_steepest_descent_steps(self):
        cfg = SynthConfig(seed=0, noise_sigma=1e-3)
        inst = generate_instance(cfg)
        pi_hat = add_noise(inst.pi0, cfg.noise_sigma, 0).entries
        params = HyperParams(outer_iters=200)
        data = dict(pi_hat=pi_hat, U=inst.U, V=inst.V, kern=cfg.kernel, params=params)
        reference = steepest_descent(
            np.zeros((cfg.p, cfg.q)), lambda A: evaluate(A, **data),
            lambda A, pi: _gradient_at(A, pi, pi_hat, inst.U, inst.V, cfg.kernel, params),
            params, 3000)
        result = iot_fit(pi_hat, inst.U, inst.V, cfg.kernel, params)
        assert evaluate(result.A, **data)[0] <= reference + 1e-7


@st.composite
def small_markets(draw):
    """A kernel market with m, n in [2, 6], noise sigma in [0, 1e-2] and
    lam in [0.1, 10]."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    m, n = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    sigma = draw(st.floats(0.0, 1e-2))
    lam = draw(st.floats(0.1, 10.0))
    inst = forward_instance(seed, m=m, n=n, lam=lam)
    return inst, noised(inst["pi0"], inst["rng"], sigma), lam


@settings(max_examples=100)
@given(small_markets())
def test_iot_fit_converges_or_uses_its_budget(market):
    """A fit returns a non-increasing finite trace and a plan at the empirical
    marginals, and stops at the gradient tolerance or its step cap. It raises
    only a typed error from a steepest-descent trial, which the fixed-step
    descent of the same market raises too; a quasi-Newton trial whose
    evaluation fails is rejected."""
    inst, pi_hat, lam = market
    params = hyper(lam=lam, outer_iters=100)
    try:
        result = iot_fit(pi_hat, inst["U"], inst["V"], inst["kern"], params)
    except OtmatchError as err:
        event(f"raised {type(err).__name__}")
        data = dict(pi_hat=pi_hat, U=inst["U"], V=inst["V"], kern=inst["kern"],
                    params=params)
        with pytest.raises(type(err)):
            steepest_descent(
                np.zeros((inst["U"].shape[0], inst["V"].shape[0])),
                lambda A: evaluate(A, **data),
                lambda A, pi: _gradient_at(A, pi, pi_hat.entries, inst["U"], inst["V"],
                                           inst["kern"], params),
                params, params.outer_iters)
        return
    event("returned")
    trace = result.objective_trace
    assert np.all(np.isfinite(trace)) and np.all(np.diff(trace) <= 0)
    fitted, p = result.fitted_plan.entries, pi_hat.entries
    np.testing.assert_allclose(fitted.sum(1), p.sum(1), rtol=0, atol=1e-8)
    np.testing.assert_allclose(fitted.sum(0), p.sum(0), rtol=0, atol=1e-8)
    g = gradient(result.A, pi_hat, inst["U"], inst["V"], inst["kern"], params)
    assert np.linalg.norm(g) <= 1e-6 or result.iterations == params.outer_iters


class TestDescend:
    """The shared driver on the stub objective ||A - 1||^2 over 1-by-1 A."""

    @staticmethod
    def evaluate(A):
        return float(((A - 1.0) ** 2).sum()), None

    @staticmethod
    def gradient(A, point):
        return 2.0 * (A - 1.0)

    def test_returns_best_iterate(self):
        # A penalty of 0.1 per refresh makes the objective 1, .35, .2625;
        # then no trial beats .2625 under the larger penalty, and the
        # re-evaluated current iterate reads .3625, .4625: the best is the
        # second step.
        refreshes = []

        def evaluate(A):
            return self.evaluate(A)[0] + 0.1 * len(refreshes), None

        params = hyper(step_size=0.25, outer_iters=4)
        (obj, A, _), trace, steps = descend(np.zeros((1, 1)), evaluate, self.gradient,
                                            params, refreshes.append)
        assert steps == 4 and len(trace) == 5 and len(refreshes) == 4
        assert obj == min(trace) == trace[2] < trace[-1]
        np.testing.assert_allclose(A, 0.75)

    def test_keeps_current_point_when_no_halving_decreases(self):
        evaluations = []

        def evaluate(A):
            evaluations.append(A)
            return self.evaluate(A)

        params = hyper(step_size=0.25, outer_iters=2)
        # An ascent direction: every trial step increases the objective. With
        # an empty memory and nothing to refresh, the same search would fail
        # again, so the loop ends after one.
        (obj, A, _), trace, steps = descend(np.zeros((1, 1)), evaluate,
                                            lambda A, p: -self.gradient(A, p), params)
        assert steps == 0
        assert trace == [1.0] and obj == 1.0
        np.testing.assert_array_equal(A, 0.0)
        assert len(evaluations) == 1 + (MAX_HALVINGS + 1)

    def test_failed_search_is_retried_after_a_refresh(self):
        evaluations = []

        def evaluate(A):
            evaluations.append(A)
            return self.evaluate(A)

        refreshes = []
        params = hyper(step_size=0.25, outer_iters=2)
        (obj, A, _), trace, steps = descend(np.zeros((1, 1)), evaluate,
                                            lambda A, p: -self.gradient(A, p), params,
                                            refreshes.append)
        assert steps == 2 and len(refreshes) == 2
        assert trace == [1.0, 1.0, 1.0] and obj == 1.0
        np.testing.assert_array_equal(A, 0.0)
        # Each failed search re-evaluates the current iterate once.
        assert len(evaluations) == 1 + 2 * (MAX_HALVINGS + 2)

    def test_failed_search_with_memory_clears_it_and_keeps_the_point(self):
        evaluations = []

        def evaluate(A):
            evaluations.append(A)
            return self.evaluate(A)

        def gradient(A, point):
            # True at A = 0, reversed afterwards: the stored pair has
            # s'y = 1.5 > 0, yet the direction it builds is one of ascent.
            return self.gradient(A, point) * (1.0 if A[0, 0] == 0.0 else -1.0)

        params = hyper(step_size=0.25, outer_iters=10)
        (obj, A, _), trace, steps = descend(np.zeros((1, 1)), evaluate, gradient, params)
        # One accepted step to 0.5, a failed quasi-Newton search that counts
        # as a step, then a failed steepest-descent search that ends the loop.
        assert steps == 2
        assert trace == [1.0, 0.25, 0.25] and obj == 0.25
        np.testing.assert_array_equal(A, 0.5)
        assert len(evaluations) == 2 + 2 * (MAX_HALVINGS + 1)

    def test_quasi_newton_trial_whose_solve_fails_is_halved(self):
        failures = []

        def evaluate(A):
            if A[0, 0] >= 1.0:
                failures.append(A)
                raise SinkhornConvergenceError("no convergence")
            return self.evaluate(A)

        # On a quadratic every unit quasi-Newton step lands on the minimum 1,
        # where the solve fails; the search halves to the midpoint instead.
        (obj, A, _), trace, steps = descend(np.zeros((1, 1)), evaluate, self.gradient,
                                            hyper(step_size=0.25, outer_iters=100))
        assert A[0, 0] < 1.0 and np.linalg.norm(self.gradient(A, None)) <= 1e-6
        assert len(failures) == steps - 1

    @pytest.mark.parametrize("error", [SinkhornConvergenceError, ValidationError,
                                       RootFindingError])
    def test_failed_trial_after_a_quasi_newton_step_is_rejected(self, error):
        # From 0.5 every trial beyond 0.5 fails: the quasi-Newton search
        # fails and clears the memory, the steepest-descent search after it
        # fails too, and the loop ends at 0.5 instead of raising.
        def evaluate(A):
            if A[0, 0] > 0.5:
                raise error("no evaluation here")
            return self.evaluate(A)

        (obj, A, _), trace, steps = descend(np.zeros((1, 1)), evaluate, self.gradient,
                                            hyper(step_size=0.25, outer_iters=100))
        np.testing.assert_array_equal(A, 0.5)
        assert trace == [1.0, 0.25, 0.25] and steps == 2

    def test_gradient_trial_whose_solve_fails_raises(self):
        def evaluate(A):
            if A[0, 0] > 0.5:
                raise SinkhornConvergenceError("no convergence")
            return self.evaluate(A)

        with pytest.raises(SinkhornConvergenceError):
            descend(np.zeros((1, 1)), evaluate, self.gradient, hyper(step_size=4.0))

    def test_stops_on_vanishing_gradient(self):
        _, trace, steps = descend(np.ones((1, 1)), self.evaluate, self.gradient,
                                  hyper(outer_iters=5))
        assert steps == 0 and trace == [0.0]

    def test_refreshed_fit_keeps_the_tight_gradient_exit(self):
        # A gradient norm of 2e-8 stops a fit with a fixed function but not
        # one that refreshes its other blocks after every step.
        A0 = np.full((1, 1), 1.0 + 1e-8)
        params = hyper(step_size=0.25, outer_iters=3)
        assert descend(A0, self.evaluate, self.gradient, params)[2] == 0
        refreshed = descend(A0, self.evaluate, self.gradient, params, lambda point: None)
        assert refreshed[2] == 3

    def test_non_finite_objective_raises_with_trace(self):
        # The second refresh makes every objective infinite: its search
        # fails, and the re-evaluated current iterate is not finite.
        refreshes = []

        def evaluate(A):
            return (np.inf if len(refreshes) >= 2 else self.evaluate(A)[0]), None

        params = hyper(step_size=0.25, outer_iters=5)
        with pytest.raises(DivergenceError) as err:
            descend(np.zeros((1, 1)), evaluate, self.gradient, params, refreshes.append)
        assert err.value.trace == [1.0, 0.25]


class TestDescendIllConditioned:
    """The driver on ||D (A - 1)||^2 over 1-by-2 A with D = diag(1, 30)."""

    D = np.array([[1.0, 30.0]])

    def evaluate(self, A):
        return float(((self.D * (A - 1.0)) ** 2).sum()), None

    def gradient(self, A, point):
        return 2.0 * self.D ** 2 * (A - 1.0)

    def test_reaches_the_gradient_tolerance_in_few_evaluations(self):
        # Steepest descent with halving is still at a gradient norm of 0.39
        # after 1000 steps from here.
        evaluations = []

        def evaluate(A):
            evaluations.append(A)
            return self.evaluate(A)

        (obj, A, _), trace, steps = descend(np.zeros((1, 2)), evaluate, self.gradient,
                                            hyper(step_size=0.25, outer_iters=1000))
        assert np.linalg.norm(self.gradient(A, None)) <= 1e-6
        assert len(evaluations) <= 30
        assert obj == trace[-1] and np.all(np.diff(trace) <= 0)

    def test_refresh_keeps_steepest_descent_bit_for_bit(self):
        # A refresh stores no curvature pair, so every accepted iterate is
        # A - step_size 2^-h grad(A) for some number h of halvings. The point
        # is the iterate itself, so the refreshes see the path.
        params = hyper(step_size=0.25, outer_iters=21)
        path = []

        def evaluate(A):
            return self.evaluate(A)[0], A

        descend(np.zeros((1, 2)), evaluate, self.gradient, params, path.append)
        assert len(path) == 21
        halvings = set()
        for A, A_next in zip(path, path[1:]):
            grad = self.gradient(A, None)
            h = next(h for h in range(MAX_HALVINGS + 1)
                     if np.array_equal(A_next, A - params.step_size * 0.5 ** h * grad))
            halvings.add(h)
        # The path needs halvings, so a quasi-Newton step would leave it.
        assert max(halvings) > 0

