import itertools

import numpy as np
import pytest

from otmatch.containers import CostMatrix, HyperParams
from otmatch.errors import ValidationError
from otmatch.joint import joint_fit, project_metric_simplex
from otmatch.riot import _relaxation_dual, riot_fit
from otmatch.sinkhorn import rot_distance

from conftest import euclidean_cost, forward_instance, noised, random_marginal


def all_triangle_violations(d):
    """Exhaustive max violation over every ordered triple."""
    n = d.shape[0]
    worst = -np.inf
    for i, j, k in itertools.product(range(n), repeat=3):
        if len({i, j, k}) == 3:
            worst = max(worst, d[i, j] - d[i, k] - d[k, j])
    return worst


def feasible_metric_simplex_point(rng, d):
    base = euclidean_cost(rng, d)
    return base / base.sum()


class TestProjectMetricSimplex:
    def test_fixed_point(self, rng):
        x = feasible_metric_simplex_point(rng, 4)
        out = project_metric_simplex(x).entries
        np.testing.assert_allclose(out, x, atol=1e-10)

    def test_zeros_project_to_uniform(self):
        out = project_metric_simplex(np.zeros((3, 3))).entries
        expected = np.full((3, 3), 1.0 / 6.0)
        np.fill_diagonal(expected, 0.0)
        np.testing.assert_allclose(out, expected, atol=1e-9)

    def test_random_input_feasible(self, rng):
        raw = np.abs(rng.normal(0, 1, (4, 4)))
        raw = 0.5 * (raw + raw.T)
        np.fill_diagonal(raw, 0.0)
        out = project_metric_simplex(raw).entries
        assert all_triangle_violations(out) <= 1e-7
        assert out.sum() == pytest.approx(1.0, abs=1e-7)
        assert np.abs(out - out.T).max() <= 1e-12
        assert np.abs(np.diag(out)).max() == 0.0

    def test_idempotence(self, rng):
        raw = np.abs(rng.normal(0, 1, (5, 5)))
        once = project_metric_simplex(raw).entries
        twice = project_metric_simplex(once).entries
        np.testing.assert_allclose(twice, once, atol=1e-9)

    def test_sum_only_violation_matches_simplex_projection(self, rng):
        # scaled-down metric point: the nearest feasible point only adds a
        # uniform shift, which stays a metric, so the simplex projection of
        # the off-diagonals is the full projection
        x = 0.5 * feasible_metric_simplex_point(rng, 4)
        out = project_metric_simplex(x).entries
        iu = np.triu_indices(4, k=1)
        vec = x[iu]
        tau = (vec.sum() - 0.5) / vec.size
        expected_vec = vec - tau
        expected = np.zeros((4, 4))
        expected[iu] = expected_vec
        expected += expected.T
        np.testing.assert_allclose(out, expected, atol=1e-8)

    def test_asymmetric_input_symmetrized(self, rng):
        raw = np.abs(rng.normal(0, 1, (4, 4)))
        out = project_metric_simplex(raw).entries
        sym = project_metric_simplex(0.5 * (raw + raw.T)).entries
        np.testing.assert_allclose(out, sym, atol=1e-12)


class TestSideCostGradient:
    """The side-cost gradient of a relaxation term is delta times the plan
    :func:`_relaxation_dual` returns with its value."""

    def test_coupling_structure(self, rng):
        mu = random_marginal(rng, 4)
        C_u = feasible_metric_simplex_point(rng, 4)
        _, _, plan = _relaxation_dual(C_u, mu, mu, 1.0, HyperParams())
        np.testing.assert_allclose(plan.sum(1), mu, atol=1e-9)
        np.testing.assert_allclose(plan.sum(0), mu, atol=1e-9)
        assert np.all(plan >= 0)

    def test_delta_zero(self):
        # delta = 0 takes no side-cost step: the costs stay at their
        # projected starting points
        inst = forward_instance(34, m=4, n=4, p=2, q=2)
        pi_hat = noised(inst["pi0"], inst["rng"], 4e-3)
        params = HyperParams(delta=0.0, step_size=5.0, outer_iters=3, inner_iters=10)
        jf = joint_fit(pi_hat, inst["U"], inst["V"], inst["kern"], params,
                       C_u_init=inst["C_u"], C_v_init=inst["C_v"], side_step=0.5)
        np.testing.assert_array_equal(
            jf.C_u.entries, project_metric_simplex(inst["C_u"].entries).entries)
        np.testing.assert_array_equal(
            jf.C_v.entries, project_metric_simplex(inst["C_v"].entries).entries)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(300 + seed)
        mu = random_marginal(rng, 3)
        mu_hat = random_marginal(rng, 3)
        C_u = rng.uniform(0.5, 2.0, (3, 3))
        params = HyperParams(sinkhorn_tol=1e-12)
        _, value, plan = _relaxation_dual(C_u, mu, mu_hat, 1.0, params)
        assert value == rot_distance(C_u, mu, mu_hat, 1.0, tol=1e-12)
        h = 1e-6
        fd = np.zeros_like(C_u)
        for i in range(3):
            for j in range(3):
                dC = np.zeros_like(C_u)
                dC[i, j] = h
                fd[i, j] = (rot_distance(C_u + dC, mu, mu_hat, 1.0, tol=1e-12)
                            - rot_distance(C_u - dC, mu, mu_hat, 1.0, tol=1e-12)) / (2 * h)
        assert np.abs(plan - fd).max() / max(np.abs(fd).max(), 1e-12) <= 1e-3


class TestJointFit:
    def _setup(self, seed):
        inst = forward_instance(seed, m=4, n=4, p=2, q=2)
        pi_hat = noised(inst["pi0"], inst["rng"], 4e-3)
        params = HyperParams(delta=0.01, step_size=5.0, outer_iters=6, inner_iters=40)
        return inst, pi_hat, params

    def test_frozen_side_costs_reproduce_fixed_cost_fit(self):
        inst, pi_hat, params = self._setup(30)
        jf = joint_fit(pi_hat, inst["U"], inst["V"], inst["kern"], params,
                       C_u_init=inst["C_u"], C_v_init=inst["C_v"], side_step=0.0)
        cu_p = project_metric_simplex(inst["C_u"].entries).entries
        cv_p = project_metric_simplex(inst["C_v"].entries).entries
        rf = riot_fit(pi_hat, inst["U"], inst["V"], inst["kern"],
                      CostMatrix(cu_p), CostMatrix(cv_p), params)
        np.testing.assert_allclose(jf.A.entries, rf.A.entries, atol=1e-8)
        np.testing.assert_allclose(jf.fitted_plan.entries, rf.fitted_plan.entries,
                                   atol=1e-8)
        np.testing.assert_allclose(jf.objective_trace, rf.objective_trace, atol=1e-8)

    def test_learning_side_costs_does_not_hurt(self):
        inst, pi_hat, params = self._setup(31)
        jf = joint_fit(pi_hat, inst["U"], inst["V"], inst["kern"], params,
                       C_u_init=inst["C_u"], C_v_init=inst["C_v"], side_step=0.01)
        rf = riot_fit(pi_hat, inst["U"], inst["V"], inst["kern"],
                      CostMatrix(project_metric_simplex(inst["C_u"].entries).entries),
                      CostMatrix(project_metric_simplex(inst["C_v"].entries).entries),
                      params)
        assert jf.objective_trace.min() <= rf.objective_trace.min() + 1e-6

    def test_exit_side_costs_satisfy_invariants(self):
        inst, pi_hat, params = self._setup(32)
        jf = joint_fit(pi_hat, inst["U"], inst["V"], inst["kern"], params,
                       side_step=0.02)
        for mat in (jf.C_u.entries, jf.C_v.entries):
            assert all_triangle_violations(mat) <= 1e-7
            assert mat.sum() == pytest.approx(1.0, abs=1e-7)
            assert np.abs(np.diag(mat)).max() <= 1e-7

    def test_default_init_is_uniform_hollow(self):
        inst, pi_hat, params = self._setup(33)
        jf = joint_fit(pi_hat, inst["U"], inst["V"], inst["kern"],
                       HyperParams(delta=0.01, step_size=5.0, outer_iters=0,
                                   inner_iters=20))
        expected = np.full((4, 4), 1.0 / 12.0)
        np.fill_diagonal(expected, 0.0)
        np.testing.assert_allclose(jf.C_u.entries, expected, atol=1e-12)
