import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

from otmatch.errors import SinkhornConvergenceError, ValidationError
from otmatch.sinkhorn import conjugate_potential, plan_entropy, rot_distance, sinkhorn

from conftest import random_marginal


def entropy_value(p, lam):
    pos = p > 0
    return float(-(p[pos] * (np.log(p[pos]) - 1.0)).sum()) / lam


def two_by_two_oracle(C, mu, nu, lam):
    """Brute-force search over the single free parameter t = pi[0, 0]."""
    lo = max(0.0, mu[0] - nu[1])
    hi = min(mu[0], nu[0])

    def plan(t):
        return np.array([[t, mu[0] - t], [nu[0] - t, mu[1] - nu[0] + t]])

    def objective(t):
        p = plan(t)
        return (p * C).sum() - entropy_value(p, lam)

    res = minimize_scalar(objective, bounds=(lo + 1e-13, hi - 1e-13),
                          method="bounded", options={"xatol": 1e-14})
    return plan(res.x), objective(res.x)


class TestSinkhorn:
    def test_constant_cost_gives_product_coupling(self):
        res = sinkhorn(np.zeros((2, 2)), [0.5, 0.5], [0.5, 0.5], 1.0)
        np.testing.assert_allclose(res.plan.entries, 0.25, atol=1e-12)

    def test_one_by_one_forced_mass(self):
        res = sinkhorn([[4.2]], [1.0], [1.0], 2.0)
        np.testing.assert_allclose(res.plan.entries, [[1.0]])

    def test_matches_univariate_oracle(self):
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        mu, nu = np.array([0.7, 0.3]), np.array([0.4, 0.6])
        oracle_plan, oracle_value = two_by_two_oracle(C, mu, nu, 1.0)
        # frozen from the oracle itself
        np.testing.assert_allclose(oracle_plan[0, 0], 0.36201794093872947, atol=1e-9)
        res = sinkhorn(C, mu, nu, 1.0)
        np.testing.assert_allclose(res.plan.entries, oracle_plan, atol=1e-7)

    def test_scaling_form_identity(self, rng):
        C = rng.uniform(0, 3, (5, 4))
        res = sinkhorn(C, random_marginal(rng, 5), random_marginal(rng, 4), 2.0)
        rebuilt = res.left_scaling[:, None] * np.exp(-2.0 * C) * res.right_scaling[None, :]
        np.testing.assert_allclose(rebuilt, res.plan.entries, rtol=1e-10)

    def test_marginal_feasibility_random(self, rng):
        for _ in range(10):
            m, n = rng.integers(2, 12, 2)
            C = rng.uniform(0, 5, (m, n))
            mu, nu = random_marginal(rng, m), random_marginal(rng, n)
            res = sinkhorn(C, mu, nu, rng.uniform(0.5, 5.0), tol=1e-9)
            assert np.abs(res.plan.entries.sum(1) - mu).sum() <= 1e-9
            assert np.abs(res.plan.entries.sum(0) - nu).sum() <= 1e-9
            assert res.final_marginal_error <= 1e-9
            assert np.all(res.left_scaling > 0) and np.all(res.right_scaling > 0)

    def test_scaling_gauge_invariance(self, rng):
        C = rng.uniform(0, 2, (3, 3))
        res = sinkhorn(C, random_marginal(rng, 3), random_marginal(rng, 3), 1.0)
        c = 17.3
        rebuilt = (res.left_scaling * c)[:, None] * np.exp(-C) * (res.right_scaling / c)
        np.testing.assert_allclose(rebuilt, res.plan.entries, rtol=1e-10)

    def test_uniqueness_across_initializations(self, rng):
        C = rng.uniform(0, 4, (6, 5))
        mu, nu = random_marginal(rng, 6), random_marginal(rng, 5)
        base = sinkhorn(C, mu, nu, 1.5)
        other = sinkhorn(C, mu, nu, 1.5, a_init=rng.uniform(0.1, 10.0, 6))
        np.testing.assert_allclose(base.plan.entries, other.plan.entries, atol=1e-8)

    def test_entropy_decreases_with_lambda(self, rng):
        C = rng.uniform(0, 4, (5, 5))
        mu, nu = random_marginal(rng, 5), random_marginal(rng, 5)
        entropies = [plan_entropy(sinkhorn(C, mu, nu, lam).plan)
                     for lam in (0.2, 1.0, 3.0, 8.0)]
        assert all(a >= b - 1e-9 for a, b in zip(entropies, entropies[1:]))

    def test_zero_marginal_rejected(self):
        with pytest.raises(ValidationError, match="strictly positive"):
            sinkhorn(np.zeros((2, 2)), [1.0, 0.0], [0.5, 0.5], 1.0)

    def test_unbalanced_marginals_rejected(self):
        # the column error after a row update is at least the mass gap
        with pytest.raises(ValidationError, match="marginal masses"):
            sinkhorn(np.zeros((2, 2)), [0.25, 0.25], [0.5, 0.5], 1.0)

    def test_nonconvergence_carries_iterate(self, rng):
        C = rng.uniform(0, 5, (4, 4))
        mu, nu = random_marginal(rng, 4), random_marginal(rng, 4)
        with pytest.raises(SinkhornConvergenceError) as err:
            sinkhorn(C, mu, nu, 1.0, tol=1e-15, max_iters=2)
        assert err.value.plan is not None
        assert err.value.iterations == 2
        assert np.isfinite(err.value.marginal_error)

    def test_log_domain_handles_large_lambda(self, rng):
        # exp(-lam*C) underflows entrywise at lam*C ~ 1500
        C = rng.uniform(10, 30, (4, 4))
        res = sinkhorn(C, random_marginal(rng, 4), random_marginal(rng, 4), 60.0)
        assert res.final_marginal_error <= 1e-9


class TestRotDistance:
    def test_constant_cost_closed_form(self):
        # uniform product plan: H = 1 + ln 4 at 2x2
        val = rot_distance(np.full((2, 2), 2.0), [0.5, 0.5], [0.5, 0.5], 1.0)
        assert val == pytest.approx(2.0 - (1.0 + np.log(4.0)), abs=1e-9)

    def test_one_by_one(self):
        assert rot_distance([[3.0]], [1.0], [1.0], 4.0) == pytest.approx(3.0 - 0.25)

    def test_matches_univariate_oracle(self):
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        _, oracle_value = two_by_two_oracle(C, np.array([0.7, 0.3]), np.array([0.4, 0.6]), 1.0)
        assert oracle_value == pytest.approx(-1.8336560333441716, abs=1e-9)
        assert rot_distance(C, [0.7, 0.3], [0.4, 0.6], 1.0) == pytest.approx(
            oracle_value, abs=1e-7)


def scaling_dual_value(C, mu, nu, lam):
    """Dual value <z, mu> + <z^C, nu> - 1/lam with z = log(a)/lam read from
    the Sinkhorn left scaling a; returns (value, z, z^C)."""
    C = np.asarray(C, dtype=float)
    res = sinkhorn(C, mu, nu, lam)
    z = np.log(res.left_scaling) / lam
    z_conj = conjugate_potential(z, C, np.asarray(nu, dtype=float), lam)
    return float(z @ np.asarray(mu) + z_conj @ np.asarray(nu) - 1.0 / lam), z, z_conj


class TestRotDualValue:
    def test_one_by_one_cancellation(self):
        value, z, z_conj = scaling_dual_value([[2.5]], [1.0], [1.0], 1.0)
        assert value == pytest.approx(1.5, abs=1e-9)
        assert z[0] + z_conj[0] == pytest.approx(2.5, abs=1e-9)

    def test_constant_cost_matches_primal(self):
        value, _, _ = scaling_dual_value(np.zeros((2, 2)), [0.5, 0.5], [0.5, 0.5], 1.0)
        assert value == pytest.approx(-(1.0 + np.log(4.0)), abs=1e-9)

    def test_duality_gap_random(self, rng):
        for _ in range(5):
            C = rng.uniform(0, 3, (3, 3))
            mu, nu = random_marginal(rng, 3), random_marginal(rng, 3)
            dual, _, _ = scaling_dual_value(C, mu, nu, 1.0)
            primal = rot_distance(C, mu, nu, 1.0)
            assert abs(dual - primal) <= 1e-6


@st.composite
def transport_problems(draw):
    """C in [0, 30], m, n <= 8, lam in [1e-2, 1e2] (log-uniform), and an
    optional initial left scaling spanning 1e-300 to 1e300."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 8))
    C = draw(hnp.arrays(float, (m, n), elements=st.floats(0.0, 30.0)))
    weights = st.floats(-3.0, 0.0).map(lambda e: 10.0 ** e)
    mu = draw(hnp.arrays(float, m, elements=weights))
    nu = draw(hnp.arrays(float, n, elements=weights))
    lam = 10.0 ** draw(st.floats(-2.0, 2.0))
    a_init = draw(st.none() | hnp.arrays(
        float, m, elements=st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)))
    return C, mu / mu.sum(), nu / nu.sum(), lam, a_init


@settings(max_examples=80, deadline=None, database=None)
@given(transport_problems())
def test_single_path_converges_or_carries_iterate(problem):
    """Every solve returns a feasible plan that its scalings rebuild, or
    raises SinkhornConvergenceError with its last iterate; nothing else."""
    C, mu, nu, lam, a_init = problem
    tol, max_iters = 1e-9, 2000
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            res = sinkhorn(C, mu, nu, lam, tol=tol, max_iters=max_iters, a_init=a_init)
        except SinkhornConvergenceError as err:
            assert err.iterations == max_iters
            assert np.all(np.isfinite(err.plan)) and err.marginal_error > tol
            return
        plan = res.plan.entries
        assert np.abs(plan.sum(axis=1) - mu).sum() <= tol
        assert np.abs(plan.sum(axis=0) - nu).sum() <= tol
        left, right = res.left_scaling, res.right_scaling
        # the product in log space, so that an underflowing exp(-lam C)
        # between large finite factors is still checked
        with np.errstate(divide="ignore"):
            log_left, log_right = np.log(left), np.log(right)
        rebuilt = np.exp(log_left[:, None] - lam * C + log_right[None, :])
        finite = np.isfinite(log_left)[:, None] & np.isfinite(log_right)[None, :]
        np.testing.assert_allclose(rebuilt[finite], plan[finite], rtol=1e-6, atol=1e-12)
