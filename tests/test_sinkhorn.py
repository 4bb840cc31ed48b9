import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st
from scipy.optimize import minimize_scalar
from scipy.special import logsumexp

from otmatch.containers import HyperParams
from otmatch.errors import SinkhornConvergenceError, ValidationError
from otmatch.riot import _relaxation_dual
from otmatch.transport import _PLAIN_SWEEPS, _logsumexp, sinkhorn

from conftest import (conjugate_potential, plain_sinkhorn, plan_entropy, random_marginal,
                      regularized_value)


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
        rebuilt = np.exp(res.log_left[:, None] - 2.0 * C + res.log_right[None, :])
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
            assert np.all(np.isfinite(res.log_left)) and np.all(np.isfinite(res.log_right))

    def test_scaling_gauge_invariance(self, rng):
        C = rng.uniform(0, 2, (3, 3))
        res = sinkhorn(C, random_marginal(rng, 3), random_marginal(rng, 3), 1.0)
        t = np.log(17.3)
        rebuilt = np.exp((res.log_left + t)[:, None] - C + (res.log_right - t)[None, :])
        np.testing.assert_allclose(rebuilt, res.plan.entries, rtol=1e-10)

    def test_uniqueness_across_initializations(self, rng):
        C = rng.uniform(0, 4, (6, 5))
        mu, nu = random_marginal(rng, 6), random_marginal(rng, 5)
        base = sinkhorn(C, mu, nu, 1.5)
        other = sinkhorn(C, mu, nu, 1.5, log_left_init=np.log(rng.uniform(0.1, 10.0, 6)))
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
        with pytest.raises(ValidationError,
                           match=r"^marginal masses 0\.5 and 1\.0 differ by more than tol=1e-09$"):
            sinkhorn(np.zeros((2, 2)), [0.25, 0.25], [0.5, 0.5], 1.0)

    @pytest.mark.parametrize("mu, nu", [
        ([0.5, np.nan, 0.5], [0.5, 0.5]),
        ([0.5, 0.5], [np.inf, 0.5]),
        ([0.5, 0.5], [0.5, -np.inf]),
    ])
    def test_non_finite_marginal_rejected(self, mu, nu):
        # NaN fails a test written as "mu <= 0" and, in the masses, the one
        # written as "gap > tol"
        C = np.zeros((len(mu), len(nu)))
        with pytest.raises(ValidationError, match="must be finite and strictly positive"):
            sinkhorn(C, mu, nu, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_nan_or_minus_inf_cost_rejected(self, bad):
        C = np.array([[0.0, 1.0], [bad, 0.0]])
        with pytest.raises(ValidationError, match="costs must not be NaN or -inf"):
            sinkhorn(C, [0.5, 0.5], [0.5, 0.5], 1.0)

    def test_infinite_cost_forbids_the_pair(self):
        C = np.array([[0.0, np.inf], [1.0, 2.0]])
        res = sinkhorn(C, [0.4, 0.6], [0.7, 0.3], 1.0)
        plan = res.plan.entries
        assert plan[0, 1] == 0.0
        np.testing.assert_allclose(plan, [[0.4, 0.0], [0.3, 0.3]], atol=1e-9)

    @pytest.mark.parametrize("init", [[0.0], [0.0, np.inf], [np.nan, 0.0]])
    def test_log_left_init_must_be_finite_of_length_m(self, init):
        with pytest.raises(ValidationError, match="log_left_init must be a finite vector"):
            sinkhorn(np.zeros((2, 2)), [0.5, 0.5], [0.5, 0.5], 1.0, log_left_init=init)

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

    @pytest.mark.parametrize("lam, low", [(2.0, 0.0), (60.0, 10.0)])
    def test_log_potentials_give_the_log_plan(self, rng, lam, low):
        # at lam = 60 the scalings leave their range and are absorbed
        C = rng.uniform(low, low + 20.0, (5, 4))
        mu, nu = random_marginal(rng, 5), random_marginal(rng, 4)
        res = sinkhorn(C, mu, nu, lam)
        log_plan = res.log_left[:, None] - lam * C + res.log_right[None, :]
        assert np.all(np.isfinite(log_plan))
        np.testing.assert_allclose(logsumexp(log_plan, axis=1), np.log(mu), atol=1e-12)
        # the columns are exact to the solve's l1 tolerance
        np.testing.assert_allclose(np.exp(logsumexp(log_plan, axis=0)), nu, atol=1e-9)
        pos = res.plan.entries > 0
        np.testing.assert_allclose(np.log(res.plan.entries[pos]), log_plan[pos],
                                   rtol=1e-12, atol=1e-12)


    @staticmethod
    def grid_problem():
        """A 20-point grid cost (largest distance 10) and a target marginal
        perturbed by 2e-3: at lam = 1 plain Sinkhorn needs about 80 sweeps."""
        pts = np.array([(k // 5, k % 5) for k in range(20)], dtype=float)
        C = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
        C *= 10.0 / C.max()
        mu = np.full(20, 0.05)
        nu = mu + 2e-3 * np.sin(np.arange(20.0))
        return C, mu, nu / nu.sum()

    def test_slow_solve_takes_fewer_sweeps_than_plain(self):
        C, mu, nu = self.grid_problem()
        plain = plain_sinkhorn(C, mu, nu, 1.0)
        res = sinkhorn(C, mu, nu, 1.0)
        assert plain[1] >= 60
        assert res.iterations <= 0.7 * plain[1]
        assert np.abs(res.plan.entries - plain[0]).sum() <= 1e-8

    def test_relaxed_nonconvergence_carries_the_exact_row_update(self):
        # 20 sweeps end in the relaxed phase; the carried plan has exact rows
        # and the column error that the error reports.
        C, mu, nu = self.grid_problem()
        with pytest.raises(SinkhornConvergenceError) as err:
            sinkhorn(C, mu, nu, 1.0, max_iters=20)
        plan = err.value.plan
        assert np.abs(plan.sum(axis=1) - mu).sum() <= 1e-15
        assert np.abs(plan.sum(axis=0) - nu).sum() == pytest.approx(err.value.marginal_error,
                                                                    rel=1e-9)


class TestLogSumExp:
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("scale", [1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3])
    def test_matches_scipy(self, rng, scale, axis):
        # Slices of 20 or more entries keep the value well away from 0, where
        # two roundings of the same sum cannot agree to a relative 1e-15.
        x = scale * rng.standard_normal((20, 30))
        np.testing.assert_allclose(_logsumexp(x, axis), logsumexp(x, axis=axis),
                                   rtol=1e-15, atol=0)

    def test_all_minus_inf_slice_gives_minus_inf(self):
        x = np.array([[-np.inf, 0.0, -np.inf], [-np.inf, 1.0, -np.inf]])
        expected = logsumexp(x, axis=0)
        assert expected[0] == expected[2] == -np.inf
        np.testing.assert_allclose(_logsumexp(x, 0), expected, rtol=1e-15)
        np.testing.assert_allclose(_logsumexp(x.T, 1), expected, rtol=1e-15)


def rot_distance(C, mu, nu, lam):
    """The relaxation term's value: the ROT distance read from the dual."""
    C, mu, nu = (np.asarray(x, dtype=float) for x in (C, mu, nu))
    return _relaxation_dual(C, mu, nu, lam, HyperParams())[1]


class TestRotDistance:
    """The ROT distance: the regularized value at the Sinkhorn plan."""

    def test_constant_cost_closed_form(self):
        # uniform product plan: H = 1 + ln 4 at 2x2
        C = np.full((2, 2), 2.0)
        val = rot_distance(C, [0.5, 0.5], [0.5, 0.5], 1.0)
        assert val == pytest.approx(2.0 - (1.0 + np.log(4.0)), abs=1e-9)
        assert regularized_value(sinkhorn(C, [0.5, 0.5], [0.5, 0.5], 1.0).plan, C, 1.0) \
            == pytest.approx(val, abs=1e-12)

    def test_one_by_one(self):
        assert rot_distance([[3.0]], [1.0], [1.0], 4.0) == pytest.approx(3.0 - 0.25)

    def test_matches_univariate_oracle(self):
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        _, oracle_value = two_by_two_oracle(C, np.array([0.7, 0.3]), np.array([0.4, 0.6]), 1.0)
        assert oracle_value == pytest.approx(-1.8336560333441716, abs=1e-9)
        assert rot_distance(C, [0.7, 0.3], [0.4, 0.6], 1.0) == pytest.approx(oracle_value,
                                                                           abs=1e-7)


def scaling_dual_value(C, mu, nu, lam):
    """Dual value <z, mu> + <z^C, nu> - 1/lam with z = log_left/lam read from
    the Sinkhorn left potential; returns (value, z, z^C)."""
    C = np.asarray(C, dtype=float)
    res = sinkhorn(C, mu, nu, lam)
    z = res.log_left / lam
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
            primal = regularized_value(sinkhorn(C, mu, nu, 1.0).plan, C, 1.0)
            assert abs(dual - primal) <= 1e-6


@st.composite
def transport_problems(draw):
    """C in [0, 30], m, n <= 8, lam in [1e-2, 1e2] (log-uniform), and an
    optional initial left potential in [-690, 690], the logs of 1e-300 to
    1e300."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 8))
    C = draw(hnp.arrays(float, (m, n), elements=st.floats(0.0, 30.0)))
    weights = st.floats(-3.0, 0.0).map(lambda e: 10.0 ** e)
    mu = draw(hnp.arrays(float, m, elements=weights))
    nu = draw(hnp.arrays(float, n, elements=weights))
    lam = 10.0 ** draw(st.floats(-2.0, 2.0))
    log_left_init = draw(st.none() | hnp.arrays(float, m, elements=st.floats(-690.0, 690.0)))
    return C, mu / mu.sum(), nu / nu.sum(), lam, log_left_init


def _one_costly_row(shape, row, costs, nu_weights):
    """lam = 100 problem, found by hypothesis, whose balanced potentials lie
    beyond the range of exp: C is zero except ``row``."""
    C = np.zeros(shape)
    C[row] = costs
    nu = np.asarray(nu_weights, dtype=float)
    return C, np.full(shape[0], 1.0 / shape[0]), nu / nu.sum(), 100.0, None


@settings(max_examples=80)
@given(transport_problems())
@example(_one_costly_row((6, 3), 5, [0.0, 10.0, 10.0], [1.0, 10.0, 10.0]))
@example(_one_costly_row((4, 4), 2, [10.0, 10.0, 0.0, 10.0], [10.0, 10.0, 1.0, 10.0]))
def test_single_path_converges_or_carries_iterate(problem):
    """Every solve returns a feasible plan that its balanced potentials
    rebuild and whose regularized value is their dual value, or raises
    SinkhornConvergenceError with its last iterate; nothing else."""
    C, mu, nu, lam, log_left_init = problem
    tol, max_iters = 1e-9, 2000
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            res = sinkhorn(C, mu, nu, lam, tol=tol, max_iters=max_iters,
                           log_left_init=log_left_init)
        except SinkhornConvergenceError as err:
            assert err.iterations == max_iters
            assert np.all(np.isfinite(err.plan)) and err.marginal_error > tol
            return
        plan = res.plan.entries
        assert np.abs(plan.sum(axis=1) - mu).sum() <= tol
        assert np.abs(plan.sum(axis=0) - nu).sum() <= tol
        log_left, log_right = res.log_left, res.log_right
        scale = 1.0 + np.abs(log_left).max() + np.abs(log_right).max()
        assert abs(log_left.mean() - log_right.mean()) <= 1e-12 * scale
        # log plan = log_left - lam C + log_right, compared after exp: a
        # kernel entry may be subnormal between scalings of up to 1e150 each,
        # so such a plan entry is exact only to 5e-324 * 1e300 absolute
        log_plan = log_left[:, None] - lam * C + log_right[None, :]
        np.testing.assert_allclose(plan, np.exp(log_plan), rtol=1e-9, atol=1e-20)
        # S = sum mu is the plan's mass before its normalization
        dual = (plan.sum(axis=1) @ log_left + plan.sum(axis=0) @ log_right
                - np.log(mu.sum()) - 1.0) / lam
        primal = regularized_value(plan, C, lam)
        assert abs(dual - primal) <= 1e-9 * max(1.0, abs(primal))


@settings(max_examples=80)
@given(transport_problems())
@example(_one_costly_row((6, 3), 5, [0.0, 10.0, 10.0], [1.0, 10.0, 10.0]))
@example((np.array([[0.0, 0.0, 0.0], [0.0, 9.0, 10.0], [0.0, 10.0, 0.0]]),
          np.array([1.0, 10.0, 10.0]) / 21.0, np.array([1.0, 10.0, 10.0]) / 21.0,
          10.0 ** 0.75, None))
def test_overrelaxed_solve_matches_the_plain_oracle(problem):
    """Against plain Sinkhorn at tol 1e-12: a solve that the plain loop ends
    within the plain sweeps is the same bit for bit. Every other solve that it
    ends converges too, to a plan within 1e-9 in l1; it is asked for 1e-11,
    since on a nearly degenerate plan rounding can stall either path a few
    times 1e-12 above zero error, at a level that depends on the path."""
    C, mu, nu, lam, log_left_init = problem
    ref = plain_sinkhorn(C, mu, nu, lam, tol=1e-12, max_iters=2000,
                         log_left_init=log_left_init)
    event("plain solve ends" if ref is not None else "plain solve does not end")
    if ref is None:
        return
    plan, sweeps, err, log_left, log_right = ref
    if sweeps <= _PLAIN_SWEEPS:
        res = sinkhorn(C, mu, nu, lam, tol=1e-12, log_left_init=log_left_init)
        assert res.iterations == sweeps and res.final_marginal_error == err
        assert np.array_equal(res.plan.entries, plan)
        assert np.array_equal(res.log_left, log_left)
        assert np.array_equal(res.log_right, log_right)
    else:
        res = sinkhorn(C, mu, nu, lam, tol=1e-11, max_iters=10000,
                       log_left_init=log_left_init)
        assert np.abs(res.plan.entries - plan).sum() <= 1e-9


@settings(max_examples=100)
@given(transport_problems(), st.sampled_from([1e-9, 1e-12]))
@example((np.array([[0.0, 0.0, 0.0, 0.0, 0.0], [0.0, 19.0, 0.0, 0.0, 0.0]]),
          np.array([1.0, 100.0]) / 101.0,
          np.array([1.0, 10.0 ** 0.75, 1.0, 1.0, 10.0 ** 0.5])
          / (3.0 + 10.0 ** 0.75 + 10.0 ** 0.5),
          1.0, None), 1e-9)
@example((np.array([[8.876024508881082, 9.527899053507072, 11.231810614558565],
                    [5.623841398102854, 25.297022600227585, 13.898422506090881],
                    [18.392252937901414, 15.53356728828811, 21.936632632782942],
                    [23.2740994448745, 14.217895114676782, 7.877821733564908],
                    [4.884425942479189, 19.679595899598183, 4.411715539969393],
                    [15.447746615210491, 13.266271839817064, 6.714218483027587]]),
          np.array([0.40580116497762436, 0.17473292165843254, 0.003203946512902543,
                    0.01865810338047169, 0.35106377738923283, 0.04654008608133616]),
          np.array([0.871931361411754, 0.03480654755648364, 0.09326209103176246]),
          55.793212808913445,
          np.array([252.9344615783043, 452.54332634959565, 164.2569287168327,
                    -564.5769250746541, 463.7335382276726, -316.5192773328318])), 1e-9)
@example((np.array([[16.0, 16.0, 16.0, 16.0, 16.0], [16.0, 16.0, 16.0, 0.0, 16.0],
                    [16.0, 16.0, 16.0, 16.0, 16.0]]),
          np.array([1.0, 1e-3, 1.0]) / 2.001, np.array([10.0, 10.0, 10.0, 1.0, 10.0]) / 41.0,
          1.0, None), 1e-9)
def test_overrelaxed_solve_takes_at_most_the_plain_sweeps(problem, tol):
    """Over-relaxation never costs more than a tenth of the plain sweeps, plus
    the one sweep a fallback drops. The first two examples sit on plateaus far
    from the solution, where a plain contraction reads below 1 before the
    linear regime: with omega taken there they take 21 sweeps against 10
    plain ones (found by hypothesis, shrunk) and 446 against 233 (the worst of
    20 000 random draws). The third leaves a plateau below a tenth of the
    mass: its plain contractions read 0.99, 0.61, 0.05, and omega aimed at
    0.61 took 11 sweeps against 9 (found by hypothesis)."""
    C, mu, nu, lam, log_left_init = problem
    ref = plain_sinkhorn(C, mu, nu, lam, tol=tol, max_iters=2000, log_left_init=log_left_init)
    event("plain solve ends" if ref is not None else "plain solve does not end")
    if ref is None:
        return
    res = sinkhorn(C, mu, nu, lam, tol=tol, max_iters=10000, log_left_init=log_left_init)
    assert res.iterations <= 1.1 * ref[1] + 1
