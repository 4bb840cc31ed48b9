import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from otmatch.containers import CouplingMatrix, HyperParams, as_array
from otmatch.errors import OtmatchError, RootFindingError, ValidationError
from otmatch.iot import descend, iot_fit
from otmatch.bounds import kl_divergence, cost_shift_distance
from otmatch.joint import joint_fit
from otmatch.kernels import kernel_cost
import otmatch.riot as riot
from otmatch.riot import (InnerSolveResult, _evaluate_at, _gradient_at, _inner_solve_raw,
                          _inner_start, _predicted_start, _relaxation_dual, _relaxed_objective,
                          _theta_root, predict_matching, riot_fit)
from otmatch.transport import sinkhorn
from otmatch.synth import SynthConfig, add_noise, generate_instance

from conftest import (conjugate_potential, euclidean_cost, forward_instance, inner_objective,
                      neg_log_likelihood, noised, plain_sinkhorn, random_coupling,
                      random_marginal, regularized_value, unit_grid_distances)


def hyper(**kwargs):
    base = dict(lam=1.0, delta=0.01, step_size=10.0, outer_iters=30)
    base.update(kwargs)
    return HyperParams(**base)


def point_at(A, pi_hat, U, V, kern, z, w, params):
    """The fit's evaluation point at A with the potentials (z, w); the side
    costs are zero, and enter only the relaxation terms when delta > 0."""
    pi_hat = as_array(pi_hat)
    m, n = pi_hat.shape
    blocks = (np.zeros((m, m)), np.zeros((n, n)), z, w)
    return _evaluate_at(A, pi_hat, pi_hat.sum(1), pi_hat.sum(0), U, V, kern, blocks, params)[1]


def relaxed_objective(plan, pi_hat, C_u, C_v, params):
    """The relaxed objective at a plan, with the likelihood from the oracle."""
    pi_hat, plan = as_array(pi_hat), as_array(plan)
    return _relaxed_objective(neg_log_likelihood(pi_hat, plan), plan, pi_hat.sum(1),
                              pi_hat.sum(0), C_u, C_v, params)[0]


def potentials(plan, mu_hat, nu_hat, C_u, C_v, params):
    """Cold relaxation potentials (z, w) of a plan's marginals, as the joint
    fit refreshes them."""
    p = as_array(plan)
    return (_relaxation_dual(C_u, p.sum(1), mu_hat, params.lam_u, params)[0],
            _relaxation_dual(C_v, p.sum(0), nu_hat, params.lam_v, params)[0])


class _Counted(np.ndarray):
    """An array that counts the subtractions it enters: a Newton step of the
    multiplier root forms r - theta s once."""

    subtractions = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.subtract:
            _Counted.subtractions += 1
        inputs = tuple(x.view(np.ndarray) if isinstance(x, _Counted) else x for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


class TestThetaRoots:
    def test_scalar_closed_form(self):
        # p(theta) = 1 / (0.5 - theta) = 1  =>  theta = -0.5
        theta = _theta_root(np.array([1.0]), np.array([0.5]), np.array([1.0]))
        assert theta == pytest.approx(-0.5, abs=1e-10)

    def test_proportional_matrices_reduce_to_scalar(self, rng):
        # M = c Z makes p(theta) = 1 / (c - theta), root c - 1
        Z = rng.uniform(0.5, 2.0, (4, 4))
        c = 0.37
        eta = rng.uniform(0.5, 1.5, 4)
        theta = _theta_root(random_marginal(rng, 4), c * Z @ eta, Z @ eta)
        assert theta == pytest.approx(c - 1.0, abs=1e-10)

    def test_residual_at_root(self, rng):
        for _ in range(5):
            Z = rng.uniform(0.2, 2.0, (4, 4))
            M = rng.normal(0, 1, (4, 4)) * Z
            eta = rng.uniform(0.5, 1.5, 4)
            mu_hat = random_marginal(rng, 4)
            r, s = M @ eta, Z @ eta
            theta = _theta_root(mu_hat, r, s)
            assert abs((mu_hat * s / (r - theta * s)).sum() - 1.0) <= 1e-10

    @pytest.mark.parametrize("r, s", [
        ([0.5, np.nan, 1.0], [1.0, 1.0, 1.0]),
        ([0.5, 1.0, 1.0], [1.0, np.nan, 1.0]),
        ([0.5, 1.0, 1.0], [1.0, np.inf, 1.0]),
        ([0.5, -np.inf, 1.0], [1.0, 1.0, 1.0]),
        ([np.inf, -np.inf, np.inf], [np.inf, np.inf, np.inf]),
    ])
    def test_non_finite_input_raises_before_any_newton_step(self, r, s):
        weights = np.full(3, 1.0 / 3.0)
        _Counted.subtractions = 0
        # inf / inf is invalid; the inner solve calls the root with that silenced
        with np.errstate(invalid="ignore"), pytest.raises(RootFindingError, match="non-finite"):
            _theta_root(weights, np.asarray(r).view(_Counted), np.asarray(s))
        assert _Counted.subtractions == 0
        # the count sees the Newton steps of a finite root
        _theta_root(weights, np.array([0.5, 1.0, 1.0]).view(_Counted), np.ones(3))
        assert _Counted.subtractions > 0


@st.composite
def theta_problems(draw):
    """Simplex weights and positive r, s, with s and r/s each spanning
    1e-4 to 1e4."""
    k = draw(st.integers(1, 12))
    decades = st.floats(-4.0, 4.0).map(lambda e: 10.0 ** e)
    weights = draw(hnp.arrays(float, k, elements=st.floats(1e-3, 1.0)))
    s = draw(hnp.arrays(float, k, elements=decades))
    ratio = draw(hnp.arrays(float, k, elements=decades))
    return weights / weights.sum(), s * ratio, s


@settings(max_examples=200)
@given(theta_problems())
@example((np.array([1.0]), np.array([2.8e-77]), np.array([1.0])))
def test_theta_root_from_any_guess(problem):
    """The cold root meets the residual or sits where no float lies between
    it and the root; every guess returns it. p' >= 1 at the root (Jensen),
    so the residual bounds the distance between two roots by about 2e-13.
    The example puts a guess 1e-93 below the pole at theta_max, 1 above the
    root: Newton steps on p would need about 300 doublings to get there."""
    weights, r, s = problem
    theta_max = float(np.min(r / s))

    def p(theta):
        d = r - theta * s
        return float((weights * s / d).sum()) if d.min() > 0 else np.inf

    cold = _theta_root(weights, r, s)
    above = np.nextafter(cold, np.inf)
    assert cold < theta_max
    assert abs(p(cold) - 1.0) <= 1e-13 or (p(cold) < 1.0 and p(above) > 1.0)
    # Every root leaves a positive denominator, so its half-update is defined.
    assert (r - cold * s).min() > 0
    for guess in (cold - 1e6 * max(1.0, abs(cold)), np.nextafter(theta_max, -np.inf),
                  theta_max, theta_max + 1.0):
        theta = _theta_root(weights, r, s, guess)
        assert theta == pytest.approx(cold, rel=1e-12, abs=1e-12)
        assert (r - theta * s).min() > 0


class TestInnerSolve:
    def test_zero_iterations_rescales_only(self, rng):
        # The cold start, before any half-update, is uniform on the constraint.
        inst = forward_instance(10, m=3, n=3)
        Z = np.exp(-inst["C0"])
        xi, eta, guess1, guess2 = _inner_start(Z, None)
        assert xi @ Z @ eta == pytest.approx(1.0, abs=1e-12)
        assert np.ptp(xi) == 0.0 and np.ptp(eta) == 0.0
        assert guess1 is guess2 is None

    def test_one_by_one_closed_form(self):
        Z = np.array([[0.6]])
        M = np.array([[0.3]])
        res = _inner_solve_raw(np.array([1.0]), np.array([1.0]), M, Z)
        assert res.xi[0] * res.eta[0] == pytest.approx(1.0 / 0.6, abs=1e-10)
        assert res.theta == pytest.approx(0.3 / 0.6 - 1.0, abs=1e-10)
        assert res.theta2 == pytest.approx(res.theta, abs=1e-10)

    def test_kkt_and_monotonicity_random(self, rng, monkeypatch):
        # A spy on the half-updates records the scalings each returns; the
        # objective is read after every half-update along the chain.
        updates = []
        original = riot._half_update

        def half_update(*args):
            scaling, theta = original(*args)
            updates.append(scaling)
            return scaling, theta

        monkeypatch.setattr(riot, "_half_update", half_update)
        for _ in range(3):
            Z = np.exp(-rng.uniform(0, 2, (3, 3)))
            M = 0.01 * (rng.normal(0, 1, 3)[:, None] + rng.normal(0, 1, 3)[None, :]) * Z
            pi_hat = random_coupling(rng, 3, 3)
            mu_hat, nu_hat = pi_hat.sum(1), pi_hat.sum(0)
            updates.clear()
            res = _inner_solve_raw(mu_hat, nu_hat, M, Z)
            xi, eta = _inner_start(Z, None)[:2]
            h = [inner_objective(xi, eta, mu_hat, nu_hat, M)]
            for xi, eta_next in zip(updates[::2], updates[1::2]):
                h.append(inner_objective(xi, eta, mu_hat, nu_hat, M))
                eta = eta_next
                h.append(inner_objective(xi, eta, mu_hat, nu_hat, M))
            assert np.all(np.diff(h) <= 1e-9)
            assert res.multiplier_gap <= 1e-6
            kkt = -mu_hat / res.xi + M @ res.eta - res.theta * (Z @ res.eta)
            assert np.abs(kkt).max() <= 1e-8
            assert abs(res.xi @ Z @ res.eta - 1.0) <= 1e-8

    def test_converged_at_large_lam(self):
        """At lam = 10 the scalings need far more than 20 pairs to settle; the
        solve runs until they do, so the KKT conditions hold to rounding."""
        cfg = SynthConfig(seed=0, hyper=HyperParams(lam=10.0))
        inst = generate_instance(cfg)
        pi_hat = as_array(add_noise(inst.pi0, 8e-3, 0))
        mu_hat, nu_hat = pi_hat.sum(1), pi_hat.sum(0)
        rng = np.random.default_rng(0)
        for _ in range(3):
            A = rng.standard_normal((cfg.p, cfg.q))
            z, w = rng.standard_normal(cfg.m), rng.standard_normal(cfg.n)
            blocks = (inst.C_u, inst.C_v, z, w)
            res = _evaluate_at(A, pi_hat, mu_hat, nu_hat, inst.U, inst.V, cfg.kernel,
                               blocks, cfg.hyper)[1][0]
            Z = np.exp(-cfg.hyper.lam * kernel_cost(inst.U, inst.V, A, cfg.kernel))
            M = cfg.hyper.delta * (z[:, None] + w[None, :]) * Z
            assert res.multiplier_gap <= 1e-10
            kkt = -mu_hat + res.xi * (M @ res.eta - res.theta * (Z @ res.eta))
            assert np.abs(kkt).max() <= 1e-10

    def test_start_that_does_not_rescale_falls_back_to_the_cold_start(self, rng):
        Z = np.exp(-rng.uniform(0, 2, (3, 4)))
        M = 0.01 * (rng.normal(0, 1, 3)[:, None] + rng.normal(0, 1, 4)[None, :]) * Z
        pi_hat = random_coupling(rng, 3, 4)
        cold = _inner_solve_raw(pi_hat.sum(1), pi_hat.sum(0), M, Z)
        # xi' Z eta overflows, or underflows to zero
        for scale in (1e200, 1e-200):
            start = InnerSolveResult(xi=np.full(3, scale), eta=np.full(4, scale),
                                     theta=5.0, theta2=5.0)
            warm = _inner_solve_raw(pi_hat.sum(1), pi_hat.sum(0), M, Z, start=start)
            for attr in ("xi", "eta", "theta", "theta2"):
                assert np.array_equal(getattr(warm, attr), getattr(cold, attr))

    def test_start_at_the_solution_settles_in_one_pair(self, rng, monkeypatch):
        Z = np.exp(-rng.uniform(0, 2, (3, 4)))
        M = 0.01 * (rng.normal(0, 1, 3)[:, None] + rng.normal(0, 1, 4)[None, :]) * Z
        pi_hat = random_coupling(rng, 3, 4)
        cold = _inner_solve_raw(pi_hat.sum(1), pi_hat.sum(0), M, Z)
        calls = []
        original = riot._half_update

        def half_update(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(riot, "_half_update", half_update)
        warm = _inner_solve_raw(pi_hat.sum(1), pi_hat.sum(0), M, Z, start=cold)
        assert len(calls) == 2
        np.testing.assert_allclose(warm.xi, cold.xi, rtol=1e-12)
        np.testing.assert_allclose(warm.eta, cold.eta, rtol=1e-12)


@st.composite
def inner_problems(draw):
    """m, n <= 6; Z = exp(-C) with C in [0, 3]; M = delta (z_i + w_j) Z_ij with
    delta in [0, 0.1] and z, w in [-3, 3]; a positive empirical plan; and a
    start whose scalings span 1e-3 to 1e3 and whose multipliers lie in
    [-10, 10]."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    Z = np.exp(-draw(hnp.arrays(float, (m, n), elements=st.floats(0.0, 3.0))))
    delta = draw(st.floats(0.0, 0.1))
    z = draw(hnp.arrays(float, m, elements=st.floats(-3.0, 3.0)))
    w = draw(hnp.arrays(float, n, elements=st.floats(-3.0, 3.0)))
    pi_hat = draw(hnp.arrays(float, (m, n), elements=st.floats(1e-3, 1.0)))
    pi_hat /= pi_hat.sum()
    decades = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)
    start = InnerSolveResult(xi=draw(hnp.arrays(float, m, elements=decades)),
                             eta=draw(hnp.arrays(float, n, elements=decades)),
                             theta=draw(st.floats(-10.0, 10.0)),
                             theta2=draw(st.floats(-10.0, 10.0)))
    return pi_hat.sum(1), pi_hat.sum(0), delta * (z[:, None] + w[None, :]) * Z, Z, start


@settings(max_examples=100)
@given(inner_problems())
def test_inner_solve_from_cold_and_warm_starts(problem):
    """Both starts meet xi' Z eta = 1 and reach the same solution. (t xi,
    eta / t) is a solution too, since the marginals have equal mass, so the
    plans xi_i Z_ij eta_j and the multipliers are compared."""
    mu_hat, nu_hat, M, Z, start = problem
    cold = _inner_solve_raw(mu_hat, nu_hat, M, Z)
    warm = _inner_solve_raw(mu_hat, nu_hat, M, Z, start=start)
    for res in (cold, warm):
        assert abs(res.xi @ Z @ res.eta - 1.0) <= 1e-12
    np.testing.assert_allclose(warm.xi[:, None] * Z * warm.eta[None, :],
                               cold.xi[:, None] * Z * cold.eta[None, :], rtol=1e-9)
    for attr in ("theta", "theta2"):
        assert getattr(warm, attr) == pytest.approx(getattr(cold, attr), rel=1e-9, abs=1e-12)


class TestRiotObjective:
    def test_delta_zero_reduces_to_likelihood(self, rng):
        # the objective read from log xi, log eta and C(A) is the likelihood
        # of the plan's entries
        inst = forward_instance(11)
        pi_hat = noised(inst["pi0"], inst["rng"], 3e-3).entries
        m, n = pi_hat.shape
        blocks = (inst["C_u"], inst["C_v"], np.zeros(m), np.zeros(n))
        A = inst["A0"] + inst["rng"].normal(0.0, 0.3, inst["A0"].shape)
        val, (_, pi, rel, _) = _evaluate_at(A, pi_hat, pi_hat.sum(1), pi_hat.sum(0), inst["U"],
                                            inst["V"], inst["kern"], blocks, hyper(delta=0.0))
        assert rel is None
        assert val == pytest.approx(neg_log_likelihood(pi_hat, pi), abs=1e-12)

    def test_constant_side_costs_closed_form(self):
        inst = forward_instance(12, m=3, n=3)
        pi0 = inst["pi0"]
        mu = pi0.entries.sum(1)
        nu = pi0.entries.sum(0)
        zero3 = np.zeros((3, 3))
        params = hyper(delta=0.5)
        val = relaxed_objective(pi0, pi0, zero3, zero3, params)
        # constant-cost relaxation: d = -H(product coupling of the marginals)/lam
        def product_term(a):
            prod = np.outer(a, a)
            return (prod * (np.log(prod) - 1.0)).sum()
        expected = (-(pi0.entries * np.log(pi0.entries)).sum()
                    + 0.5 * (product_term(mu) + product_term(nu)))
        assert val == pytest.approx(expected, abs=1e-6)

    def test_compositional_against_modules(self, rng):
        inst = forward_instance(13, m=3, n=3)
        pi_hat = noised(inst["pi0"], inst["rng"], 5e-3)
        params = hyper(delta=0.07)
        val = relaxed_objective(inst["pi0"], pi_hat, inst["C_u"], inst["C_v"], params)
        mu, nu = inst["pi0"].entries.sum(1), inst["pi0"].entries.sum(0)
        plan_u = sinkhorn(inst["C_u"], mu, pi_hat.entries.sum(1), 1.0).plan
        plan_v = sinkhorn(inst["C_v"], nu, pi_hat.entries.sum(0), 1.0).plan
        expected = (neg_log_likelihood(pi_hat, inst["pi0"])
                    + 0.07 * (regularized_value(plan_u, inst["C_u"], 1.0)
                              + regularized_value(plan_v, inst["C_v"], 1.0)))
        assert val == pytest.approx(expected, abs=1e-8)


class TestRiotGradient:
    def _point_at(self, inst, A, z, w, params):
        return point_at(A, inst["pi_hat"], inst["U"], inst["V"], inst["kern"], z, w, params)

    def _gradient(self, inst, A, point, params):
        return _gradient_at(A, point, as_array(inst["pi_hat"]), inst["U"], inst["V"],
                            inst["kern"], params)

    def test_stationary_at_self_generated_data(self):
        inst = forward_instance(14, m=4, n=4, p=2, q=2)
        inst["pi_hat"] = inst["pi0"]
        params = hyper(delta=0.0)
        point = self._point_at(inst, inst["A0"], np.zeros(4), np.zeros(4), params)
        g = self._gradient(inst, inst["A0"], point, params)
        assert np.linalg.norm(g) <= 1e-5

    def test_linear_kernel_identity_features_entrywise(self, rng):
        from otmatch.kernels import KernelSpec
        m = 3
        pi_hat = random_coupling(rng, m, m)
        z, w = rng.normal(0, 1, m), rng.normal(0, 1, m)
        params = hyper(delta=0.02)
        C = rng.uniform(0, 2, (m, m))
        U = V = np.eye(m)
        kern = KernelSpec("linear")
        point = point_at(C, pi_hat, U, V, kern, z, w, params)
        res, pi = point[:2]
        g = _gradient_at(C, point, pi_hat, U, V, kern, params)
        expected = params.lam * (pi_hat + (res.theta - params.delta
                                           * (z[:, None] + w[None, :])) * pi)
        np.testing.assert_allclose(g, expected, rtol=1e-10)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_finite_differences_with_inner_resolve(self, seed):
        inst = forward_instance(40 + seed, m=4, n=4, p=2, q=2)
        rng = inst["rng"]
        inst["pi_hat"] = noised(inst["pi0"], rng, 3e-3)
        params = hyper(delta=0.01)
        z, w = rng.normal(0, 1, 4), rng.normal(0, 1, 4)
        A = rng.normal(0, 0.3, (2, 2))
        g = self._gradient(inst, A, self._point_at(inst, A, z, w, params), params)

        def energy(A_):
            pi_ = self._point_at(inst, A_, z, w, params)[1]
            ph = inst["pi_hat"].entries
            return (neg_log_likelihood(ph, pi_)
                    + params.delta * (z @ pi_.sum(1) + w @ pi_.sum(0)))

        h = 1e-6
        fd = np.zeros_like(A)
        for i in range(2):
            for j in range(2):
                dA = np.zeros_like(A)
                dA[i, j] = h
                fd[i, j] = (energy(A + dA) - energy(A - dA)) / (2 * h)
        assert np.abs(g - fd).max() / max(np.abs(fd).max(), 1e-12) <= 1e-3


class TestDualUpdate:
    def test_constant_cost_matching_uniform_marginals_gives_constant_potentials(self):
        plan = CouplingMatrix(np.full((3, 4), 1.0 / 12.0))
        zero_u = np.zeros((3, 3))
        zero_v = np.zeros((4, 4))
        z, w = potentials(plan, np.full(3, 1 / 3), np.full(4, 0.25),
                          zero_u, zero_v, hyper())
        assert np.ptp(z) <= 1e-9 and np.ptp(w) <= 1e-9

    def test_constant_cost_matching_marginals_potential_tracks_log_marginal(self):
        # product plan of a constant cost has scalings proportional to the
        # marginal, so z - log(mu)/lam is a constant vector
        inst = forward_instance(16, m=3, n=4)
        plan = inst["pi0"]
        mu_hat, nu_hat = plan.entries.sum(1), plan.entries.sum(0)
        zero_u = np.zeros((3, 3))
        zero_v = np.zeros((4, 4))
        z, w = potentials(plan, mu_hat, nu_hat, zero_u, zero_v, hyper())
        assert np.ptp(z - np.log(mu_hat)) <= 1e-9
        assert np.ptp(w - np.log(nu_hat)) <= 1e-9

    def test_one_by_one(self):
        plan = CouplingMatrix([[1.0]])
        z, w = potentials(plan, np.array([1.0]), np.array([1.0]),
                          np.array([[0.0]]), np.array([[0.0]]), hyper())
        assert np.isfinite(z[0]) and np.isfinite(w[0])

    def test_duality_identity(self, rng):
        # <z, mu> + <z^C, muhat> - 1/lam_u equals the primal value on a random
        # instance, and the closed forms on a 1x1 cost (C - 1/lam_u) and on a
        # constant cost (the uniform product plan, -(1 + log 4)/lam_u at 2x2)
        inst = forward_instance(17, m=4, n=3)
        uniform = np.full(2, 0.5)
        zero = np.zeros((2, 2))
        cases = [
            (noised(inst["pi0"], inst["rng"], 4e-3), random_marginal(rng, 4),
             random_marginal(rng, 3), inst["C_u"], inst["C_v"], None),
            (CouplingMatrix([[1.0]]), np.ones(1), np.ones(1),
             np.array([[2.5]]), np.array([[2.5]]), 1.5),
            (CouplingMatrix(np.full((2, 2), 0.25)), uniform, uniform, zero, zero,
             -(1.0 + np.log(4.0))),
        ]
        params = hyper()
        for plan, mu_hat, nu_hat, C_u, C_v, closed_form in cases:
            z, w = potentials(plan, mu_hat, nu_hat, C_u, C_v, params)
            mu = plan.entries.sum(1)
            z_conj = conjugate_potential(z, C_u, mu_hat, params.lam_u)
            dual = z @ mu + z_conj @ mu_hat - 1.0 / params.lam_u
            primal = regularized_value(sinkhorn(C_u, mu, mu_hat, params.lam_u).plan,
                                       C_u, params.lam_u)
            assert dual == pytest.approx(primal, abs=1e-6)
            if closed_form is not None:
                assert dual == pytest.approx(closed_form, abs=1e-9)

    def test_relaxation_dual_from_nearby_potential(self):
        # A cold and a warm solve, each against the exact solution. A solve
        # ends within sinkhorn_tol (l1) of the column marginal, and a marginal
        # error e moves the plan by about e / gap and the potential on entry i
        # by about e / (lam_u mu_i gap), where gap = 1 - s_2^2 is the spectral
        # gap of the plan, s_2 the second singular value of
        # diag(P1)^-1/2 P diag(P'1)^-1/2 (plain Sinkhorn contracts by s_2^2).
        # The two solves can end on opposite sides of the solution, so they
        # are compared with it, not with each other.
        params = hyper()
        exact = hyper(sinkhorn_tol=1e-15, sinkhorn_max_iters=100000)
        for seed in range(19, 219):
            inst = forward_instance(seed, m=5, n=4)
            mu = noised(inst["pi0"], inst["rng"], 4e-3).entries.sum(1)
            mu_hat = inst["pi0"].entries.sum(1)
            cold = _relaxation_dual(inst["C_u"], mu, mu_hat, params.lam_u, params)
            nearby = cold[0] + inst["rng"].normal(0.0, 0.5, mu.size)
            warm = _relaxation_dual(inst["C_u"], mu, mu_hat, params.lam_u, params, nearby)
            z_ref, value_ref, plan_ref = _relaxation_dual(inst["C_u"], mu, mu_hat,
                                                          params.lam_u, exact)
            scaled = plan_ref / np.sqrt(np.outer(plan_ref.sum(1), plan_ref.sum(0)))
            gap = 1.0 - np.linalg.svd(scaled, compute_uv=False)[1] ** 2
            tol = params.sinkhorn_tol / gap
            for z_k, value_k, plan_k in (cold, warm):
                np.testing.assert_allclose(
                    z_k, z_ref, rtol=0,
                    atol=tol / (params.lam_u * min(mu.min(), mu_hat.min())),
                    err_msg=f"seed {seed}")
                assert value_k == pytest.approx(value_ref, abs=tol), seed
                assert np.abs(plan_k - plan_ref).sum() <= tol, seed

    def test_relaxation_solve_from_nearby_potential_takes_few_sweeps(self):
        # The warm start's last plain contraction comes from before the
        # linear regime and gives omega = 1.21; measured again after the first
        # hundredfold error drop, omega is 1.69. Measured once, the solve
        # takes 248 sweeps; the plain loop takes 379 and this one 68.
        inst = forward_instance(19, m=5, n=4)
        params = hyper()
        mu = noised(inst["pi0"], inst["rng"], 4e-3).entries.sum(1)
        mu_hat = inst["pi0"].entries.sum(1)
        z = _relaxation_dual(inst["C_u"], mu, mu_hat, params.lam_u, params)[0]
        start = params.lam_u * (z + inst["rng"].normal(0.0, 0.5, z.size))
        args = inst["C_u"], mu, mu_hat, params.lam_u, params.sinkhorn_tol
        plain = plain_sinkhorn(*args, log_left_init=start)
        res = sinkhorn(*args, log_left_init=start)
        assert res.iterations <= 0.2 * plain[1]
        assert np.abs(res.plan.entries - plain[0]).sum() <= params.sinkhorn_tol

    def test_costly_row_keeps_the_potential_finite(self, rng):
        # exp(lam_u z_0) overflows: the balanced potential z_0 is about 1749
        C_u = euclidean_cost(rng, 4)
        C_u[0] += 2000.0
        uniform = np.full(4, 0.25)
        params = hyper()
        z, value, plan = _relaxation_dual(C_u, uniform, uniform, 1.0, params)
        assert np.all(np.isfinite(z)) and z[0] > 1000.0
        assert value == pytest.approx(regularized_value(plan, C_u, 1.0), rel=1e-12)
        _, _, plan_warm = _relaxation_dual(C_u, uniform, uniform, 1.0, params, z)
        assert np.abs(plan_warm - plan).sum() <= params.sinkhorn_tol


class TestPredictedStart:
    def test_exact_on_increments_of_period_two(self, rng):
        steps = rng.integers(-9, 10, (2, 6)).astype(float)
        history = [rng.integers(-9, 10, 6).astype(float)]
        for k in range(7):
            history.append(history[-1] + steps[k % 2])
        for k in range(3, 8):
            np.testing.assert_array_equal(_predicted_start(history[:k]), history[k])

    @pytest.mark.parametrize("extrapolated", [True, False])
    def test_constant_shift_moves_the_start_by_it(self, rng, extrapolated):
        # Three solutions are extrapolated, two give the newest.
        history = list(rng.normal(0.0, 1.0, (3 if extrapolated else 2, 5)))
        shifted = [x + 3.7 for x in history]
        np.testing.assert_allclose(_predicted_start(shifted), _predicted_start(history) + 3.7,
                                   rtol=0, atol=1e-12)

    def test_short_history_returns_the_newest(self, rng):
        history = list(rng.normal(0.0, 1.0, (2, 5)))
        for k in range(1, 3):
            np.testing.assert_array_equal(_predicted_start(history[:k]), history[k - 1])


class TestRiotFit:
    def test_noise_free_recovery(self):
        inst = forward_instance(18, m=5, n=5, p=3, q=2)
        params = hyper(delta=0.001, step_size=30.0, outer_iters=100)
        result = riot_fit(inst["pi0"], inst["U"], inst["V"], inst["kern"],
                          inst["C_u"], inst["C_v"], params)
        assert kl_divergence(inst["pi0"], result.fitted_plan) <= 1e-3

    def test_delta_zero_matches_iot_trajectory(self):
        inst = forward_instance(19, m=3, n=3, p=2, q=2)
        pi_hat = noised(inst["pi0"], inst["rng"], 3e-3)
        params = hyper(delta=0.0, step_size=5.0, outer_iters=10)
        zero_u = np.zeros((3, 3))
        zero_v = np.zeros((3, 3))
        fr = riot_fit(pi_hat, inst["U"], inst["V"], inst["kern"], zero_u, zero_v, params)
        fi = iot_fit(pi_hat, inst["U"], inst["V"], inst["kern"], params)
        ph = pi_hat.entries
        const = float((ph[ph > 0] * np.log(ph[ph > 0])).sum())
        np.testing.assert_allclose(fr.objective_trace + const, fi.objective_trace,
                                   atol=1e-6)
        np.testing.assert_allclose(fr.fitted_plan.entries, fi.fitted_plan.entries,
                                   atol=1e-6)

    @pytest.mark.parametrize("seed, m, n, lam, sigma", [
        (3, 4, 3, 0.1, 0.008382009313692856),
        (2610708129, 3, 4, 0.22911836204234587, 0.00446542243325757),
    ])
    def test_far_trials_at_delta_zero_do_not_end_the_fit(self, seed, m, n, lam, sigma):
        # delta = 0 runs quasi-Newton steps. On the first market a unit step
        # makes exp(-lam C) underflow; on the second the fit walks out to
        # |A| ~ 580, where a steepest-descent trial after a failed
        # quasi-Newton search has no multiplier root. Both trials are
        # rejected, and the fit ends below the objective of 100 fixed steps.
        inst = forward_instance(seed, m=m, n=n, lam=lam)
        pi_hat = noised(inst["pi0"], inst["rng"], sigma)
        params = hyper(lam=lam, delta=0.0, outer_iters=100)
        result = riot_fit(pi_hat, inst["U"], inst["V"], inst["kern"],
                          inst["C_u"], inst["C_v"], params)
        trace = result.objective_trace
        assert np.all(np.isfinite(trace)) and np.all(np.diff(trace) <= 0)
        ph = pi_hat.entries
        blocks = (inst["C_u"], inst["C_v"], np.zeros(m), np.zeros(n))

        def evaluate(A):
            return _evaluate_at(A, ph, ph.sum(1), ph.sum(0), inst["U"], inst["V"],
                                inst["kern"], blocks, params)

        # A refresh that changes nothing keeps the fixed-step path.
        (reference, _, _), _, _ = descend(
            np.zeros_like(result.A), evaluate,
            lambda A, point: _gradient_at(A, point, ph, inst["U"], inst["V"],
                                          inst["kern"], params),
            params, lambda point: None)
        assert trace[-1] < reference

    def test_far_market_fails_its_multiplier_roots_fast(self, monkeypatch):
        # The second market above: once the fit walks out to |A| ~ 580, the
        # scalings of many trials overflow, and their roots see non-finite
        # input (244 of 373 evaluations). Each raises before any Newton step,
        # where it used to run all 200 first; the error type, and with it the
        # fit, is the same. With every inner solve started cold the fit ends
        # at 2.2843413159, as it did before; the warm starts move the far-out
        # path, and the end objective by about 1.5e-8.
        seed, m, n, lam, sigma = 2610708129, 3, 4, 0.22911836204234587, 0.00446542243325757
        messages = []

        def root(*args):
            try:
                return _theta_root(*args)
            except RootFindingError as err:
                messages.append(str(err))
                raise

        monkeypatch.setattr(riot, "_theta_root", root)
        inst = forward_instance(seed, m=m, n=n, lam=lam)
        pi_hat = noised(inst["pi0"], inst["rng"], sigma)
        result = riot_fit(pi_hat, inst["U"], inst["V"], inst["kern"], inst["C_u"], inst["C_v"],
                          hyper(lam=lam, delta=0.0, outer_iters=100))
        assert len(messages) >= 50
        assert all("non-finite" in message for message in messages)
        assert result.objective_trace[-1] == pytest.approx(2.2843413159423562, rel=1e-6)

    def test_constraint_maintained_in_state(self):
        inst = forward_instance(20, m=4, n=4, p=2, q=2)
        pi_hat = noised(inst["pi0"], inst["rng"], 5e-3)
        params = hyper(outer_iters=5)
        result = riot_fit(pi_hat, inst["U"], inst["V"], inst["kern"],
                          inst["C_u"], inst["C_v"], params)
        C = kernel_cost(inst["U"], inst["V"], result.A, inst["kern"])
        Z = np.exp(-params.lam * C)
        assert abs(result.xi @ Z @ result.eta - 1.0) <= 1e-8

    def test_returns_best_objective_iterate(self):
        inst = forward_instance(21, m=4, n=4, p=2, q=2)
        pi_hat = noised(inst["pi0"], inst["rng"], 5e-3)
        params = hyper(outer_iters=10)
        result = riot_fit(pi_hat, inst["U"], inst["V"], inst["kern"],
                          inst["C_u"], inst["C_v"], params)
        ph = pi_hat.entries
        blocks = (inst["C_u"], inst["C_v"], result.z, result.w)
        obj = _evaluate_at(result.A, ph, ph.sum(1), ph.sum(0), inst["U"], inst["V"],
                           inst["kern"], blocks, params)[0]
        assert obj == pytest.approx(result.objective_trace.min())

    def test_product_coupling_stops_before_first_step(self, rng):
        # A = 0 gives a constant cost, whose plan is already the product
        # coupling, so both fits exit on a vanishing gradient.
        inst = forward_instance(23, m=4, n=3, p=2, q=2)
        pi_hat = np.outer(random_marginal(rng, 4), random_marginal(rng, 3))
        params = hyper(delta=0.0)
        fi = iot_fit(pi_hat, inst["U"], inst["V"], inst["kern"], params)
        fr = riot_fit(pi_hat, inst["U"], inst["V"], inst["kern"],
                      np.zeros((4, 4)), np.zeros((3, 3)), params)
        assert fi.iterations == 0
        for fit in (fi, fr):
            assert fit.objective_trace.size == 1
            np.testing.assert_allclose(fit.A, 0.0)

    @pytest.mark.parametrize("joint", [False, True])
    @pytest.mark.parametrize("delta", [0.0, 0.01])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_empty_row_or_column_rejected_before_any_solve(self, joint, delta, axis):
        inst = forward_instance(25, m=4, n=3, p=2, q=2)
        pi_hat = noised(inst["pi0"], inst["rng"], 3e-3).entries.copy()
        if axis == 0:
            pi_hat[1] = 0.0
        else:
            pi_hat[:, 1] = 0.0
        pi_hat = CouplingMatrix(pi_hat / pi_hat.sum())
        params = hyper(delta=delta, outer_iters=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="strictly positive"):
                if joint:
                    joint_fit(pi_hat, inst["U"], inst["V"], inst["kern"], params)
                else:
                    riot_fit(pi_hat, inst["U"], inst["V"], inst["kern"],
                             inst["C_u"], inst["C_v"], params)


@st.composite
def relaxed_markets(draw):
    """A kernel market with m, n in [3, 6], noise sigma in [0, 1e-2],
    lam in [0.1, 10] and delta in {0.01, 0.3, 1}, and its fit's settings."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    m, n = draw(st.integers(3, 6)), draw(st.integers(3, 6))
    sigma = draw(st.floats(0.0, 1e-2))
    lam = draw(st.floats(0.1, 10.0))
    delta = draw(st.sampled_from([0.01, 0.3, 1.0]))
    inst = forward_instance(seed, m=m, n=n, lam=lam)
    return inst, noised(inst["pi0"], inst["rng"], sigma), hyper(lam=lam, delta=delta,
                                                               outer_iters=10)


@settings(max_examples=30)
@given(relaxed_markets())
def test_riot_fit_returns_its_best_finite_iterate_or_raises_typed(market):
    """A fit returns a finite trace and the iterate of its least objective,
    whose plan is the coupling xi_i Z_ij eta_j on xi' Z eta = 1; or it raises
    a typed error. Re-evaluated cold at the returned A and potentials, the
    objective is the trace's minimum up to the solves' tolerances."""
    inst, pi_hat, params = market
    args = inst["U"], inst["V"], inst["kern"]
    try:
        result = riot_fit(pi_hat, *args, inst["C_u"], inst["C_v"], params)
    except OtmatchError as err:
        event(f"raised {type(err).__name__}")
        return
    event("returned")
    trace = result.objective_trace
    assert trace.size <= params.outer_iters + 1 and np.all(np.isfinite(trace))
    ph = pi_hat.entries
    blocks = (inst["C_u"], inst["C_v"], result.z, result.w)
    obj, (_, plan, _, _) = _evaluate_at(result.A, ph, ph.sum(1), ph.sum(0), *args, blocks,
                                        params)
    assert obj == pytest.approx(trace.min(), rel=1e-7, abs=1e-7)
    np.testing.assert_allclose(result.fitted_plan.entries, plan, rtol=1e-6, atol=1e-12)
    Z = np.exp(-params.lam * kernel_cost(*args[:2], result.A, inst["kern"]))
    assert abs(result.xi @ Z @ result.eta - 1.0) <= 1e-8


def bench_market(seed, m):
    """A market shaped like the benchmark's: 10 and 8 features, near-uniform
    marginals, noise 8e-3 and unit-grid side costs."""
    inst = forward_instance(seed, m=m, n=m, p=10, q=8, conc=50.0)
    return inst, noised(inst["pi0"], inst["rng"], 8e-3), unit_grid_distances(m)


def relaxation_sweeps(monkeypatch, market, params):
    """The fit of a market and the Sinkhorn sweeps of its relaxation solves,
    every ``riot.sinkhorn`` call of a fixed side-cost fit."""
    sweeps = []

    def counted(*args, **kwargs):
        res = sinkhorn(*args, **kwargs)
        sweeps.append(res.iterations)
        return res

    monkeypatch.setattr(riot, "sinkhorn", counted)
    inst, pi_hat, side = market
    fit = riot_fit(pi_hat, inst["U"], inst["V"], inst["kern"], side, side, params)
    return fit, sum(sweeps)


def start_from_blocks(monkeypatch):
    """Start every relaxation solve from the blocks' potentials (z, w)."""
    evaluate = riot._evaluate_at
    monkeypatch.setattr(riot, "_evaluate_at",
                        lambda *args, relax_start=None, **kwargs: evaluate(*args, **kwargs))


class TestRelaxationStarts:
    def test_predicted_starts_save_sweeps(self, monkeypatch):
        # Read: 1211 sweeps, against 1513 from the blocks' potentials. The
        # first steps move the potentials most and save least: at 20 outer
        # iterations the two read 661 and 743.
        market, params = bench_market(2, 20), HyperParams()
        fit, sweeps = relaxation_sweeps(monkeypatch, market, params)
        start_from_blocks(monkeypatch)
        ref, ref_sweeps = relaxation_sweeps(monkeypatch, market, params)
        assert sweeps <= 0.85 * ref_sweeps
        assert np.abs(fit.A - ref.A).max() <= 1e-9 * np.abs(ref.A).max()
        np.testing.assert_allclose(fit.objective_trace, ref.objective_trace, rtol=1e-9)

    def test_solves_far_from_their_solutions_take_no_more_sweeps(self, monkeypatch):
        # At lam_u = lam_v = 3 a solve takes 120 to 1800 sweeps and stops up
        # to tol / gap from its solution, an error extrapolation amplifies.
        # Read: 15758 sweeps over 26 solves with the rule, 16504 from the
        # blocks' potentials.
        market = bench_market(3, 12)
        params = HyperParams(lam_u=3.0, lam_v=3.0, outer_iters=12)
        _, sweeps = relaxation_sweeps(monkeypatch, market, params)
        start_from_blocks(monkeypatch)
        _, blocks_sweeps = relaxation_sweeps(monkeypatch, market, params)
        assert sweeps <= blocks_sweeps


class TestPredictMatching:
    def test_constant_cost_gives_product_coupling(self, rng):
        mu, nu = random_marginal(rng, 4), random_marginal(rng, 5)
        from conftest import poly_kernel
        plan = predict_matching(np.zeros((3, 2)), rng.normal(0, 1, (3, 4)),
                                rng.normal(0, 1, (2, 5)), mu, nu, poly_kernel(), 1.0)
        np.testing.assert_allclose(plan.entries, np.outer(mu, nu), atol=1e-9)

    def test_round_trip_reproduces_training_plan(self):
        inst = forward_instance(24, m=5, n=4, p=3, q=2)
        pi_hat = noised(inst["pi0"], inst["rng"], 5e-3)
        params = hyper(outer_iters=8)
        fit = riot_fit(pi_hat, inst["U"], inst["V"], inst["kern"],
                       inst["C_u"], inst["C_v"], params)
        mu, nu = fit.fitted_plan.entries.sum(1), fit.fitted_plan.entries.sum(0)
        plan = predict_matching(fit.A, inst["U"], inst["V"], mu, nu,
                                inst["kern"], params.lam)
        np.testing.assert_allclose(plan.entries, fit.fitted_plan.entries, atol=1e-8)

    def test_single_new_user_row_follows_item_marginal(self, rng):
        from conftest import poly_kernel
        nu = random_marginal(rng, 6)
        plan = predict_matching(rng.normal(0, 1, (3, 2)), rng.normal(0, 1, (3, 1)),
                                rng.normal(0, 1, (2, 6)), np.array([1.0]), nu,
                                poly_kernel(), 1.0)
        np.testing.assert_allclose(plan.entries[0], nu, atol=1e-9)

    def test_shift_gauge_invariance(self, rng):
        C = rng.uniform(0, 2, (4, 4))
        mu, nu = random_marginal(rng, 4), random_marginal(rng, 4)
        base = sinkhorn(C, mu, nu, 1.0).plan.entries
        shifted = sinkhorn(C + 3.7, mu, nu, 1.0).plan.entries
        np.testing.assert_allclose(base, shifted, atol=1e-9)
