import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from otmatch.containers import CostMatrix, CouplingMatrix, HyperParams, as_array
from otmatch.errors import ValidationError
from otmatch.iot import iot_fit, _neg_log_likelihood
from otmatch.bounds import kl_divergence, cost_shift_distance
from otmatch.joint import joint_fit
from otmatch.kernels import kernel_cost
from otmatch.riot import (_evaluate_at, _gradient_at, _inner_solve_raw, _relaxation_dual,
                          _relaxed_objective, _theta_root, predict_matching, riot_fit)
from otmatch.sinkhorn import rot_distance, sinkhorn
from otmatch.synth import SynthConfig, add_noise, generate_instance

from conftest import (conjugate_potential, forward_instance, inner_objective, noised,
                      random_coupling, random_marginal)


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
    return _relaxed_objective(as_array(pi_hat), as_array(plan), C_u, C_v, params)[0]


def potentials(plan, mu_hat, nu_hat, C_u, C_v, params):
    """Cold relaxation potentials (z, w) of a plan's marginals, as the joint
    fit refreshes them."""
    p = as_array(plan)
    return (_relaxation_dual(C_u, p.sum(1), mu_hat, params.lam_u, params)[0],
            _relaxation_dual(C_v, p.sum(0), nu_hat, params.lam_v, params)[0])


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
def test_theta_root_from_any_guess(problem):
    """The cold root meets the residual or sits where no float lies between
    it and the root; every guess returns it. p' >= 1 at the root (Jensen),
    so the residual bounds the distance between two roots by about 2e-13."""
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
        inst = forward_instance(10, m=3, n=3)
        pi0 = inst["pi0"].entries
        Z = np.exp(-inst["C0"].entries)
        res = _inner_solve_raw(pi0.sum(1), pi0.sum(0), np.zeros((3, 3)), Z, 0)
        assert res.xi @ Z @ res.eta == pytest.approx(1.0, abs=1e-12)
        assert np.ptp(res.xi) == 0.0 and np.ptp(res.eta) == 0.0
        assert res.theta == res.theta2 == 0.0

    def test_one_by_one_closed_form(self):
        Z = np.array([[0.6]])
        M = np.array([[0.3]])
        res = _inner_solve_raw(np.array([1.0]), np.array([1.0]), M, Z, 4)
        assert res.xi[0] * res.eta[0] == pytest.approx(1.0 / 0.6, abs=1e-10)
        assert res.theta == pytest.approx(0.3 / 0.6 - 1.0, abs=1e-10)
        assert res.theta2 == pytest.approx(res.theta, abs=1e-10)

    def test_kkt_and_monotonicity_random(self, rng):
        for _ in range(3):
            Z = np.exp(-rng.uniform(0, 2, (3, 3)))
            M = 0.01 * (rng.normal(0, 1, 3)[:, None] + rng.normal(0, 1, 3)[None, :]) * Z
            pi_hat = random_coupling(rng, 3, 3)
            mu_hat, nu_hat = pi_hat.sum(1), pi_hat.sum(0)
            # Prefix runs give the iterates (xi_k, eta_k) after k pairs; the
            # objective is read after every half-update along the chain.
            runs = [_inner_solve_raw(mu_hat, nu_hat, M, Z, k) for k in range(51)]
            h = [inner_objective(runs[0].xi, runs[0].eta, mu_hat, nu_hat, M)]
            for prev, cur in zip(runs, runs[1:]):
                h.append(inner_objective(cur.xi, prev.eta, mu_hat, nu_hat, M))
                h.append(inner_objective(cur.xi, cur.eta, mu_hat, nu_hat, M))
            assert np.all(np.diff(h) <= 1e-9)
            res = runs[-1]
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
            blocks = (inst.C_u.entries, inst.C_v.entries, z, w)
            res = _evaluate_at(A, pi_hat, mu_hat, nu_hat, inst.U, inst.V, cfg.kernel,
                               blocks, cfg.hyper)[1][0]
            Z = np.exp(-cfg.hyper.lam * kernel_cost(inst.U, inst.V, A, cfg.kernel).entries)
            M = cfg.hyper.delta * (z[:, None] + w[None, :]) * Z
            assert res.multiplier_gap <= 1e-10
            kkt = -mu_hat + res.xi * (M @ res.eta - res.theta * (Z @ res.eta))
            assert np.abs(kkt).max() <= 1e-10


class TestRiotObjective:
    def test_delta_zero_reduces_to_likelihood(self, rng):
        inst = forward_instance(11)
        pi_hat = noised(inst["pi0"], inst["rng"], 3e-3)
        state = inst["pi0"]
        val = relaxed_objective(state, pi_hat, inst["C_u"], inst["C_v"], hyper(delta=0.0))
        expected = _neg_log_likelihood(pi_hat.entries, inst["pi0"].entries)
        assert val == pytest.approx(expected, abs=1e-12)

    def test_constant_side_costs_closed_form(self):
        inst = forward_instance(12, m=3, n=3)
        pi0 = inst["pi0"]
        mu = pi0.entries.sum(1)
        nu = pi0.entries.sum(0)
        zero3 = CostMatrix(np.zeros((3, 3)))
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
        expected = (_neg_log_likelihood(pi_hat.entries, inst["pi0"].entries)
                    + 0.07 * (rot_distance(inst["C_u"], mu, pi_hat.entries.sum(1), 1.0)
                              + rot_distance(inst["C_v"], nu, pi_hat.entries.sum(0), 1.0)))
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
            return (_neg_log_likelihood(ph, pi_)
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
        zero_u = CostMatrix(np.zeros((3, 3)))
        zero_v = CostMatrix(np.zeros((4, 4)))
        z, w = potentials(plan, np.full(3, 1 / 3), np.full(4, 0.25),
                          zero_u, zero_v, hyper())
        assert np.ptp(z) <= 1e-9 and np.ptp(w) <= 1e-9

    def test_constant_cost_matching_marginals_potential_tracks_log_marginal(self):
        # product plan of a constant cost has scalings proportional to the
        # marginal, so z - log(mu)/lam is a constant vector
        inst = forward_instance(16, m=3, n=4)
        plan = inst["pi0"]
        mu_hat, nu_hat = plan.entries.sum(1), plan.entries.sum(0)
        zero_u = CostMatrix(np.zeros((3, 3)))
        zero_v = CostMatrix(np.zeros((4, 4)))
        z, w = potentials(plan, mu_hat, nu_hat, zero_u, zero_v, hyper())
        assert np.ptp(z - np.log(mu_hat)) <= 1e-9
        assert np.ptp(w - np.log(nu_hat)) <= 1e-9

    def test_one_by_one(self):
        plan = CouplingMatrix([[1.0]])
        z, w = potentials(plan, np.array([1.0]), np.array([1.0]),
                          CostMatrix([[0.0]]), CostMatrix([[0.0]]), hyper())
        assert np.isfinite(z[0]) and np.isfinite(w[0])

    def test_duality_identity(self, rng):
        # <z, mu> + <z^C, muhat> - 1/lam_u equals the primal value on a random
        # instance, and the closed forms on a 1x1 cost (C - 1/lam_u) and on a
        # constant cost (the uniform product plan, -(1 + log 4)/lam_u at 2x2)
        inst = forward_instance(17, m=4, n=3)
        uniform = np.full(2, 0.5)
        zero = CostMatrix(np.zeros((2, 2)))
        cases = [
            (noised(inst["pi0"], inst["rng"], 4e-3), random_marginal(rng, 4),
             random_marginal(rng, 3), inst["C_u"], inst["C_v"], None),
            (CouplingMatrix([[1.0]]), np.ones(1), np.ones(1),
             CostMatrix([[2.5]]), CostMatrix([[2.5]]), 1.5),
            (CouplingMatrix(np.full((2, 2), 0.25)), uniform, uniform, zero, zero,
             -(1.0 + np.log(4.0))),
        ]
        params = hyper()
        for plan, mu_hat, nu_hat, C_u, C_v, closed_form in cases:
            z, w = potentials(plan, mu_hat, nu_hat, C_u, C_v, params)
            mu = plan.entries.sum(1)
            z_conj = conjugate_potential(z, C_u, mu_hat, params.lam_u)
            dual = z @ mu + z_conj @ mu_hat - 1.0 / params.lam_u
            primal = rot_distance(C_u, mu, mu_hat, params.lam_u)
            assert dual == pytest.approx(primal, abs=1e-6)
            if closed_form is not None:
                assert dual == pytest.approx(closed_form, abs=1e-9)

    def test_relaxation_dual_from_nearby_potential(self):
        inst = forward_instance(19, m=5, n=4)
        params = hyper()
        mu = noised(inst["pi0"], inst["rng"], 4e-3).entries.sum(1)
        mu_hat = inst["pi0"].entries.sum(1)
        z, value, plan = _relaxation_dual(inst["C_u"], mu, mu_hat, params.lam_u, params)
        nearby = z + inst["rng"].normal(0.0, 0.5, z.size)
        z_warm, value_warm, plan_warm = _relaxation_dual(
            inst["C_u"], mu, mu_hat, params.lam_u, params, nearby)
        # each solve ends within sinkhorn_tol (l1) of the column marginal; a
        # marginal error e on entry i moves the potential by about
        # e / (lam_u mu_i)
        tol = params.sinkhorn_tol
        np.testing.assert_allclose(z_warm, z, rtol=0,
                                   atol=tol / (params.lam_u * min(mu.min(), mu_hat.min())))
        assert value_warm == pytest.approx(value, abs=tol)
        assert np.abs(plan_warm - plan).sum() <= tol


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
        zero_u = CostMatrix(np.zeros((3, 3)))
        zero_v = CostMatrix(np.zeros((3, 3)))
        fr = riot_fit(pi_hat, inst["U"], inst["V"], inst["kern"], zero_u, zero_v, params)
        fi = iot_fit(pi_hat, inst["U"], inst["V"], inst["kern"], params)
        ph = pi_hat.entries
        const = float((ph[ph > 0] * np.log(ph[ph > 0])).sum())
        np.testing.assert_allclose(fr.objective_trace + const, fi.objective_trace,
                                   atol=1e-6)
        np.testing.assert_allclose(fr.fitted_plan.entries, fi.fitted_plan.entries,
                                   atol=1e-6)

    def test_constraint_maintained_in_state(self):
        inst = forward_instance(20, m=4, n=4, p=2, q=2)
        pi_hat = noised(inst["pi0"], inst["rng"], 5e-3)
        params = hyper(outer_iters=5)
        result = riot_fit(pi_hat, inst["U"], inst["V"], inst["kern"],
                          inst["C_u"], inst["C_v"], params)
        C = kernel_cost(inst["U"], inst["V"], result.A, inst["kern"]).entries
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
                      CostMatrix(np.zeros((4, 4))), CostMatrix(np.zeros((3, 3))), params)
        assert fi.iterations == 0
        for fit in (fi, fr):
            assert fit.objective_trace.size == 1
            np.testing.assert_allclose(fit.A.entries, 0.0)

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
