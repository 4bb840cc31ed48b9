import itertools
import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from otmatch import joint
from otmatch.containers import HyperParams
from otmatch.errors import ProjectionError, ValidationError
from otmatch.joint import _triangle_table, joint_fit, project_metric_simplex
from otmatch.riot import _relaxation_dual, riot_fit
from otmatch.sinkhorn import sinkhorn

from conftest import (euclidean_cost, forward_instance, full_sweep_projection, noised,
                      random_marginal, regularized_value)


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


def triangle_oracle(d):
    """Rows (ij, ik, kj) for i < j, then k, over the upper-tri edge numbering."""
    pairs = list(itertools.combinations(range(d), 2))
    pos = {pair: e for e, pair in enumerate(pairs)}
    return [(pos[(i, j)], pos[tuple(sorted((i, k)))], pos[tuple(sorted((k, j)))])
            for i, j in pairs for k in range(d) if k not in (i, j)]


@pytest.mark.parametrize("d", range(3, 9))
def test_triangle_table_matches_oracle_in_order(d):
    e0, e1, e2, triples = _triangle_table(d)
    assert list(zip(e0.tolist(), e1.tolist(), e2.tolist())) == triangle_oracle(d)
    assert list(triples) == triangle_oracle(d)
    assert not any(e.flags.writeable for e in (e0, e1, e2))


def unit_grid_distances(d, largest=10.0):
    """Distances between d points of a unit grid scaled to a largest entry,
    the shape of a side cost built from individuals on a grid."""
    cols = int(np.ceil(np.sqrt(d)))
    pts = np.array([(k // cols, k % cols) for k in range(d)], dtype=float)
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
    return dist * (largest / dist.max())


@pytest.mark.parametrize("kind", ["grid", "euclidean", "uniform"])
@pytest.mark.parametrize("d", [5, 12, 20])
def test_working_set_matches_full_sweep(d, kind):
    rng = np.random.default_rng(100 + d)
    raw = {"grid": lambda: unit_grid_distances(d),
           "euclidean": lambda: euclidean_cost(rng, d),
           "uniform": lambda: rng.uniform(-1.0, 1.0, (d, d))}[kind]()
    out = project_metric_simplex(raw).entries
    np.testing.assert_allclose(out, full_sweep_projection(raw), rtol=0, atol=1e-9)
    assert all_triangle_violations(out) <= 1e-7


@settings(max_examples=100)
@given(st.integers(3, 7).flatmap(
           lambda d: hnp.arrays(float, (d, d), elements=st.floats(-100.0, 100.0))),
       st.integers(0, 2**32 - 1))
def test_projection_feasible_and_nearest(raw, seed):
    """The output is feasible and satisfies the projection's variational
    inequality <x0 - x*, y - x*> <= 0 for feasible y (up to 1e-7)."""
    out = project_metric_simplex(raw).entries
    assert all_triangle_violations(out) <= 1e-7
    assert out.sum() == pytest.approx(1.0, abs=1e-7)
    np.testing.assert_array_equal(out, out.T)
    np.testing.assert_array_equal(np.diag(out), 0.0)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        y = feasible_metric_simplex_point(rng, raw.shape[0])
        assert ((raw - out) * (y - out)).sum() <= 1e-7


def test_negative_constant_projects_to_uniform():
    # the unique projection of a permutation-invariant input is invariant
    out = project_metric_simplex(np.full((3, 3), -3.0)).entries
    expected = np.full((3, 3), 1.0 / 6.0)
    np.fill_diagonal(expected, 0.0)
    np.testing.assert_allclose(out, expected, atol=1e-7)


@pytest.mark.parametrize("edges,expected", [
    ((-9.0, -10.0, -7.0), (0.25, 0.0, 0.25)),
    ((-3.0, -7.0, -8.0), (0.25, 0.25, 0.0)),
])
def test_three_by_three_projection_pinned(edges, expected):
    # edge order (01, 02, 12); each answer is checked by its KKT multipliers
    raw = np.zeros((3, 3))
    raw[np.triu_indices(3, k=1)] = edges
    out = project_metric_simplex(raw + raw.T).entries
    np.testing.assert_allclose(out[np.triu_indices(3, k=1)], expected, atol=1e-9)


@pytest.mark.parametrize("scale,d", [
    (1000.0, 5),
    # Known defect: Dykstra converges slowly on this input, whose projection
    # zeroes many edges; it needs about 9 400 cycles, more than the budget.
    pytest.param(100.0, 12, marks=pytest.mark.xfail(
        raises=ProjectionError, reason="needs more than 5000 Dykstra cycles")),
])
def test_large_scale_metric_projects(rng, scale, d):
    out = project_metric_simplex(scale * euclidean_cost(rng, d)).entries
    assert all_triangle_violations(out) <= 1e-7


def triangle_count(d):
    return d * (d - 1) * (d - 2) // 2


@settings(max_examples=60)
@given(st.integers(3, 8), st.floats(-6.0, 0.0), st.floats(-10.0, 1.0),
       st.integers(0, 2**32 - 1))
def test_warm_start_chain_matches_full_sweep(d, log_start, log_jump, seed):
    """Project y0, then y1 = x0 + eps * noise from the corrections x0 left: the
    result is the projection of y1 however far it jumps. y0 stays within a
    unit noise of the set, as a projected-gradient step does; the corrections
    of a far input can cost more cycles than the budget."""
    rng = np.random.default_rng(seed)
    n0, n1 = rng.normal(size=(2, d, d))
    y0 = feasible_metric_simplex_point(rng, d) + 10.0 ** log_start * (n0 + n0.T)
    duals = np.zeros(triangle_count(d))
    x0 = project_metric_simplex(y0, duals).entries
    y1 = x0 + 10.0 ** log_jump * (n1 + n1.T)
    x1 = project_metric_simplex(y1, duals).entries
    np.testing.assert_allclose(x1, full_sweep_projection(y1), rtol=0, atol=1e-9)


def test_returned_duals_are_the_final_corrections(rng):
    # the output is the hyperplane projection of the input minus A'alpha, and
    # only tight triangles carry a correction
    d = 6
    raw = rng.normal(0.0, 1.0, (d, d))
    duals = np.zeros(triangle_count(d))
    out = project_metric_simplex(raw, duals).entries
    e0, e1, e2, _ = _triangle_table(d)
    iu = np.triu_indices(d, k=1)
    start = 0.5 * (raw + raw.T)[iu]
    for e, sign in ((e0, 1.0), (e1, -1.0), (e2, -1.0)):
        start -= sign * np.bincount(e, duals, iu[0].size)
    start -= (start.sum() - 0.5) / start.size
    np.testing.assert_allclose(out[iu], start, rtol=0, atol=1e-12)
    assert np.all(duals >= 0.0) and duals.any()
    xv = out[iu]
    assert np.abs((xv[e0] - xv[e1] - xv[e2])[duals > 0.0]).max() <= 1e-9


def test_warm_step_finishes_where_cold_exhausts_budget(monkeypatch):
    # Projected steps from the grid distances along a product coupling, the
    # shape of the joint fit's side-cost gradient: at d = 8 a cold step
    # projection takes 13 cycles and a warm one 1.
    mu = random_marginal(np.random.default_rng(0), 8)
    step = 1e-3 * np.outer(mu, mu)
    duals = np.zeros(triangle_count(8))
    x = project_metric_simplex(unit_grid_distances(8)).entries
    for _ in range(2):
        x = project_metric_simplex(x - step, duals).entries
    y = x - step
    before = duals.copy()
    monkeypatch.setattr(joint, "_MAX_CYCLES", 5)
    with pytest.raises(ProjectionError):
        project_metric_simplex(y)
    with pytest.raises(ProjectionError):
        project_metric_simplex(10.0 * y, duals)
    np.testing.assert_array_equal(duals, before)
    out = project_metric_simplex(y, duals).entries
    np.testing.assert_allclose(out, full_sweep_projection(y), rtol=0, atol=1e-9)


@pytest.mark.parametrize("duals,match", [
    (np.zeros(triangle_count(5) - 1), "shape"),
    (np.zeros((triangle_count(5), 1)), "shape"),
    (np.zeros(triangle_count(5), dtype=int), "float"),
    (list(np.zeros(triangle_count(5))), "float"),
    (np.broadcast_to(0.0, (triangle_count(5),)), "writable"),
    (np.full(triangle_count(5), np.nan), "finite and nonnegative"),
    (np.full(triangle_count(5), np.inf), "finite and nonnegative"),
    (np.r_[-1e-300, np.zeros(triangle_count(5) - 1)], "finite and nonnegative"),
])
def test_bad_duals_rejected_before_any_cycle(monkeypatch, rng, duals, match):
    def no_cycle(d):
        raise AssertionError("a cycle ran")

    monkeypatch.setattr(joint, "_triangle_table", no_cycle)
    with pytest.raises(ValidationError, match=match):
        project_metric_simplex(euclidean_cost(rng, 5), duals)


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

    @pytest.mark.parametrize("raw", [
        np.full((12, 12), 1e308),
        1e308 * (1.0 - np.eye(4)),
    ])
    def test_overflowing_input_rejected_before_any_cycle(self, monkeypatch, raw):
        def no_cycle(d):
            raise AssertionError("a cycle ran")

        monkeypatch.setattr(joint, "_triangle_table", no_cycle)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="too large"):
                project_metric_simplex(raw)

    def test_cycle_budget_exhausted_raises(self, monkeypatch, rng):
        monkeypatch.setattr(joint, "_MAX_CYCLES", 1)
        with pytest.raises(ProjectionError) as info:
            project_metric_simplex(rng.normal(0, 10, (5, 5)))
        assert np.isfinite(info.value.worst_violation)
        assert info.value.worst_violation > 0


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
        params = HyperParams(delta=0.0, step_size=5.0, outer_iters=3)
        jf = joint_fit(pi_hat, inst["U"], inst["V"], inst["kern"], params,
                       C_u_init=inst["C_u"], C_v_init=inst["C_v"], side_step=0.5)
        np.testing.assert_array_equal(
            jf.C_u.entries, project_metric_simplex(inst["C_u"]).entries)
        np.testing.assert_array_equal(
            jf.C_v.entries, project_metric_simplex(inst["C_v"]).entries)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(300 + seed)
        mu = random_marginal(rng, 3)
        mu_hat = random_marginal(rng, 3)
        C_u = rng.uniform(0.5, 2.0, (3, 3))
        params = HyperParams(sinkhorn_tol=1e-12)
        _, value, plan = _relaxation_dual(C_u, mu, mu_hat, 1.0, params)
        assert value == pytest.approx(
            regularized_value(sinkhorn(C_u, mu, mu_hat, 1.0, tol=1e-12).plan, C_u, 1.0), abs=1e-12)
        h = 1e-6
        fd = np.zeros_like(C_u)
        for i in range(3):
            for j in range(3):
                dC = np.zeros_like(C_u)
                dC[i, j] = h
                up, down = C_u + dC, C_u - dC
                fd[i, j] = (regularized_value(sinkhorn(up, mu, mu_hat, 1.0, tol=1e-12).plan,
                                              up, 1.0)
                            - regularized_value(sinkhorn(down, mu, mu_hat, 1.0, tol=1e-12).plan,
                                                down, 1.0)) / (2 * h)
        assert np.abs(plan - fd).max() / max(np.abs(fd).max(), 1e-12) <= 1e-3


class TestJointFit:
    def test_off_simplex_message_prints_a_plain_float(self):
        with pytest.raises(ValidationError) as exc:
            joint._check_unit_sum(np.full((2, 2), 0.125), "C_u")
        assert str(exc.value) == "C_u drifted off the simplex: sum = 0.5"

    def _setup(self, seed):
        inst = forward_instance(seed, m=4, n=4, p=2, q=2)
        pi_hat = noised(inst["pi0"], inst["rng"], 4e-3)
        params = HyperParams(delta=0.01, step_size=5.0, outer_iters=6)
        return inst, pi_hat, params

    def test_frozen_side_costs_reproduce_fixed_cost_fit(self):
        inst, pi_hat, params = self._setup(30)
        jf = joint_fit(pi_hat, inst["U"], inst["V"], inst["kern"], params,
                       C_u_init=inst["C_u"], C_v_init=inst["C_v"], side_step=0.0)
        cu_p = project_metric_simplex(inst["C_u"]).entries
        cv_p = project_metric_simplex(inst["C_v"]).entries
        rf = riot_fit(pi_hat, inst["U"], inst["V"], inst["kern"], cu_p, cv_p, params)
        np.testing.assert_allclose(jf.A, rf.A, atol=1e-8)
        np.testing.assert_allclose(jf.fitted_plan.entries, rf.fitted_plan.entries,
                                   atol=1e-8)
        np.testing.assert_allclose(jf.objective_trace, rf.objective_trace, atol=1e-8)

    def test_learning_side_costs_does_not_hurt(self):
        inst, pi_hat, params = self._setup(31)
        jf = joint_fit(pi_hat, inst["U"], inst["V"], inst["kern"], params,
                       C_u_init=inst["C_u"], C_v_init=inst["C_v"], side_step=0.01)
        rf = riot_fit(pi_hat, inst["U"], inst["V"], inst["kern"],
                      project_metric_simplex(inst["C_u"]).entries,
                      project_metric_simplex(inst["C_v"]).entries,
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

    @pytest.mark.parametrize("m,n", [(1, 4), (2, 4), (4, 1), (4, 2)])
    def test_side_below_three_rejected_before_any_solve(self, monkeypatch, m, n):
        inst = forward_instance(35, m=m, n=n, p=2, q=2)
        pi_hat = noised(inst["pi0"], inst["rng"], 4e-3)
        params = HyperParams(delta=0.01, step_size=5.0, outer_iters=2)

        def no_solve(*args, **kwargs):
            raise AssertionError("the fit ran")

        monkeypatch.setattr(joint, "_alternating_fit", no_solve)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="at least 3"):
                joint_fit(pi_hat, inst["U"], inst["V"], inst["kern"], params)

    def test_warm_fit_matches_cold_fit(self, monkeypatch):
        inst = forward_instance(36, m=6, n=5, p=2, q=2)
        pi_hat = noised(inst["pi0"], inst["rng"], 4e-3)
        params = HyperParams(delta=0.01, step_size=5.0, outer_iters=20)

        def fit():
            return joint_fit(pi_hat, inst["U"], inst["V"], inst["kern"], params,
                             C_u_init=inst["C_u"], C_v_init=inst["C_v"], side_step=0.5)

        warm = fit()
        project = joint.project_metric_simplex
        monkeypatch.setattr(joint, "project_metric_simplex",
                            lambda matrix, duals=None: project(matrix))
        cold = fit()
        for name in ("A", "objective_trace"):
            np.testing.assert_allclose(getattr(warm, name), getattr(cold, name),
                                       rtol=0, atol=1e-9)
        for name in ("C_u", "C_v", "fitted_plan"):
            np.testing.assert_allclose(getattr(warm, name).entries,
                                       getattr(cold, name).entries, rtol=0, atol=1e-9)

    def test_first_step_starts_cold(self, monkeypatch):
        # The grid guesses' projections take 382 cycles each. On this market
        # the first step's projections take 24 and 29 cycles cold, and 640
        # and 568 when started from the guesses' corrections.
        inst = forward_instance(0, m=12, n=12, p=3, q=2)
        pi_hat = noised(inst["pi0"], inst["rng"], 8e-3 / 12)
        monkeypatch.setattr(joint, "_MAX_CYCLES", 450)
        jf = joint_fit(pi_hat, inst["U"], inst["V"], inst["kern"], HyperParams(outer_iters=1),
                       C_u_init=unit_grid_distances(12), C_v_init=unit_grid_distances(12))
        assert all_triangle_violations(jf.C_u.entries) <= 1e-7

    def test_default_init_is_uniform_hollow(self):
        inst, pi_hat, params = self._setup(33)
        jf = joint_fit(pi_hat, inst["U"], inst["V"], inst["kern"],
                       HyperParams(delta=0.01, step_size=5.0, outer_iters=0))
        expected = np.full((4, 4), 1.0 / 12.0)
        np.fill_diagonal(expected, 0.0)
        np.testing.assert_allclose(jf.C_u.entries, expected, atol=1e-12)
