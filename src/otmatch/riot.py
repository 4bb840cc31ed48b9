"""Marginal-relaxed inverse transport: the three-block alternating solver.

The fit minimizes, over the interaction matrix A and the plan's marginals,

    -sum_ij pihat_ij log pi_ij
        + delta * (d_{lam_u}(C_u, pi 1, muhat) + d_{lam_v}(C_v, pi' 1, nuhat))

where pi is the regularized plan of the kernel cost C(A) and the d terms are
regularized transport distances tying the plan's marginals softly to the
empirical ones. By duality the relaxation terms turn into potentials (z, w),
and each outer iteration alternates:

  1. inner scaling solve for (xi, eta, theta) at fixed (A, z, w),
  2. an envelope-theorem gradient step on A,
  3. refreshed potentials (z, w) from two Sinkhorn solves on C_u and C_v.

The inner problem constrains the scalings by xi' Z eta = 1 (Z = exp(-lam C));
each half-update requires the Lagrange multiplier theta solving the
normalization equation p(theta) = 1, a monotone univariate root problem.
"""

from dataclasses import dataclass

import numpy as np

from .containers import CouplingMatrix, HyperParams, InteractionMatrix, as_array
from .errors import RootFindingError, ValidationError
from .iot import _neg_log_likelihood, descend
from .kernels import assemble_interaction_grad, kernel_cost
from .sinkhorn import regularized_value, sinkhorn

_ROOT_RESIDUAL_TOL = 1e-13
_ROOT_MAX_BISECTIONS = 200


def _theta_root(weights, r, s):
    """Root of p(theta) = sum_i weights_i s_i / (r_i - theta s_i) = 1.

    p is increasing on (-inf, theta_max) with theta_max = min_i r_i / s_i,
    rising from 0 to +inf, so the root below theta_max exists and is unique.
    The bracket starts just under theta_max and expands geometrically
    downward until it straddles the root, then bisects.
    """
    ws = weights * s
    theta_max = float(np.min(r / s))
    scale = max(1.0, abs(theta_max))

    def p(theta):
        return float((ws / (r - theta * s)).sum())

    eps = 1e-9 * scale
    hi = theta_max - eps
    for _ in range(60):
        if p(hi) >= 1.0:
            break
        eps *= 0.125
        hi = theta_max - eps
    else:
        raise RootFindingError("could not bracket the multiplier from above",
                               lo=None, hi=hi)

    delta = scale
    lo = theta_max - delta
    for _ in range(200):
        if p(lo) < 1.0:
            break
        delta *= 8.0
        lo = theta_max - delta
    else:
        raise RootFindingError("could not bracket the multiplier from below",
                               lo=lo, hi=hi)

    for _ in range(_ROOT_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        pm = p(mid)
        if abs(pm - 1.0) <= _ROOT_RESIDUAL_TOL:
            return mid
        if pm < 1.0:
            lo = mid
        else:
            hi = mid
    raise RootFindingError(
        f"bisection did not converge in {_ROOT_MAX_BISECTIONS} steps", lo=lo, hi=hi)


def theta_root_p(eta, mu_hat, M, Z):
    """Multiplier of the xi half-update: solves p(theta) = 1 for fixed eta."""
    eta = as_array(eta)
    if np.any(eta <= 0):
        raise ValidationError("eta must be strictly positive")
    return _theta_root(as_array(mu_hat), M @ eta, Z @ eta)


def theta_root_q(xi, nu_hat, M, Z):
    """Multiplier of the eta half-update: solves q(theta) = 1 for fixed xi."""
    xi = as_array(xi)
    if np.any(xi <= 0):
        raise ValidationError("xi must be strictly positive")
    return _theta_root(as_array(nu_hat), M.T @ xi, Z.T @ xi)


@dataclass(frozen=True)
class InnerSolveResult:
    """Output of the alternating scaling solve at fixed (A, z, w).

    ``theta`` is the multiplier of the final xi half-update; ``theta2`` the
    final eta-side multiplier (they agree at convergence). ``h_trace`` holds
    the inner objective after the initial rescale and after every
    half-update, so the monotone chain is observable.
    """

    xi: np.ndarray
    eta: np.ndarray
    theta: float
    theta2: float
    h_trace: np.ndarray

    @property
    def multiplier_gap(self):
        return abs(self.theta - self.theta2)


def _inner_objective(xi, eta, mu_hat, nu_hat, M):
    return float(-(mu_hat @ np.log(xi)) - (nu_hat @ np.log(eta)) + xi @ (M @ eta))


def _inner_problem(C, z, w, params):
    """Kernel Z = exp(-lam C) and M_ij = delta (z_i + w_j) Z_ij of the inner
    problem at the cost array C and the potentials (z, w)."""
    Z = np.exp(-params.lam * C)
    if np.any(Z <= 0):
        raise ValidationError("exp(-lam * cost) underflowed; rescale the cost or lam")
    return Z, params.delta * (z[:, None] + w[None, :]) * Z


def inner_xi_eta_solve(cost, pi_hat, z, w, params):
    """Alternating half-updates for the constrained scaling problem.

    Minimizes -<muhat, log xi> - <nuhat, log eta> + xi' M eta subject to
    xi' Z eta = 1, with Z = exp(-lam * cost) and
    M_ij = delta (z_i + w_j) Z_ij. Each half-update solves its multiplier
    exactly, so the constraint holds after every update and the objective is
    non-increasing along half-steps.

    With ``params.inner_iters == 0`` the scalings are the all-ones vectors
    rescaled onto the constraint and both multipliers are returned as 0.
    """
    C = as_array(cost)
    pi_hat = as_array(pi_hat)
    mu_hat = pi_hat.sum(axis=1)
    nu_hat = pi_hat.sum(axis=0)
    if np.any(mu_hat <= 0) or np.any(nu_hat <= 0):
        raise ValidationError("empirical marginals must be strictly positive")
    Z, M = _inner_problem(C, as_array(z), as_array(w), params)
    return _inner_solve_raw(mu_hat, nu_hat, M, Z, params.inner_iters)


def _inner_solve_raw(mu_hat, nu_hat, M, Z, n_iters):
    m, n = Z.shape
    total = float(np.ones(m) @ Z @ np.ones(n))
    xi = np.full(m, 1.0 / np.sqrt(total))
    eta = np.full(n, 1.0 / np.sqrt(total))
    h = [_inner_objective(xi, eta, mu_hat, nu_hat, M)]
    theta1 = 0.0
    theta2 = 0.0
    for _ in range(n_iters):
        r = M @ eta
        s = Z @ eta
        theta1 = _theta_root(mu_hat, r, s)
        denom = r - theta1 * s
        if np.any(denom <= 0):
            raise ValidationError("xi update produced a non-positive component")
        xi = mu_hat / denom
        h.append(_inner_objective(xi, eta, mu_hat, nu_hat, M))

        r = M.T @ xi
        s = Z.T @ xi
        theta2 = _theta_root(nu_hat, r, s)
        denom = r - theta2 * s
        if np.any(denom <= 0):
            raise ValidationError("eta update produced a non-positive component")
        eta = nu_hat / denom
        h.append(_inner_objective(xi, eta, mu_hat, nu_hat, M))
    return InnerSolveResult(xi=xi, eta=eta, theta=theta1, theta2=theta2,
                            h_trace=np.asarray(h))


def scaling_plan(xi, eta, Z):
    """Plan entries xi_i Z_ij eta_j of the current scaling iterate."""
    return xi[:, None] * Z * eta[None, :]


def kkt_residual(xi, eta, theta, mu_hat, M, Z):
    """Max-norm residual of the xi-side stationarity condition."""
    return float(np.max(np.abs(-mu_hat / xi + M @ eta - theta * (Z @ eta))))


@dataclass(frozen=True)
class RiotState:
    """Primal/dual iterate of the alternating solver."""

    A: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    theta: float
    z: np.ndarray
    w: np.ndarray
    current_plan: CouplingMatrix
    objective: float


@dataclass(frozen=True)
class RiotFitResult:
    """Best iterate of a marginal-relaxed inverse fit."""

    A: InteractionMatrix
    fitted_plan: CouplingMatrix
    relaxed_marginals: tuple
    objective_trace: np.ndarray
    state: RiotState


def _relaxation_dual(C_side, plan_marginal, empirical_marginal, lam_side, params):
    """Potential, transport value and plan of one marginal-relaxation term.

    The potential is log(a)/lam_side from the left Sinkhorn scaling of
    (C_side, plan_marginal, empirical_marginal). By the envelope theorem the
    plan is also the gradient of the value with respect to C_side.
    """
    res = sinkhorn(C_side, plan_marginal, empirical_marginal, lam_side,
                   tol=params.sinkhorn_tol, max_iters=params.sinkhorn_max_iters)
    plan = res.plan.entries
    return (np.log(res.left_scaling) / lam_side,
            regularized_value(plan, C_side, lam_side), plan)


def dual_update_zw(plan, mu_hat, nu_hat, C_u, C_v, params):
    """Refresh the relaxation potentials from the current plan's marginals."""
    p = as_array(plan)
    z = _relaxation_dual(C_u, p.sum(axis=1), as_array(mu_hat), params.lam_u, params)[0]
    w = _relaxation_dual(C_v, p.sum(axis=0), as_array(nu_hat), params.lam_v, params)[0]
    return z, w


def _relaxed_objective(pi_hat, plan, C_u, C_v, params):
    """-sum pihat log pi + delta (d_u + d_v) at a plan, with the relaxation
    potentials and plans (z, w, plan_u, plan_v) of its marginals, or None
    when delta is 0."""
    value = _neg_log_likelihood(pi_hat, plan)
    if params.delta == 0:
        return value, None
    z, d_u, plan_u = _relaxation_dual(C_u, plan.sum(axis=1), pi_hat.sum(axis=1),
                                      params.lam_u, params)
    w, d_v, plan_v = _relaxation_dual(C_v, plan.sum(axis=0), pi_hat.sum(axis=0),
                                      params.lam_v, params)
    return value + params.delta * (d_u + d_v), (z, w, plan_u, plan_v)


def _envelope_weights(pi_hat, pi, theta, z, w, params):
    """Entrywise weights lam [pihat + (theta - delta (z_i + w_j)) pi] of C'(A)."""
    return params.lam * (pi_hat + (theta - params.delta * (z[:, None] + w[None, :])) * pi)


def riot_objective(state, pi_hat, C_u, C_v, params):
    """Relaxed objective -sum pihat log pi + delta (d_u + d_v) at a state."""
    plan = as_array(state.current_plan if isinstance(state, RiotState) else state)
    return float(_relaxed_objective(as_array(pi_hat), plan, C_u, C_v, params)[0])


def riot_grad_A(state, pi_hat, U, V, kernel, params):
    """Envelope-theorem gradient of the relaxed objective with respect to A.

    Assembles sum_ij lam [pihat_ij + (theta - delta (z_i + w_j)) pi_ij]
    C'_ij(A). The state must come from a converged inner solve for the same
    A: the normalization residual |xi' Z eta - 1| must not exceed 1e-6.
    """
    C = kernel_cost(U, V, state.A, kernel).entries
    Z, _ = _inner_problem(C, state.z, state.w, params)
    residual = abs(float(state.xi @ Z @ state.eta) - 1.0)
    if residual > 1e-6:
        raise ValidationError(
            f"state is inconsistent with A: normalization residual {residual:.3e}")
    pi = scaling_plan(state.xi, state.eta, Z)
    weights = _envelope_weights(as_array(pi_hat), pi, state.theta, state.z, state.w, params)
    return assemble_interaction_grad(U, V, state.A, kernel, weights)


def _evaluate_at(A, pi_hat, mu_hat, nu_hat, U, V, kernel, blocks, params):
    """Inner solve at A and the blocks (c_u, c_v, z, w), plus the relaxed
    objective of its plan: (objective, (inner, plan, relaxation, blocks)),
    with ``relaxation`` as :func:`_relaxed_objective` returns it."""
    c_u, c_v, z, w = blocks
    C = kernel_cost(U, V, A, kernel).entries
    Z, M = _inner_problem(C, z, w, params)
    inner = _inner_solve_raw(mu_hat, nu_hat, M, Z, params.inner_iters)
    pi = scaling_plan(inner.xi, inner.eta, Z)
    obj, rel = _relaxed_objective(pi_hat, pi, c_u, c_v, params)
    return obj, (inner, pi, rel, blocks)


def _alternating_fit(pi_hat, U, V, kernel, C_u, C_v, params, side_block=None):
    """Shared outer loop of the fixed and joint side-cost fits.

    Runs :func:`~otmatch.iot.descend` on A. ``side_block``, when given, is
    called once per iteration with the current side costs and the two
    relaxation plans of the pre-step point, and returns updated side costs.
    Returns (best_state, trace, best_c_u, best_c_v).
    """
    pi_hat = as_array(pi_hat)
    mu_hat = pi_hat.sum(axis=1)
    nu_hat = pi_hat.sum(axis=0)
    # Side costs and potentials (c_u, c_v, z, w) every evaluation uses.
    blocks = (as_array(C_u), as_array(C_v), np.zeros(mu_hat.size), np.zeros(nu_hat.size))

    def evaluate(A):
        return _evaluate_at(A, pi_hat, mu_hat, nu_hat, U, V, kernel, blocks, params)

    def gradient(A, point):
        inner, pi, _, (_, _, z, w) = point
        weights = _envelope_weights(pi_hat, pi, inner.theta, z, w, params)
        return assemble_interaction_grad(U, V, A, kernel, weights)

    def after_step(A, point):
        # The other blocks use the pre-step point, in block order: side costs
        # first (joint mode), then the potentials. The accepted A was solved
        # with the stale blocks, so it is evaluated again.
        nonlocal blocks
        _, pi, (z, w, plan_u, plan_v), (c_u, c_v, _, _) = point
        if side_block is None:
            blocks = (c_u, c_v, z, w)
        else:
            c_u, c_v = side_block(c_u, c_v, plan_u, plan_v)
            blocks = (c_u, c_v) + dual_update_zw(pi, mu_hat, nu_hat, c_u, c_v, params)
        return evaluate(A)

    A0 = np.zeros((as_array(U).shape[0], as_array(V).shape[0]))
    # delta == 0 leaves the potentials untouched since they have no effect.
    best, trace, _ = descend(A0, evaluate, gradient, params,
                             after_step=after_step if params.delta > 0 else None)
    obj, A, (inner, pi, _, (c_u, c_v, z, w)) = best
    state = RiotState(A=A, xi=inner.xi, eta=inner.eta, theta=inner.theta, z=z, w=w,
                      current_plan=CouplingMatrix(pi), objective=obj)
    return state, trace, c_u, c_v


def riot_fit(pi_hat, U, V, kernel, C_u, C_v, params=None):
    """Run the three-block alternation and return the best iterate.

    Each of the ``params.outer_iters`` iterations performs the inner scaling
    solve (``params.inner_iters`` half-update pairs), one gradient step on A
    with the step-halving guard every fit shares, and a refresh of the
    relaxation potentials from the pre-step plan. The iterate with the lowest
    relaxed objective is returned.

    Parameters
    ----------
    pi_hat : CouplingMatrix
        Observed matching matrix with strictly positive marginals.
    U, V : ProfileSet
        Feature matrices (p-by-m and q-by-n).
    kernel : KernelSpec
    C_u, C_v : CostMatrix
        Side costs of the two relaxation terms, m-by-m and n-by-n.
    params : HyperParams

    Raises
    ------
    DivergenceError
        If the objective becomes non-finite; carries the trace so far.
    """
    params = params or HyperParams()
    best, trace, _, _ = _alternating_fit(pi_hat, U, V, kernel, C_u, C_v, params)
    plan = best.current_plan
    mp = plan.marginals()
    return RiotFitResult(
        A=InteractionMatrix(best.A),
        fitted_plan=plan,
        relaxed_marginals=(mp.mu, mp.nu),
        objective_trace=np.asarray(trace),
        state=best,
    )


def predict_matching(A, U_new, V_new, mu_new, nu_new, kernel, lam,
                     tol=1e-9, max_iters=10000):
    """Predict the matching of a new population from a learned interaction.

    Computes the kernel cost of the new profiles and returns its regularized
    plan at the supplied marginals.
    """
    C = kernel_cost(U_new, V_new, A, kernel)
    return sinkhorn(C, mu_new, nu_new, lam, tol=tol, max_iters=max_iters).plan
