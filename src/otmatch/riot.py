"""Marginal-relaxed inverse transport: the three-block alternating solver.

The fit minimizes, over the interaction matrix A and the plan's marginals,

    -sum_ij pihat_ij log pi_ij
        + delta * (d_{lam_u}(C_u, pi 1, muhat) + d_{lam_v}(C_v, pi' 1, nuhat))

where pi is the regularized plan of the kernel cost C(A) and the d terms are
regularized transport distances tying the plan's marginals softly to the
empirical ones. By duality the relaxation terms turn into potentials (z, w),
and each outer iteration alternates:

  1. inner scaling solve for (xi, eta, theta) at fixed (A, z, w), run until
     the scalings settle,
  2. an envelope-theorem gradient step on A,
  3. refreshed potentials (z, w) from two Sinkhorn solves on C_u and C_v.

The inner problem constrains the scalings by xi' Z eta = 1 (Z = exp(-lam C));
each half-update requires the Lagrange multiplier theta solving the
normalization equation p(theta) = 1, a monotone convex root problem. Each
root starts from its side's previous multiplier, and each relaxation solve
from the last refreshed potentials (z, w).

:func:`_alternating_fit` runs the steps through the shared driver
:func:`~otmatch.iot.descend`: :func:`_evaluate_at` does step 1 and the
objective, :func:`_gradient_at` step 2, and :func:`_relaxation_dual` step 3.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .containers import CouplingMatrix, HyperParams, InteractionMatrix, as_array
from .errors import RootFindingError, ValidationError
from .iot import _neg_log_likelihood, descend
from .kernels import assemble_interaction_grad, kernel_cost
from .sinkhorn import regularized_value, sinkhorn

_ROOT_RESIDUAL_TOL = 1e-13
_ROOT_MAX_STEPS = 200
_INNER_TOL = 1e-12
_INNER_MAX_PAIRS = 1000


def _theta_root(weights, r, s, guess=None):
    """Root of p(theta) = sum_i weights_i s_i / (r_i - theta s_i) = 1.

    p is increasing and convex on (-inf, theta_max), theta_max = min r / s,
    rising from 0 to +inf, so the root exists and is unique. Newton steps on
    p - 1 start from ``guess`` if it is below theta_max, else from
    theta_max - max(1, |theta_max|), and shrink the bracket lo < theta < hi.
    A step leaving it is replaced by the midpoint or, while lo is unknown, a
    point 8 times as far below theta_max. Returns once |p - 1| <= 1e-13, or
    lo when no float lies between lo and hi.
    """
    ws = weights * s
    theta_max = float(np.min(r / s))
    scale = max(1.0, abs(theta_max))
    lo, hi = -np.inf, theta_max
    theta = guess if guess is not None and guess < theta_max else theta_max - scale
    for _ in range(_ROOT_MAX_STEPS):
        d = r - theta * s
        p = step = np.inf  # where the rounded theta_max leaves some d_i <= 0
        if d.min() > 0:
            t = ws / d
            p = float(t.sum())
            if abs(p - 1.0) <= _ROOT_RESIDUAL_TOL:
                return theta
            step = theta - (p - 1.0) / float((t * s / d).sum())
        if p < 1.0:
            lo = theta
        else:
            hi = theta
        if lo < step < hi:
            theta = step
        elif lo == -np.inf:
            theta = theta_max - 8.0 * max(theta_max - hi, scale)
        else:
            theta = 0.5 * (lo + hi)
            if not lo < theta < hi:
                return lo
    raise RootFindingError(
        f"Newton iteration did not converge in {_ROOT_MAX_STEPS} steps", lo=lo, hi=hi)


@dataclass(frozen=True)
class InnerSolveResult:
    """Scalings (xi, eta) of the alternating solve at fixed (A, z, w).

    ``theta`` is the multiplier of the final xi half-update and ``theta2``
    that of the final eta half-update; they agree at convergence.
    """

    xi: np.ndarray
    eta: np.ndarray
    theta: float
    theta2: float

    @property
    def multiplier_gap(self):
        return abs(self.theta - self.theta2)


def _half_update(weights, M, Z, other, guess):
    """One side's scaling weights / (M other - theta Z other) and its
    multiplier theta, the root of :func:`_theta_root` started from ``guess``.
    The eta side passes (M.T, Z.T)."""
    r = M @ other
    s = Z @ other
    theta = _theta_root(weights, r, s, guess)
    denom = r - theta * s
    if np.any(denom <= 0):
        raise ValidationError("half-update produced a non-positive scaling")
    return weights / denom, theta


def _inner_solve_raw(mu_hat, nu_hat, M, Z, max_pairs=_INNER_MAX_PAIRS):
    """Alternating half-updates for the constrained scaling problem.

    Runs xi/eta half-update pairs on
    -<muhat, log xi> - <nuhat, log eta> + xi' M eta subject to xi' Z eta = 1,
    from the all-ones vectors rescaled onto the constraint. Each half-update
    solves its multiplier exactly, so the constraint holds after every update
    and the objective is non-increasing along half-steps. Each multiplier root
    starts from its side's previous multiplier, cold in the first pair. The
    loop stops after the first pair whose change
    sum_i muhat_i |xi_i / xi_i^- - 1| + sum_j nuhat_j |eta_j / eta_j^- - 1|
    is at most ``_INNER_TOL`` (1e-12), and otherwise returns the last iterate
    after ``max_pairs`` pairs. With ``max_pairs == 0`` both multipliers are 0.
    """
    m, n = Z.shape
    total = float(np.ones(m) @ Z @ np.ones(n))
    xi = np.full(m, 1.0 / np.sqrt(total))
    eta = np.full(n, 1.0 / np.sqrt(total))
    theta1 = theta2 = 0.0
    for k in range(max_pairs):
        xi_new, theta1 = _half_update(mu_hat, M, Z, eta, theta1 if k else None)
        eta_new, theta2 = _half_update(nu_hat, M.T, Z.T, xi_new, theta2 if k else None)
        change = mu_hat @ np.abs(xi_new / xi - 1.0) + nu_hat @ np.abs(eta_new / eta - 1.0)
        xi, eta = xi_new, eta_new
        if change <= _INNER_TOL:
            break
    return InnerSolveResult(xi=xi, eta=eta, theta=theta1, theta2=theta2)


@dataclass(frozen=True)
class RiotFitResult:
    """Best iterate of a marginal-relaxed inverse fit.

    ``objective_trace`` holds the relaxed objective per outer iteration, and
    ``A`` attains its minimum. ``fitted_plan`` is xi_i exp(-lam C_ij(A)) eta_j
    with the scalings ``xi``, ``eta`` of the inner solve at ``A``; ``theta``
    is its final xi multiplier and ``z``, ``w`` the potentials it used.
    """

    A: InteractionMatrix
    fitted_plan: CouplingMatrix
    objective_trace: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    theta: float
    z: np.ndarray
    w: np.ndarray


def _relaxation_dual(C_side, plan_marginal, empirical_marginal, lam_side, params, start=None):
    """Potential, transport value and plan of one marginal-relaxation term.

    The potential is log(a)/lam_side from the left Sinkhorn scaling of
    (C_side, plan_marginal, empirical_marginal), solved from a = exp(lam_side
    start) if ``start`` is given. By the envelope theorem the plan is also the
    gradient of the value with respect to C_side.
    """
    res = sinkhorn(C_side, plan_marginal, empirical_marginal, lam_side,
                   tol=params.sinkhorn_tol, max_iters=params.sinkhorn_max_iters,
                   a_init=None if start is None else np.exp(lam_side * start))
    plan = res.plan.entries
    return (np.log(res.left_scaling) / lam_side,
            regularized_value(plan, C_side, lam_side), plan)


def _relaxed_objective(pi_hat, plan, C_u, C_v, params, z=None, w=None):
    """-sum pihat log pi + delta (d_u + d_v) at a plan, with the relaxation
    potentials and plans (z, w, plan_u, plan_v) of its marginals, or None
    when delta is 0. The relaxation solves start from ``z``, ``w`` if given."""
    value = _neg_log_likelihood(pi_hat, plan)
    if params.delta == 0:
        return value, None
    z, d_u, plan_u = _relaxation_dual(C_u, plan.sum(axis=1), pi_hat.sum(axis=1),
                                      params.lam_u, params, z)
    w, d_v, plan_v = _relaxation_dual(C_v, plan.sum(axis=0), pi_hat.sum(axis=0),
                                      params.lam_v, params, w)
    return value + params.delta * (d_u + d_v), (z, w, plan_u, plan_v)


def _evaluate_at(A, pi_hat, mu_hat, nu_hat, U, V, kernel, blocks, params):
    """Inner solve at A and the blocks (c_u, c_v, z, w), plus the relaxed
    objective of its plan: (objective, (inner, plan, relaxation, blocks)),
    with ``relaxation`` as :func:`_relaxed_objective` returns it.

    The inner problem has Z = exp(-lam C(A)) and M_ij = delta (z_i + w_j) Z_ij.
    The relaxation solves start from the potentials (z, w) of the blocks.
    """
    c_u, c_v, z, w = blocks
    Z = np.exp(-params.lam * kernel_cost(U, V, A, kernel).entries)
    if np.any(Z <= 0):
        raise ValidationError("exp(-lam * cost) underflowed; rescale the cost or lam")
    M = params.delta * (z[:, None] + w[None, :]) * Z
    inner = _inner_solve_raw(mu_hat, nu_hat, M, Z)
    pi = inner.xi[:, None] * Z * inner.eta[None, :]
    obj, rel = _relaxed_objective(pi_hat, pi, c_u, c_v, params, z, w)
    return obj, (inner, pi, rel, blocks)


def _gradient_at(A, point, pi_hat, U, V, kernel, params):
    """Envelope-theorem gradient in A of the relaxed objective at an
    :func:`_evaluate_at` point: sum_ij lam [pihat_ij + (theta - delta (z_i + w_j))
    pi_ij] C'_ij(A). Exact only when the point's inner solve has converged."""
    inner, pi, _, (_, _, z, w) = point
    weights = params.lam * (pi_hat + (inner.theta - params.delta * (z[:, None] + w[None, :])) * pi)
    return assemble_interaction_grad(U, V, A, kernel, weights)


def _alternating_fit(pi_hat, U, V, kernel, C_u, C_v, params, side_block=None):
    """Shared outer loop of the fixed and joint side-cost fits.

    Runs :func:`~otmatch.iot.descend` on A. ``side_block``, when given, is
    called once per iteration with the current side costs and the two
    relaxation plans of the pre-step point, and returns updated side costs.
    Returns ``descend``'s (objective, A, point) of the best iterate, whose
    point is (inner, plan, relaxation, (c_u, c_v, z, w)) as
    :func:`_evaluate_at` gives it, and the objective trace.
    """
    pi_hat = as_array(pi_hat)
    mu_hat = pi_hat.sum(axis=1)
    nu_hat = pi_hat.sum(axis=0)
    if np.any(mu_hat <= 0) or np.any(nu_hat <= 0):
        raise ValidationError("empirical marginals must be strictly positive")
    # Side costs and potentials (c_u, c_v, z, w) every evaluation uses.
    blocks = (as_array(C_u), as_array(C_v), np.zeros(mu_hat.size), np.zeros(nu_hat.size))

    def evaluate(A):
        return _evaluate_at(A, pi_hat, mu_hat, nu_hat, U, V, kernel, blocks, params)

    def after_step(A, point):
        # The other blocks use the pre-step point, in block order: side costs
        # first (joint mode), then the potentials. The accepted A was solved
        # with the stale blocks, so it is evaluated again.
        nonlocal blocks
        _, pi, (z, w, plan_u, plan_v), (c_u, c_v, _, _) = point
        if side_block is not None:
            c_u, c_v = side_block(c_u, c_v, plan_u, plan_v)
            z = _relaxation_dual(c_u, pi.sum(axis=1), mu_hat, params.lam_u, params, z)[0]
            w = _relaxation_dual(c_v, pi.sum(axis=0), nu_hat, params.lam_v, params, w)[0]
        blocks = (c_u, c_v, z, w)
        return evaluate(A)

    A0 = np.zeros((as_array(U).shape[0], as_array(V).shape[0]))
    gradient = partial(_gradient_at, pi_hat=pi_hat, U=U, V=V, kernel=kernel, params=params)
    # delta == 0 leaves the potentials untouched since they have no effect.
    best, trace, _ = descend(A0, evaluate, gradient, params,
                             after_step=after_step if params.delta > 0 else None)
    return best, trace


def riot_fit(pi_hat, U, V, kernel, C_u, C_v, params=None):
    """Run the three-block alternation and return the best iterate.

    Each of the ``params.outer_iters`` iterations performs the inner scaling
    solve (half-update pairs until the scalings settle), one gradient step on A
    with the step-halving guard every fit shares, and a refresh of the
    relaxation potentials from the pre-step plan. The result holds the
    iterate with the lowest relaxed objective: its A and plan, and the
    scalings, multiplier and potentials of its inner solve.

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
    ValidationError
        If ``pi_hat`` has an empty row or column; raised before any solve.
    DivergenceError
        If the objective becomes non-finite; carries the trace so far.
    """
    params = params or HyperParams()
    (_, A, (inner, pi, _, (_, _, z, w))), trace = _alternating_fit(
        pi_hat, U, V, kernel, C_u, C_v, params)
    return RiotFitResult(
        A=InteractionMatrix(A),
        fitted_plan=CouplingMatrix(pi),
        objective_trace=np.asarray(trace),
        xi=inner.xi, eta=inner.eta, theta=inner.theta, z=z, w=w,
    )


def predict_matching(A, U_new, V_new, mu_new, nu_new, kernel, lam,
                     tol=1e-9, max_iters=10000):
    """Predict the matching of a new population from a learned interaction.

    Computes the kernel cost of the new profiles and returns its regularized
    plan at the supplied marginals.
    """
    C = kernel_cost(U_new, V_new, A, kernel)
    return sinkhorn(C, mu_new, nu_new, lam, tol=tol, max_iters=max_iters).plan
