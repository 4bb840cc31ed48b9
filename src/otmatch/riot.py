"""Marginal-relaxed inverse transport: the three-block alternating solver.

The fit minimizes, over the interaction matrix A and the plan's marginals,

    -sum_ij pihat_ij log pi_ij
        + delta * (d_{lam_u}(C_u, pi 1, muhat) + d_{lam_v}(C_v, pi' 1, nuhat))

where pi is the regularized plan of the kernel cost C(A) and the d terms are
regularized transport distances tying the plan's marginals softly to the
empirical ones. By duality the relaxation terms turn into potentials (z, w):
each term's value is the dual value of its Sinkhorn solve, and its potential
is defined up to an additive constant, which the multiplier theta below
absorbs (a shift t of z moves theta by delta t and leaves the plan and the
gradient unchanged). Each outer iteration alternates:

  1. potentials (z, w) refreshed to those of the current plan's two
     Sinkhorn solves on C_u and C_v,
  2. an envelope-theorem gradient step on A,
  3. inner scaling solve for (xi, eta, theta) at fixed (A, z, w), run until
     the scalings settle, for each trial of the step.

The inner problem constrains the scalings by xi' Z eta = 1 (Z = exp(-lam C));
each half-update requires the Lagrange multiplier theta solving the
normalization equation p(theta) = 1, a monotone convex root problem. Each
inner solve starts from the scalings of the last evaluation's inner solve,
rescaled onto the constraint, and its first roots from that solve's
multipliers; it starts cold, from uniform scalings, at the first iterate or
when that rescaling overflows or underflows. Each later root starts from its
side's previous multiplier. Each relaxation solve starts from a potential
predicted from the last three solves of its side (:func:`_predicted_start`),
and the first from the blocks' potentials (z, w). The likelihood is read from
log xi, log eta and C(A), never from the log of the plan.

:func:`_alternating_fit` runs the steps through the shared driver
:func:`~otmatch.iot.descend`: its refresh does step 1 with the potentials
of :func:`_relaxation_dual` at the current point, :func:`_gradient_at` gives
step 2, and :func:`_evaluate_at` does step 3 and the objective. It returns the
:class:`RiotFitResult` of both :func:`riot_fit` and the joint fit.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .containers import CouplingMatrix, HyperParams, as_array
from .errors import RootFindingError, ValidationError
from .iot import _fit_inputs, _neg_log_likelihood, descend
from .kernels import assemble_interaction_grad, kernel_cost
from .transport import _max, _min, _sum, sinkhorn

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
    lo when no float lies between lo and hi. Either way min(r - theta s) > 0
    at the returned theta, so its half-update is defined.

    A NaN in r or s, an infinite s_i, or r_i = -inf (as scalings that
    overflowed give them) leaves no root to find, so RootFindingError is raised
    before any Newton step. The weights sum to 1, so sum_i weights_i s_i is
    finite exactly when s is.
    """
    ws = weights * s
    theta_max = float(_min(r / s))
    if not (-np.inf < theta_max < np.inf and _sum(ws) < np.inf):
        raise RootFindingError("no multiplier root for non-finite r or s", hi=theta_max)
    scale = max(1.0, abs(theta_max))
    lo, hi = -np.inf, theta_max
    theta = guess if guess is not None and guess < theta_max else theta_max - scale
    for _ in range(_ROOT_MAX_STEPS):
        d = r - theta * s
        p = step = np.inf  # where the rounded theta_max leaves some d_i <= 0
        if _min(d) > 0:
            t = ws / d
            p = float(_sum(t))
            if abs(p - 1.0) <= _ROOT_RESIDUAL_TOL:
                return theta
            # Far above the root, near the pole of some d_i, p ~ c / d_i and a
            # Newton step on p only doubles d_i; the step on 1 / p, p times as
            # long, lands near the root.
            step = theta - (p - 1.0) * (p if p > 2.0 else 1.0) / float(_sum(t * s / d))
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
    return weights / (r - theta * s), theta


def _inner_solve_raw(mu_hat, nu_hat, M, Z, start=None):
    """Alternating half-updates for the constrained scaling problem.

    Runs xi/eta half-update pairs on
    -<muhat, log xi> - <nuhat, log eta> + xi' M eta subject to xi' Z eta = 1,
    from :func:`_inner_start`: the scalings and multipliers of ``start``, an
    :class:`InnerSolveResult` of a nearby problem, or a cold start. Each
    half-update solves its multiplier exactly, so the constraint holds after
    every update and the objective is non-increasing along half-steps. Each
    later multiplier root starts from its side's previous multiplier. The
    loop stops after the first pair whose change
    sum_i muhat_i |xi_i / xi_i^- - 1| + sum_j nuhat_j |eta_j / eta_j^- - 1|
    is at most ``_INNER_TOL`` (1e-12), and otherwise returns the last iterate
    after ``_INNER_MAX_PAIRS`` pairs.
    """
    # At an A far out the scalings can leave the float range; the start then
    # falls back to the cold one, the multiplier root fails with a
    # RootFindingError, and an overflowing change only means the pair has not
    # settled, so none of them also warns.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        xi, eta, guess1, guess2 = _inner_start(Z, start)
        for k in range(_INNER_MAX_PAIRS):
            xi_new, theta1 = _half_update(mu_hat, M, Z, eta, theta1 if k else guess1)
            eta_new, theta2 = _half_update(nu_hat, M.T, Z.T, xi_new, theta2 if k else guess2)
            change = mu_hat @ np.abs(xi_new / xi - 1.0) + nu_hat @ np.abs(eta_new / eta - 1.0)
            xi, eta = xi_new, eta_new
            if change <= _INNER_TOL:
                break
    return InnerSolveResult(xi=xi, eta=eta, theta=theta1, theta2=theta2)


def _inner_start(Z, start):
    """(xi, eta, guess1, guess2): the scalings of ``start`` rescaled onto
    xi' Z eta = 1 and its multipliers as the first roots' guesses. Without a
    start, or when that rescaling is not a finite positive pair (far from
    ``start``, xi' Z eta can overflow), the all-ones vectors rescaled and
    cold roots."""
    if start is not None:
        scale = 1.0 / np.sqrt(start.xi @ Z @ start.eta)
        xi, eta = start.xi * scale, start.eta * scale
        if min(_min(xi), _min(eta)) > 0 and max(_max(xi), _max(eta)) < np.inf:
            return xi, eta, start.theta, start.theta2
    m, n = Z.shape
    total = float(np.ones(m) @ Z @ np.ones(n))
    return np.full(m, 1.0 / np.sqrt(total)), np.full(n, 1.0 / np.sqrt(total)), None, None


@dataclass(frozen=True)
class RiotFitResult:
    """Best iterate of a marginal-relaxed inverse fit.

    ``objective_trace`` holds the relaxed objective per outer iteration, and
    ``A`` attains its minimum. ``fitted_plan`` is xi_i exp(-lam C_ij(A)) eta_j
    with the scalings ``xi``, ``eta`` of the inner solve at ``A``; ``theta``
    is its final xi multiplier and ``z``, ``w`` the potentials it used, solved
    on the side costs ``C_u``, ``C_v``: those :func:`riot_fit` was given, or
    those :func:`~otmatch.joint.joint_fit` learned.
    """

    A: np.ndarray
    fitted_plan: CouplingMatrix
    objective_trace: np.ndarray
    C_u: np.ndarray
    C_v: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    theta: float
    z: np.ndarray
    w: np.ndarray


def _relaxation_dual(C_side, plan_marginal, empirical_marginal, lam_side, params, start=None):
    """Potential, transport value and plan of one marginal-relaxation term.

    Solves (C_side, plan_marginal, empirical_marginal) from the left potential
    lam_side * ``start`` if given. With its log-potentials (l, r) and plan P,
    the potential is l / lam_side and the value, the regularized transport
    value <P, C_side> - H(P) / lam_side, is the dual
    (P1 . l + P'1 . r - log S - 1) / lam_side, where S = sum plan_marginal is
    the plan's mass before its normalization. By the envelope theorem the
    plan is also the gradient of the value with respect to C_side.
    """
    res = sinkhorn(C_side, plan_marginal, empirical_marginal, lam_side,
                   tol=params.sinkhorn_tol, max_iters=params.sinkhorn_max_iters,
                   log_left_init=None if start is None else lam_side * start)
    plan = res.plan.entries
    value = (plan.sum(axis=1) @ res.log_left + plan.sum(axis=0) @ res.log_right
             - np.log(plan_marginal.sum()) - 1.0) / lam_side
    return res.log_left / lam_side, float(value), plan


def _predicted_start(history):
    """Start potential of a relaxation solve, from the potentials of the last
    solves of its side, oldest first: x0 + x1 - x2, with x0 the newest, or x0
    with fewer than three solutions.

    The rule is exact when the solutions' increments repeat with period one
    or two, and the potentials' additive gauge shifts the start by the same
    constant.
    """
    if len(history) < 3:
        return history[-1]
    x2, x1, x0 = history[-3:]
    return x0 + x1 - x2


def _relaxed_objective(likelihood, plan, mu_hat, nu_hat, C_u, C_v, params,
                       start_u=None, start_v=None):
    """likelihood + delta (d_u + d_v) at a plan, where d_u, d_v relax its
    marginals towards (mu_hat, nu_hat), with the relaxation potentials and
    plans (z, w, plan_u, plan_v), or None when delta is 0. The two solves
    start from the potentials ``start_u``, ``start_v`` if given, else cold."""
    if params.delta == 0:
        return likelihood, None
    z, d_u, plan_u = _relaxation_dual(C_u, plan.sum(axis=1), mu_hat, params.lam_u, params,
                                      start_u)
    w, d_v, plan_v = _relaxation_dual(C_v, plan.sum(axis=0), nu_hat, params.lam_v, params,
                                      start_v)
    return likelihood + params.delta * (d_u + d_v), (z, w, plan_u, plan_v)


def _evaluate_at(A, pi_hat, mu_hat, nu_hat, U, V, kernel, blocks, params, start=None,
                 relax_start=None):
    """Inner solve at A and the blocks (c_u, c_v, z, w), plus the relaxed
    objective of its plan: (objective, (inner, plan, relaxation, blocks)),
    with ``relaxation`` as :func:`_relaxed_objective` returns it.

    The inner problem has Z = exp(-lam C(A)) and M_ij = delta (z_i + w_j) Z_ij;
    its solve starts from the inner result ``start`` if given. The relaxation
    solves start from the pair of potentials ``relax_start`` if given, else
    from the blocks' (z, w).
    """
    c_u, c_v, z, w = blocks
    C = kernel_cost(U, V, A, kernel)
    Z = np.exp(-params.lam * C)
    if np.any(Z <= 0):
        raise ValidationError("exp(-lam * cost) underflowed; rescale the cost or lam")
    M = params.delta * (z[:, None] + w[None, :]) * Z
    inner = _inner_solve_raw(mu_hat, nu_hat, M, Z, start=start)
    pi = inner.xi[:, None] * Z * inner.eta[None, :]
    likelihood = _neg_log_likelihood(pi_hat, mu_hat, nu_hat, C, np.log(inner.xi),
                                     np.log(inner.eta), params.lam)
    obj, rel = _relaxed_objective(likelihood, pi, mu_hat, nu_hat, c_u, c_v, params,
                                  *((z, w) if relax_start is None else relax_start))
    return obj, (inner, pi, rel, blocks)


def _gradient_at(A, point, pi_hat, U, V, kernel, params):
    """Envelope-theorem gradient in A of the relaxed objective at an
    :func:`_evaluate_at` point: sum_ij lam [pihat_ij + (theta - delta (z_i + w_j))
    pi_ij] C'_ij(A). Exact only when the point's inner solve has converged."""
    inner, pi, _, (_, _, z, w) = point
    weights = params.lam * (pi_hat + (inner.theta - params.delta * (z[:, None] + w[None, :])) * pi)
    return assemble_interaction_grad(U, V, A, kernel, weights)


def _alternating_fit(inputs, U, V, kernel, C_u, C_v, params, side_block=None):
    """Shared outer loop of the fixed and joint side-cost fits.

    ``inputs`` is (pihat, muhat, nuhat, A0) as :func:`~otmatch.iot._fit_inputs`
    checks them. Runs :func:`~otmatch.iot.descend` on A from A0; every
    evaluation's inner solve starts from that of the last evaluation, and its
    relaxation solves from the :func:`_predicted_start` of the last
    evaluations' potentials. Before each step's search the blocks take the
    current point's potentials. ``side_block``, when given, is called there
    too, with the current side costs and the two relaxation plans of the
    current point, and returns updated side costs, on which (z, w) are solved
    again. Returns the :class:`RiotFitResult` of the best iterate.
    """
    pi_hat, mu_hat, nu_hat, A0 = inputs
    # Side costs and potentials (c_u, c_v, z, w) every evaluation uses.
    blocks = (as_array(C_u), as_array(C_v), np.zeros(mu_hat.size), np.zeros(nu_hat.size))
    # The inner result of the last evaluation that returned, where the next
    # inner solve starts: the current iterate, or the trial before a halving,
    # when a step is tried, and the last trial when a failed search
    # re-evaluates the current A.
    last = None
    # The relaxation potentials (u side, v side) of the last three evaluations
    # that returned, oldest first; the first evaluation starts from the blocks.
    history = ([], [])

    def evaluate(A):
        nonlocal last
        relax_start = [_predicted_start(h) for h in history] if history[0] else None
        obj, point = _evaluate_at(A, pi_hat, mu_hat, nu_hat, U, V, kernel, blocks, params, last,
                                  relax_start=relax_start)
        last, rel = point[0], point[2]
        if rel is not None:
            for h, potential in zip(history, rel[:2]):
                h.append(potential)
                del h[:-3]
        return obj, point

    def refresh(point):
        # The other blocks, in block order: side costs first (joint mode),
        # then the potentials.
        nonlocal blocks
        _, pi, (z, w, plan_u, plan_v), (c_u, c_v, _, _) = point
        if side_block is not None:
            c_u, c_v = side_block(c_u, c_v, plan_u, plan_v)
            z = _relaxation_dual(c_u, pi.sum(axis=1), mu_hat, params.lam_u, params, z)[0]
            w = _relaxation_dual(c_v, pi.sum(axis=0), nu_hat, params.lam_v, params, w)[0]
        blocks = (c_u, c_v, z, w)

    gradient = partial(_gradient_at, pi_hat=pi_hat, U=U, V=V, kernel=kernel, params=params)
    # delta == 0 leaves the potentials untouched since they have no effect.
    (_, A, (inner, pi, _, (c_u, c_v, z, w))), trace, _ = descend(
        A0, evaluate, gradient, params, refresh=refresh if params.delta > 0 else None)
    return RiotFitResult(A=A, fitted_plan=CouplingMatrix(pi), objective_trace=np.asarray(trace),
                         C_u=c_u, C_v=c_v, xi=inner.xi, eta=inner.eta, theta=inner.theta,
                         z=z, w=w)


def riot_fit(pi_hat, U, V, kernel, C_u, C_v, params=None):
    """Run the three-block alternation and return the best iterate.

    Each of the ``params.outer_iters`` iterations refreshes the relaxation
    potentials from the current plan and takes one gradient step on A with
    the step-halving guard every fit shares, each trial with its inner scaling
    solve (half-update pairs until the scalings settle), and stops early only
    at a gradient norm of 1e-10. At ``delta == 0`` there is nothing to
    refresh, so the fit runs the quasi-Newton path of
    :func:`~otmatch.iot.descend`, which rejects a trial whose evaluation fails
    and stops at a gradient norm of 1e-6. The result holds the iterate with
    the lowest relaxed objective: its A and plan, the scalings, multiplier
    and potentials of its inner solve, and the side costs as given.

    Parameters
    ----------
    pi_hat : CouplingMatrix or array
        Observed matching matrix with strictly positive marginals; an array
        is checked as a :class:`~otmatch.containers.CouplingMatrix` is.
    U, V : array
        Feature matrices (p-by-m and q-by-n).
    kernel : KernelSpec
    C_u, C_v : array
        Side costs of the two relaxation terms, m-by-m and n-by-n.
    params : HyperParams

    Raises
    ------
    ValidationError
        Before any solve, unless ``pi_hat`` is a 2-d coupling with strictly
        positive marginals and ``U``, ``V`` are 2-d with one column per row and
        per column of ``pi_hat``; later, on a kernel cost that is not finite or
        whose exp(-lam C) underflows, and at ``delta > 0`` on a side cost that
        is not a 2-d matrix of its side's size.
    DivergenceError
        If the objective becomes non-finite; carries the trace so far.
    """
    params = params or HyperParams()
    return _alternating_fit(_fit_inputs(pi_hat, U, V), U, V, kernel, C_u, C_v, params)


def predict_matching(A, U_new, V_new, mu_new, nu_new, kernel, lam,
                     tol=1e-9, max_iters=10000):
    """Predict the matching of a new population from a learned interaction.

    Computes the kernel cost of the new profiles and returns its regularized
    plan at the supplied marginals.
    """
    C = kernel_cost(U_new, V_new, A, kernel)
    return sinkhorn(C, mu_new, nu_new, lam, tol=tol, max_iters=max_iters).plan
