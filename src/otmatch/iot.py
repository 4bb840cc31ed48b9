"""Fixed-marginal inverse transport: fit the interaction matrix by
minimizing the negative log-likelihood -sum pihat_ij log pi_ij, with the
model plan's marginals pinned to the empirical ones.

Equivalently this minimizes KL(pihat || pi(A)) over A, where pi(A) is the
Sinkhorn plan of the kernel cost C(A) at the empirical marginals. The
likelihood is read from the Sinkhorn log-potentials, never from the log of the
plan: log pi_ij = log_left_i - lam C_ij + log_right_j holds in log space, so a
plan entry that underflows to zero under pihat > 0 scores its finite model
value, and the objective is finite whenever the solve converges. The gradient
with respect to the cost is lam * (pihat - pi), chained through the kernel
derivative. :func:`_evaluate_at` and :func:`_gradient_at` compute the two at A.

This module also holds :func:`descend`, the backtracking gradient driver that
every fit runs: :func:`iot_fit` here, and the relaxed and joint fits through
``otmatch.riot._alternating_fit``.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .containers import CouplingMatrix, HyperParams, as_array
from .errors import DivergenceError
from .kernels import assemble_interaction_grad, kernel_cost
from .sinkhorn import sinkhorn

# Backtracking budget: halve the step at most this many times within one
# iteration before keeping the current iterate.
MAX_HALVINGS = 20

_GRAD_NORM_EXIT = 1e-10


@dataclass(frozen=True)
class IotFitResult:
    """Best iterate of a fixed-marginal inverse fit.

    ``objective_trace`` holds KL(pihat || pi) per outer iteration, which is
    the fit objective up to the constant entropy of pihat.
    """

    A: np.ndarray
    fitted_plan: CouplingMatrix
    objective_trace: np.ndarray
    iterations: int


def _model_plan(A, mu_hat, nu_hat, U, V, kernel, params):
    """The cost C(A) and its Sinkhorn solution at the marginals (mu_hat, nu_hat)."""
    C = kernel_cost(U, V, A, kernel)
    return C, sinkhorn(C, mu_hat, nu_hat, params.lam,
                       tol=params.sinkhorn_tol, max_iters=params.sinkhorn_max_iters)


def _neg_log_likelihood(pi_hat, mu_hat, nu_hat, C, log_left, log_right, lam):
    """-sum pihat_ij log pi_ij of the plan pi_ij = exp(log_left_i - lam C_ij
    + log_right_j), with (mu_hat, nu_hat) the row and column sums of the array
    ``pi_hat``: lam <pihat, C> - mu_hat . log_left - nu_hat . log_right.

    No m-by-n temporary, entries with zero empirical mass contribute nothing,
    and a plan entry that underflows to zero scores its finite log-space value.
    """
    return float(lam * np.vdot(pi_hat, C) - mu_hat @ log_left - nu_hat @ log_right)


def _evaluate_at(A, pi_hat, mu_hat, nu_hat, U, V, kernel, params):
    """Negative log-likelihood at the model plan, and the plan: the Sinkhorn
    solution of C(A) at the marginals (mu_hat, nu_hat), the row and column
    sums of the array ``pi_hat``."""
    C, result = _model_plan(A, mu_hat, nu_hat, U, V, kernel, params)
    return (_neg_log_likelihood(pi_hat, mu_hat, nu_hat, C, result.log_left, result.log_right,
                                params.lam),
            result.plan.entries)


def _gradient_at(A, pi, pi_hat, U, V, kernel, params):
    """Gradient in A of the likelihood at the plan ``pi`` of A: the cost-space
    gradient lam (pihat - pi) chained through the kernel,
    sum_ij lam (pihat_ij - pi_ij) f'(u_i' A v_j) u_i v_j'."""
    weights = pi_hat - pi
    weights *= params.lam
    return assemble_interaction_grad(U, V, A, kernel, weights)


def descend(A, evaluate, gradient, params, after_step=None):
    """Backtracking gradient descent on A, the loop of every fit.

    ``evaluate(A)`` returns ``(objective, point)``, with ``point`` whatever
    ``gradient(A, point)`` and the caller need. Each of at most
    ``params.outer_iters`` steps starts at ``params.step_size`` and halves
    until the objective does not increase, at most ``MAX_HALVINGS`` times,
    else keeps the current iterate. ``after_step(A_next, point)`` refreshes the caller's
    other blocks from the pre-step point and returns ``A_next`` re-evaluated.
    A gradient norm of at most 1e-10 ends the loop.

    Returns ``((objective, A, point) of the best iterate, trace, steps)``.
    Raises :class:`DivergenceError`, carrying the trace so far, on a
    non-finite objective.
    """
    obj, point = evaluate(A)
    trace = []
    best = None
    steps = 0
    while True:
        if not np.isfinite(obj):
            raise DivergenceError("objective became non-finite", trace=trace)
        trace.append(obj)
        if best is None or obj < best[0]:
            best = (obj, A, point)
        if steps == params.outer_iters:
            break
        grad = gradient(A, point)
        if np.linalg.norm(grad) <= _GRAD_NORM_EXIT:
            break
        step = params.step_size
        for _ in range(MAX_HALVINGS + 1):
            A_next = A - step * grad
            obj_next, point_next = evaluate(A_next)
            if obj_next <= obj:
                break
            step *= 0.5
        else:
            # No halving found a decrease: keep the current iterate.
            A_next, obj_next, point_next = A, obj, point
        if after_step is not None:
            obj_next, point_next = after_step(A_next, point)
        A, obj, point = A_next, obj_next, point_next
        steps += 1
    return best, trace, steps


def iot_fit(pi_hat, U, V, kernel, params=None):
    """Gradient descent on the fixed-marginal likelihood.

    Runs :func:`descend` from A = 0 for at most ``params.outer_iters`` steps
    of size ``params.step_size``, halving the step within an iteration
    whenever it would increase the objective. Returns the best iterate by
    objective.

    Raises
    ------
    DivergenceError
        If the objective becomes non-finite; carries the trace so far.
    """
    params = params or HyperParams()
    pi_hat = as_array(pi_hat)
    mu_hat = pi_hat.sum(axis=1)
    nu_hat = pi_hat.sum(axis=0)
    data = dict(pi_hat=pi_hat, U=U, V=V, kernel=kernel, params=params)
    A0 = np.zeros((as_array(U).shape[0], as_array(V).shape[0]))
    (_, A, pi), trace, steps = descend(
        A0, partial(_evaluate_at, mu_hat=mu_hat, nu_hat=nu_hat, **data),
        partial(_gradient_at, **data), params)
    mask = pi_hat > 0
    neg_entropy = float((pi_hat[mask] * np.log(pi_hat[mask])).sum())
    return IotFitResult(
        A=A,
        fitted_plan=CouplingMatrix(pi),
        objective_trace=np.asarray(trace) + neg_entropy,
        iterations=steps,
    )
