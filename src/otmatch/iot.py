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

This module also holds :func:`descend`, the driver that every fit runs:
:func:`iot_fit` here, and the relaxed and joint fits through
``otmatch.riot._alternating_fit``. It is L-BFGS (Liu & Nocedal 1989) with a
step-halving search while the function stays fixed, as in :func:`iot_fit`,
and steepest descent with the same search while a refresh changes it before
each step's search, as in the relaxed fits at delta > 0.
"""

from collections import deque
from dataclasses import dataclass
from functools import partial

import numpy as np

from .containers import CouplingMatrix, HyperParams, as_array
from .errors import DivergenceError, OtmatchError, ValidationError
from .kernels import assemble_interaction_grad, kernel_cost
from .transport import sinkhorn

# Backtracking budget: halve the step at most this many times within one
# iteration before keeping the current iterate.
MAX_HALVINGS = 20

# Curvature pairs the L-BFGS direction is built from.
_MEMORY = 10

# Gradient norm at which the loop stops. A fit that refreshes its other
# blocks between steps keeps the tighter exit: its gradient at the current
# blocks does not say that the alternation has settled.
_GRAD_NORM_EXIT = 1e-6
_REFRESHED_GRAD_NORM_EXIT = 1e-10


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


def _two_loop(grad, memory):
    """The L-BFGS direction H grad by the two-loop recursion over the stored
    (s, y, s'y) pairs, oldest first, with the initial Hessian scaled by
    s'y / y'y of the newest pair (Nocedal & Wright 2006, Alg. 7.4)."""
    q = grad.copy()
    alphas = []
    for s, y, sy in reversed(memory):
        alphas.append(np.vdot(s, q) / sy)
        q -= alphas[-1] * y
    _, y, sy = memory[-1]
    q *= sy / np.vdot(y, y)
    for (s, y, sy), alpha in zip(memory, reversed(alphas)):
        q += (alpha - np.vdot(y, q) / sy) * s
    return q


def descend(A, evaluate, gradient, params, refresh=None):
    """L-BFGS descent on A, the loop of every fit.

    ``evaluate(A)`` returns ``(objective, point)``, with ``point`` whatever
    ``gradient(A, point)`` and the caller need. Each step tries the two-loop
    direction at t = 1 over at most ``_MEMORY`` curvature pairs, or, with an
    empty memory, the gradient at ``params.step_size``. It halves the trial
    step until the objective does not increase, at most ``MAX_HALVINGS``
    times. Once a quasi-Newton step has been tried, a trial whose evaluation
    raises an :class:`~otmatch.errors.OtmatchError` counts as an increase;
    before that the error propagates. A failed search clears the memory and
    keeps the current iterate; one that fails with an empty memory ends the
    loop, unless ``refresh(point)`` is given. That callback runs once per
    step, after the gradient test and before the search, and updates the
    caller's other blocks from the current point, so the trials are evaluated
    under the refreshed blocks and the accepted one is the next iterate as it
    stands; a failed search re-evaluates the current A under them. The refresh
    changes the function, so no curvature pair is stored and the fit runs
    steepest descent with halving. The loop ends at a gradient norm of at
    most ``_GRAD_NORM_EXIT`` (``_REFRESHED_GRAD_NORM_EXIT`` with ``refresh``)
    or after ``params.outer_iters`` steps.

    Returns ``((objective, A, point) of the best iterate, trace, steps)``.
    Raises :class:`DivergenceError`, carrying the trace so far, on a
    non-finite objective.
    """
    obj, point = evaluate(A)
    trace = []
    best = None
    steps = 0
    memory = deque(maxlen=_MEMORY)
    previous = None
    # Whether a quasi-Newton step has been tried: from then on the iterates
    # leave the steepest-descent path.
    quasi_newton = False
    grad_exit = _GRAD_NORM_EXIT if refresh is None else _REFRESHED_GRAD_NORM_EXIT
    while True:
        if not np.isfinite(obj):
            raise DivergenceError("objective became non-finite", trace=trace)
        trace.append(obj)
        # Ties go to the later iterate, the one the gradient test sees.
        if best is None or obj <= best[0]:
            best = (obj, A, point)
        if steps == params.outer_iters:
            break
        grad = gradient(A, point)
        if np.linalg.norm(grad) <= grad_exit:
            break
        if refresh is not None:
            # The refresh changes the function, so no pair spans it and the
            # memory stays empty.
            refresh(point)
        elif previous is not None:
            s, y = A - previous[0], grad - previous[1]
            sy = np.vdot(s, y)
            if sy > 0:
                memory.append((s, y, sy))
        if memory:
            direction, step = _two_loop(grad, memory), 1.0
            quasi_newton = True
        else:
            direction, step = grad, params.step_size
        for _ in range(MAX_HALVINGS + 1):
            A_next = A - step * direction
            try:
                obj_next, point_next = evaluate(A_next)
            except OtmatchError:
                # A quasi-Newton step can take the fit far out, where the
                # evaluation fails (a Sinkhorn solve that does not converge,
                # a kernel that underflows, an inner solve without a root);
                # from then on a failed trial is rejected like an increase.
                # On the steepest-descent path the failure propagates.
                if not quasi_newton:
                    raise
                obj_next = np.inf
            if obj_next <= obj:
                break
            step *= 0.5
        else:
            # No halving found a decrease: keep the current iterate (s = 0
            # then stores no pair), re-evaluated if the blocks were refreshed.
            # The same search from an unchanged function would fail again.
            if refresh is None and not memory:
                break
            A_next = A
            obj_next, point_next = (obj, point) if refresh is None else evaluate(A)
            memory.clear()
        previous = (A, grad)
        A, obj, point = A_next, obj_next, point_next
        steps += 1
    return best, trace, steps


def _fit_inputs(pi_hat, U, V):
    """(pihat, muhat, nuhat, A0) of a fit, checked once before any solve:
    pihat as an array, 2-d with strictly positive row and column sums (muhat,
    nuhat), U and V 2-d with one column per row and per column of pihat, and
    A0 the p-by-q zero interaction matrix. Raises ValidationError otherwise."""
    pi_hat, U, V = as_array(pi_hat), as_array(U), as_array(V)
    if pi_hat.ndim != 2 or U.ndim != 2 or V.ndim != 2:
        raise ValidationError(f"matching and profiles must be 2-d, got shapes {pi_hat.shape}, "
                              f"{U.shape} and {V.shape}")
    if (U.shape[1], V.shape[1]) != pi_hat.shape:
        raise ValidationError(f"profile counts ({U.shape[1]}, {V.shape[1]}) do not match "
                              f"matching shape {pi_hat.shape}")
    mu_hat, nu_hat = pi_hat.sum(axis=1), pi_hat.sum(axis=0)
    # A NaN sum fails the comparison too.
    if not (np.all(mu_hat > 0) and np.all(nu_hat > 0)):
        raise ValidationError("empirical marginals must be strictly positive")
    return pi_hat, mu_hat, nu_hat, np.zeros((U.shape[0], V.shape[0]))


def iot_fit(pi_hat, U, V, kernel, params=None):
    """L-BFGS descent on the fixed-marginal likelihood.

    Runs :func:`descend` from A = 0 until the gradient norm is at most
    ``_GRAD_NORM_EXIT`` or ``params.outer_iters`` steps are taken; the first
    step is the gradient at ``params.step_size``, and every trial step is
    halved while it would increase the objective. Returns the best iterate by
    objective.

    Raises
    ------
    ValidationError
        Before any solve, unless ``pi_hat`` is 2-d with strictly positive
        marginals and ``U``, ``V`` are 2-d with one column per row and per
        column of ``pi_hat``; later, on a kernel cost that is not finite.
    DivergenceError
        If the objective becomes non-finite; carries the trace so far.
    """
    params = params or HyperParams()
    pi_hat, mu_hat, nu_hat, A0 = _fit_inputs(pi_hat, U, V)
    data = dict(pi_hat=pi_hat, U=U, V=V, kernel=kernel, params=params)
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
