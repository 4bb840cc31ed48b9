"""Entropy-regularized optimal transport via Sinkhorn-Knopp matrix scaling.

The regularized transport problem

    minimize  <pi, C> - H(pi) / lam    over couplings pi in U(mu, nu)

with entropy H(pi) = -sum_ij pi_ij (log pi_ij - 1) has the unique solution
pi = diag(a) K diag(b) with K = exp(-lam C). This module computes the scaling
vectors by alternating row/column fitting, the primal value, and the dual
value through the potentials z = log(a)/lam and the soft-min conjugate
transform z^C.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .containers import CouplingMatrix, as_array
from .errors import SinkhornConvergenceError, ValidationError

# Scaling magnitudes beyond which updates move to log space.
_SCALE_HI = 1e150
_SCALE_LO = 1e-150


@dataclass(frozen=True)
class SinkhornResult:
    """Converged scaling solution of one regularized transport problem.

    The plan satisfies plan = diag(a) exp(-lam C) diag(b), and
    ``final_marginal_error`` is the max of the row and column l1 errors.
    """

    plan: CouplingMatrix
    left_scaling: np.ndarray
    right_scaling: np.ndarray
    iterations: int
    final_marginal_error: float


@dataclass(frozen=True)
class DualPotentials:
    """Dual potentials (z, z^C) of the regularized transport problem.

    ``z_conjugate`` holds the soft-min transform
    z^C_j = log(nu_j)/lam - log(sum_i exp(lam (z_i - C_ij)))/lam,
    evaluated exactly from ``z`` at construction sites.
    """

    z: np.ndarray
    z_conjugate: np.ndarray


def _check_inputs(C, mu, nu, lam):
    m, n = C.shape
    if mu.shape != (m,) or nu.shape != (n,):
        raise ValidationError(
            f"marginal shapes {mu.shape}/{nu.shape} do not match cost shape {C.shape}")
    if np.any(mu <= 0) or np.any(nu <= 0):
        raise ValidationError(
            "marginals must be strictly positive; drop empty rows/columns first")
    if not lam > 0:
        raise ValidationError("lam must be positive")


def sinkhorn(C, mu, nu, lam, tol=1e-9, max_iters=10000, a_init=None):
    """Solve regularized transport by alternating row/column scaling.

    Parameters
    ----------
    C : CostMatrix or array, shape (m, n)
        Pairwise transport costs.
    mu, nu : ProbabilityVector or array
        Strictly positive row and column marginals.
    lam : float
        Regularization strength (> 0); larger values sharpen the plan.
    tol : float
        Convergence threshold on max(row l1 error, column l1 error),
        checked after each full row+column sweep.
    max_iters : int
        Sweep budget before giving up.
    a_init : array, optional
        Initial left scaling (defaults to all ones). The converged plan does
        not depend on it; the parameter exists for warm starts and for
        exercising the uniqueness property.

    Returns
    -------
    SinkhornResult

    Raises
    ------
    ValidationError
        On zero marginal entries or shape mismatch.
    SinkhornConvergenceError
        When the tolerance is not reached within ``max_iters``; the error
        carries the last iterate and its marginal error.
    """
    C = as_array(C)
    mu = as_array(mu)
    nu = as_array(nu)
    _check_inputs(C, mu, nu, lam)

    neg_lam_C = -lam * C
    log_mu = np.log(mu)
    log_nu = np.log(nu)

    if a_init is None:
        log_a = np.zeros(C.shape[0])
    else:
        a_init = as_array(a_init)
        if a_init.shape != mu.shape or np.any(a_init <= 0) or not np.all(np.isfinite(a_init)):
            raise ValidationError("a_init must be a strictly positive finite vector of length m")
        log_a = np.log(a_init)
    log_b = np.zeros(C.shape[1])
    K = np.exp(neg_lam_C)
    a = np.exp(log_a)
    log_domain = not (np.all(K > 0) and np.all(np.isfinite(a)))

    err = np.inf
    it = 0
    while it < max_iters:
        it += 1
        if not log_domain:
            b = nu / (K.T @ a)
            a = mu / (K @ b)
            hi = max(a.max(), b.max())
            lo = min(a.min(), b.min())
            if not np.isfinite(hi) or hi > _SCALE_HI or lo < _SCALE_LO:
                # Rescue the iterate into log space and redo the sweep there.
                log_a = np.log(np.clip(a, 1e-300, 1e300))
                log_domain = True
            else:
                log_a = np.log(a)
                log_b = np.log(b)
        if log_domain:
            log_b = log_nu - logsumexp(neg_lam_C + log_a[:, None], axis=0)
            log_a = log_mu - logsumexp(neg_lam_C + log_b[None, :], axis=1)

        log_plan = log_a[:, None] + neg_lam_C + log_b[None, :]
        plan = np.exp(log_plan)
        total = plan.sum()
        if not np.isfinite(total) or total <= 0:
            raise SinkhornConvergenceError(
                "scaling iterate degenerated to a non-finite plan",
                plan=plan, left_scaling=np.exp(log_a), right_scaling=np.exp(log_b),
                iterations=it, marginal_error=np.inf)
        plan /= total
        log_a = log_a - np.log(total)
        err_row = np.abs(plan.sum(axis=1) - mu).sum()
        err_col = np.abs(plan.sum(axis=0) - nu).sum()
        err = max(err_row, err_col)
        if err <= tol:
            # Balance the gauge so the factors stay representable as long as
            # possible; at extreme lam*C the factors overflow even though the
            # plan itself is fine, and inf is the honest value then.
            shift = 0.5 * (np.mean(log_b) - np.mean(log_a))
            with np.errstate(over="ignore"):
                left = np.exp(log_a + shift)
                right = np.exp(log_b - shift)
            return SinkhornResult(
                plan=CouplingMatrix(plan),
                left_scaling=left,
                right_scaling=right,
                iterations=it,
                final_marginal_error=float(err),
            )
        if not log_domain:
            a = np.exp(log_a)

    raise SinkhornConvergenceError(
        f"no convergence to tol={tol:g} within {max_iters} sweeps "
        f"(marginal error {err:.3e})",
        plan=plan, left_scaling=np.exp(log_a), right_scaling=np.exp(log_b),
        iterations=it, marginal_error=float(err))


def plan_entropy(plan):
    """Entropy H(pi) = -sum pi_ij (log pi_ij - 1), with 0 log 0 = 0."""
    p = as_array(plan)
    pos = p > 0
    return float(-(p[pos] * (np.log(p[pos]) - 1.0)).sum())


def rot_distance(C, mu, nu, lam, tol=1e-9, max_iters=10000):
    """Regularized transport value <pi*, C> - H(pi*) / lam at the Sinkhorn plan."""
    C = as_array(C)
    result = sinkhorn(C, mu, nu, lam, tol=tol, max_iters=max_iters)
    p = result.plan.entries
    return float((p * C).sum() - plan_entropy(p) / lam)


def conjugate_potential(z, C, nu, lam):
    """Soft-min transform z^C of a potential z against cost C and marginal nu."""
    C = as_array(C)
    nu = as_array(nu)
    z = as_array(z)
    return np.log(nu) / lam - logsumexp(lam * (z[:, None] - C), axis=0) / lam


def rot_dual_value(C, mu, nu, lam, tol=1e-9, max_iters=10000):
    """Dual value <z, mu> + <z^C, nu> - 1/lam of the regularized problem.

    The potential z is recovered from the Sinkhorn left scaling as
    z = log(a) / lam; by strong duality the value agrees with
    :func:`rot_distance` up to the solver tolerance.

    Returns
    -------
    (float, DualPotentials)
    """
    C = as_array(C)
    mu = as_array(mu)
    nu = as_array(nu)
    result = sinkhorn(C, mu, nu, lam, tol=tol, max_iters=max_iters)
    z = np.log(result.left_scaling) / lam
    z_conj = conjugate_potential(z, C, nu, lam)
    value = float(z @ mu + z_conj @ nu - 1.0 / lam)
    return value, DualPotentials(z=z, z_conjugate=z_conj)
