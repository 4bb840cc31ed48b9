"""Entropy-regularized optimal transport via stabilized Sinkhorn scaling.

The regularized transport problem

    minimize  <pi, C> - H(pi) / lam    over couplings pi in U(mu, nu)

with entropy H(pi) = -sum_ij pi_ij (log pi_ij - 1) has the unique solution
pi = diag(a) K diag(b) with K = exp(-lam C). :func:`sinkhorn` finds the
scalings with one loop that absorbs large scalings into log-potentials
(Schmitzer 2019, "Stabilized sparse scaling algorithms for entropy
regularized transport problems"; Peyre & Cuturi 2019, *Computational Optimal
Transport*, section 4.4). The module also gives the regularized value of a
plan and the soft-min conjugate transform z^C of a potential.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .containers import CouplingMatrix, as_array
from .errors import SinkhornConvergenceError, ValidationError

# Scaling magnitudes beyond which a sweep is absorbed into the potentials.
_SCALE_HI = 1e150
_SCALE_LO = 1e-150


@dataclass(frozen=True)
class SinkhornResult:
    """Converged scaling solution of one regularized transport problem.

    The plan satisfies plan = diag(a) exp(-lam C) diag(b), and
    ``final_marginal_error`` is the column l1 error after the last row
    update, which leaves the rows exact.
    """

    plan: CouplingMatrix
    left_scaling: np.ndarray
    right_scaling: np.ndarray
    iterations: int
    final_marginal_error: float


def _check_inputs(C, mu, nu, lam, tol):
    m, n = C.shape
    if mu.shape != (m,) or nu.shape != (n,):
        raise ValidationError(
            f"marginal shapes {mu.shape}/{nu.shape} do not match cost shape {C.shape}")
    if np.any(mu <= 0) or np.any(nu <= 0):
        raise ValidationError(
            "marginals must be strictly positive; drop empty rows/columns first")
    if abs(mu.sum() - nu.sum()) > tol:
        raise ValidationError(
            f"marginal masses {mu.sum()!r} and {nu.sum()!r} differ by more than tol={tol:g}")
    if not lam > 0:
        raise ValidationError("lam must be positive")


def sinkhorn(C, mu, nu, lam, tol=1e-9, max_iters=10000, a_init=None):
    """Solve regularized transport by alternating row/column scaling.

    Each sweep sets b = nu / (K' a), then a = mu / (K b), on the kernel
    K = exp(f - lam C + g). A sweep that leaves a scaling outside
    [1e-150, 1e150] or non-finite is redone exactly in log space from the
    pre-sweep left potential f + log a; the new potentials replace f and g,
    a and b become ones, and K is rebuilt. After the row update the rows are
    exact, so the sweep's error is the column l1 error
    sum_j |b_j (K' a)_j - nu_j|, read from the K' a the next sweep uses. The
    plan is formed once, on exit.

    Parameters
    ----------
    C : CostMatrix or array, shape (m, n)
        Pairwise transport costs.
    mu, nu : ProbabilityVector or array
        Strictly positive row and column marginals of equal mass.
    lam : float
        Regularization strength (> 0); larger values sharpen the plan.
    tol : float
        Bound on the column l1 error after the row update, checked after
        every sweep.
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
        On non-positive marginal entries, a shape mismatch, or marginal
        masses |sum mu - sum nu| > tol: the column error after a row update
        is at least that gap, so such a solve can never converge.
    SinkhornConvergenceError
        When the tolerance is not reached within ``max_iters``, or the
        potentials stop being finite; the error carries the last iterate and
        its marginal error.
    """
    C = as_array(C)
    mu = as_array(mu)
    nu = as_array(nu)
    _check_inputs(C, mu, nu, lam, tol)
    m, n = C.shape

    if a_init is None:
        a = np.ones(m)
    else:
        a = as_array(a_init)
        if a.shape != mu.shape or np.any(a <= 0) or not np.all(np.isfinite(a)):
            raise ValidationError("a_init must be a strictly positive finite vector of length m")
    b = np.ones(n)
    f = np.zeros(m)
    g = np.zeros(n)
    neg_lam_C = -lam * C
    K = np.exp(neg_lam_C)
    err = np.inf
    it = 0
    # Every scaling is checked for range and finiteness below, so the
    # floating-point warnings of a sweep that leaves the range are silenced.
    with np.errstate(all="ignore"):
        Kt_a = K.T @ a
        while it < max_iters:
            it += 1
            b_next = nu / Kt_a
            a_next = mu / (K @ b_next)
            lo = min(a_next.min(), b_next.min())
            hi = max(a_next.max(), b_next.max())
            if _SCALE_LO <= lo and hi <= _SCALE_HI:
                a, b = a_next, b_next
            else:
                g = np.log(nu) - logsumexp(neg_lam_C + (f + np.log(a))[:, None], axis=0)
                f = np.log(mu) - logsumexp(neg_lam_C + g[None, :], axis=1)
                if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g))):
                    raise SinkhornConvergenceError(
                        "scaling potentials degenerated to non-finite values",
                        left_scaling=np.exp(f), right_scaling=np.exp(g), iterations=it)
                a = np.ones(m)
                b = np.ones(n)
                K = np.exp(f[:, None] + neg_lam_C + g[None, :])
            Kt_a = K.T @ a
            err = float(np.abs(b * Kt_a - nu).sum())
            if err <= tol:
                break
        plan = a[:, None] * K * b[None, :]
        # Balance the gauge so the factors stay representable as long as
        # possible; at extreme lam*C they overflow though the plan is fine.
        log_a = f + np.log(a)
        log_b = g + np.log(b)
        shift = 0.5 * (np.mean(log_b) - np.mean(log_a))
        left = np.exp(log_a + shift)
        right = np.exp(log_b - shift)
    if not err <= tol:
        raise SinkhornConvergenceError(
            f"no convergence to tol={tol:g} within {max_iters} sweeps "
            f"(marginal error {err:.3e})",
            plan=plan, left_scaling=left, right_scaling=right,
            iterations=it, marginal_error=err)
    return SinkhornResult(plan=CouplingMatrix(plan), left_scaling=left, right_scaling=right,
                          iterations=it, final_marginal_error=err)


def plan_entropy(plan):
    """Entropy H(pi) = -sum pi_ij (log pi_ij - 1), with 0 log 0 = 0."""
    p = as_array(plan)
    pos = p > 0
    return float(-(p[pos] * (np.log(p[pos]) - 1.0)).sum())


def regularized_value(plan, C, lam):
    """Regularized transport value <pi, C> - H(pi) / lam of a plan."""
    p = as_array(plan)
    return float((p * as_array(C)).sum() - plan_entropy(p) / lam)


def rot_distance(C, mu, nu, lam, tol=1e-9, max_iters=10000):
    """Regularized transport value <pi*, C> - H(pi*) / lam at the Sinkhorn plan."""
    return regularized_value(sinkhorn(C, mu, nu, lam, tol=tol, max_iters=max_iters).plan,
                             C, lam)


def conjugate_potential(z, C, nu, lam):
    """Soft-min transform z^C of a potential z against cost C and marginal nu."""
    C = as_array(C)
    nu = as_array(nu)
    z = as_array(z)
    return np.log(nu) / lam - logsumexp(lam * (z[:, None] - C), axis=0) / lam
