"""Entropy-regularized optimal transport via stabilized Sinkhorn scaling.

The regularized transport problem

    minimize  <pi, C> - H(pi) / lam    over couplings pi in U(mu, nu)

with entropy H(pi) = -sum_ij pi_ij (log pi_ij - 1) has the unique solution
pi = diag(a) K diag(b) with K = exp(-lam C). :func:`sinkhorn` finds the
scalings with one loop that absorbs large scalings into log-potentials
(Schmitzer 2019, "Stabilized sparse scaling algorithms for entropy
regularized transport problems"; Peyre & Cuturi 2019, *Computational Optimal
Transport*, section 4.4).
"""

from dataclasses import dataclass

import numpy as np

from .containers import CouplingMatrix, as_array
from .errors import SinkhornConvergenceError, ValidationError

# Scaling magnitudes beyond which a sweep is absorbed into the potentials.
_SCALE_HI = 1e150
_SCALE_LO = 1e-150


def _logsumexp(x, axis):
    """log sum exp(x) along ``axis``, shifted by the finite max; a slice that
    is all -inf gives -inf."""
    shift = x.max(axis=axis, keepdims=True)
    shift[~np.isfinite(shift)] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.exp(x - shift).sum(axis=axis)) + np.squeeze(shift, axis=axis)


@dataclass(frozen=True)
class SinkhornResult:
    """Converged scaling solution of one regularized transport problem.

    The finite log-potentials ``log_left`` and ``log_right`` are the
    solution: log plan_ij = log_left_i - lam C_ij + log_right_j, even where
    the plan entry underflows to zero (up to the plan's renormalization to
    unit mass, which the exact row update keeps within rounding of sum mu).
    They are defined up to a constant t, (log_left + t, log_right - t), which
    is fixed so that both have the same mean. ``final_marginal_error`` is the
    column l1 error after the last row update, which leaves the rows exact.
    """

    plan: CouplingMatrix
    iterations: int
    final_marginal_error: float
    log_left: np.ndarray
    log_right: np.ndarray


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
            f"marginal masses {float(mu.sum())!r} and {float(nu.sum())!r} differ by more "
            f"than tol={tol:g}")
    if not lam > 0:
        raise ValidationError("lam must be positive")


def sinkhorn(C, mu, nu, lam, tol=1e-9, max_iters=10000, log_left_init=None):
    """Solve regularized transport by alternating row/column scaling.

    Each sweep sets b = nu / (K' a), then a = mu / (K b), on the kernel
    K = exp(f - lam C + g). A sweep that leaves a scaling outside
    [1e-150, 1e150] or non-finite is redone exactly in log space from the
    pre-sweep left potential f + log a; the new potentials replace f and g,
    a and b become ones, and K is rebuilt. After the row update the rows are
    exact, so the sweep's error is the column l1 error
    sum_j |b_j (K' a)_j - nu_j|, read from the K' a the next sweep uses. K is
    the one m-by-n array of the loop (-lam C is formed only to absorb), and
    the plan is formed once, on exit, in place on K. The potentials are
    f + log a and g + log b, balanced to equal means.

    Parameters
    ----------
    C : array, shape (m, n)
        Pairwise transport costs.
    mu, nu : array
        Strictly positive row and column marginals of equal mass.
    lam : float
        Regularization strength (> 0); larger values sharpen the plan.
    tol : float
        Bound on the column l1 error after the row update, checked after
        every sweep.
    max_iters : int
        Sweep budget before giving up.
    log_left_init : array, optional
        Initial left potential f (defaults to zeros), a warm start such as the
        ``log_left`` of an earlier solve. The converged plan does not depend on
        it, up to ``tol``.

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

    f = np.zeros(m) if log_left_init is None else as_array(log_left_init)
    if f.shape != mu.shape or not np.all(np.isfinite(f)):
        raise ValidationError("log_left_init must be a finite vector of length m")
    a = np.ones(m)
    b = np.ones(n)
    g = np.zeros(n)
    K = np.multiply(C, -lam)
    if log_left_init is not None:
        K += f[:, None]
    err = np.inf
    it = 0
    # Every scaling is checked for range and finiteness below, so the
    # floating-point warnings of a sweep that leaves the range (or of a warm
    # start whose kernel overflows) are silenced.
    with np.errstate(all="ignore"):
        np.exp(K, out=K)
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
                neg_lam_C = -lam * C
                g = np.log(nu) - _logsumexp(neg_lam_C + (f + np.log(a))[:, None], axis=0)
                f = np.log(mu) - _logsumexp(neg_lam_C + g[None, :], axis=1)
                if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g))):
                    raise SinkhornConvergenceError(
                        "scaling potentials degenerated to non-finite values", iterations=it)
                a = np.ones(m)
                b = np.ones(n)
                np.add(f[:, None], neg_lam_C, out=K)
                K += g[None, :]
                np.exp(K, out=K)
            Kt_a = K.T @ a
            err = float(np.abs(b * Kt_a - nu).sum())
            if err <= tol:
                break
        plan = K
        plan *= a[:, None]
        plan *= b[None, :]
    if not err <= tol:
        raise SinkhornConvergenceError(
            f"no convergence to tol={tol:g} within {max_iters} sweeps "
            f"(marginal error {err:.3e})",
            plan=plan, iterations=it, marginal_error=err)
    log_left = f + np.log(a)
    log_right = g + np.log(b)
    shift = 0.5 * (np.mean(log_right) - np.mean(log_left))
    log_left += shift
    log_right -= shift
    return SinkhornResult(plan=CouplingMatrix(plan), iterations=it, final_marginal_error=err,
                          log_left=log_left, log_right=log_right)

