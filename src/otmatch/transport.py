"""Entropy-regularized optimal transport via stabilized Sinkhorn scaling.

The regularized transport problem

    minimize  <pi, C> - H(pi) / lam    over couplings pi in U(mu, nu)

with entropy H(pi) = -sum_ij pi_ij (log pi_ij - 1) has the unique solution
pi = diag(a) K diag(b) with K = exp(-lam C). :func:`sinkhorn` finds the
scalings with one loop that absorbs large scalings into log-potentials
(Schmitzer 2019, "Stabilized sparse scaling algorithms for entropy
regularized transport problems"; Peyre & Cuturi 2019, *Computational Optimal
Transport*, section 4.4).

After its first plain sweeps the loop over-relaxes both half-updates on the
log-potentials with the factor omega = 2 / (1 + sqrt(1 - theta)), optimal for
the plain rate theta that the loop reads from its last plain sweep (Lehmann,
von Renesse, Sambale & Uschmajew 2022, "A note on overrelaxation in the
Sinkhorn algorithm"). As a safeguard in the spirit of Thibault, Chizat,
Dossal & Papadakis 2021 ("Overrelaxed Sinkhorn-Knopp algorithm for
regularized optimal transport"), a relaxed sweep that raises the error is
dropped and the loop goes back to plain sweeps.
"""

from dataclasses import dataclass

import numpy as np

from .containers import CouplingMatrix, as_array, checked
from .errors import SinkhornConvergenceError, ValidationError

# Scaling magnitudes beyond which a sweep is absorbed into the potentials.
_SCALE_HI = 1e150
_SCALE_LO = 1e-150

# Over-relaxation: the plain sweeps at the start and after each fallback, the
# largest factor used, and the relative fall of a plain contraction beyond
# which it is not taken as the rate (see sinkhorn's docstring).
_PLAIN_SWEEPS = 4
_OMEGA_MAX = 1.9
_FALL = 0.05
# Error reduction after which the first relaxed stretch measures theta again.
_RECHECK = 1e-2
# Share of the mass the error must be below before omega rises: on a plateau
# far from the solution a plain contraction can read below 1.
_RELAX_BELOW = 0.1

# The reductions of each sweep, and of riot's multiplier roots, called as
# ufuncs: the ndarray methods and np.min add a Python-level wrapper to each
# call and compute the same values.
_min = np.minimum.reduce
_max = np.maximum.reduce
_sum = np.add.reduce


def _relax(old, new, omega):
    """old^(1 - omega) new^omega: the over-relaxed step in log space."""
    step = new / old
    step **= omega
    step *= old
    return step


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
    if C.ndim != 2:
        raise ValidationError(f"cost must be 2-d, got shape {C.shape}")
    m, n = C.shape
    if mu.shape != (m,) or nu.shape != (n,):
        raise ValidationError(
            f"marginal shapes {mu.shape}/{nu.shape} do not match cost shape {C.shape}")
    # A NaN fails every comparison, so these tests pass only numbers in range.
    if not (0 < _min(mu) and _max(mu) < np.inf and 0 < _min(nu) and _max(nu) < np.inf):
        raise ValidationError(
            "marginals must be finite and strictly positive; drop empty rows/columns first")
    # +inf marks a forbidden pair (a zero kernel entry); NaN and -inf mean nothing.
    if not _min(C, axis=None) > -np.inf:
        raise ValidationError("costs must not be NaN or -inf")
    if abs(mu.sum() - nu.sum()) > tol:
        raise ValidationError(
            f"marginal masses {float(mu.sum())!r} and {float(nu.sum())!r} differ by more "
            f"than tol={tol:g}")
    checked("lam", lam, 0, strict=True)


def sinkhorn(C, mu, nu, lam, tol=1e-9, max_iters=10000, log_left_init=None):
    """Solve regularized transport by alternating row/column scaling.

    Each sweep sets b = nu / (K' a), then a = mu / (K b), on the kernel
    K = exp(f - lam C + g). After the row update the rows are exact, so the
    sweep's error is the column l1 error sum_j |b_j (K' a)_j - nu_j|.

    The first four sweeps are plain, so a solve that converges within them is
    the plain Sinkhorn iteration bit for bit. From the fourth on, the first
    plain sweep whose contraction theta = err_k / err_{k-1} is below 1, at
    most 5% below the last one (a steeper fall marks a plateau's exit, where
    the rate ahead is faster), and whose error is below a tenth of the mass
    sum nu sets omega = min(1.9, 2 / (1 + sqrt(1 - theta))); each later
    half-update becomes b <- b^(1 - omega) (nu / K' a)^omega, and likewise
    for a. The stop test still reads the column error after the exact row
    update mu / (K b), and the plan, the potentials and a failed solve's last
    iterate are formed from that exact update, so ``tol`` means what it means
    for the plain iteration; the relaxed row scaling only feeds the next
    column update. The loop returns to four plain sweeps, and measures theta
    again, when a relaxed sweep raises the error (that sweep is dropped: the
    loop resumes from the exact update before it) and once when the first
    relaxed stretch has cut the error a hundredfold.

    A sweep that leaves a scaling, plain or relaxed, outside [1e-150, 1e150]
    or non-finite is redone exactly in log space from the pre-sweep left
    potential f + log a; the new potentials replace f and g, a and b become
    ones, K is rebuilt, and the loop falls back to plain sweeps. K is the one
    m-by-n array of the loop (-lam C is formed only to absorb), and the plan
    is formed once, on exit, in place on K. The potentials are f + log a and
    g + log b, balanced to equal means.

    Parameters
    ----------
    C : array, shape (m, n)
        Pairwise transport costs.
    mu, nu : array
        Finite, strictly positive row and column marginals of equal mass.
    lam : float
        Regularization strength (> 0); larger values sharpen the plan.
    tol : float
        Bound on the column l1 error after the row update, checked after
        every sweep. On a nearly degenerate plan the error can stall at a
        rounding floor a few 1e-12 above zero whose level depends on the
        sweep path, so at a ``tol`` of 1e-12 or below such a solve may
        converge on one path and raise on another.
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
        On marginal entries that are not finite and positive, a NaN or -inf
        cost (+inf forbids a pair), a cost that is not 2-d, a shape mismatch,
        or marginal masses |sum mu - sum nu| > tol: the column error after a
        row update is at least that gap, so such a solve can never converge.
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
    err = prev_err = np.inf
    mass = _sum(nu)
    it = 0
    omega = 1.0
    plain = _PLAIN_SWEEPS  # plain sweeps left before omega may rise
    prev_theta = np.inf  # the last plain sweep's contraction err_k / err_{k-1}
    last = None  # (row scaling, b, K' row scaling) of the last kept sweep
    recheck = np.inf  # error at which relaxing stops to measure theta again
    # Every scaling is checked for range and finiteness below, so the
    # floating-point warnings of a sweep that leaves the range (or of a warm
    # start whose kernel overflows) are silenced.
    with np.errstate(all="ignore"):
        np.exp(K, out=K)
        Kt_a = K.T @ a
        row = a  # the exact row update that the error, plan and potentials use
        while it < max_iters:
            it += 1
            b_next = nu / Kt_a
            if omega > 1.0:
                b_next = _relax(b, b_next, omega)
            row = mu / (K @ b_next)
            a_next = row if omega == 1.0 else _relax(a, row, omega)
            lo = min(_min(a_next), _min(b_next))
            hi = max(_max(a_next), _max(b_next))
            if _SCALE_LO <= lo and hi <= _SCALE_HI:
                b = b_next
            else:
                neg_lam_C = -lam * C
                g = np.log(nu) - _logsumexp(neg_lam_C + (f + np.log(a))[:, None], axis=0)
                f = np.log(mu) - _logsumexp(neg_lam_C + g[None, :], axis=1)
                if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g))):
                    raise SinkhornConvergenceError(
                        "scaling potentials degenerated to non-finite values", iterations=it)
                row = a_next = np.ones(m)
                b = np.ones(n)
                np.add(f[:, None], neg_lam_C, out=K)
                K += g[None, :]
                np.exp(K, out=K)
                omega, plain = 1.0, _PLAIN_SWEEPS
            Kt_row = K.T @ row
            residual = b * Kt_row
            residual -= nu
            err = _sum(np.abs(residual, out=residual))
            if err <= tol:
                break
            if omega > 1.0 and (err > prev_err or err <= recheck):
                if err > prev_err:
                    # Drop the relaxed sweep that raised the error.
                    row, b, Kt_row = last
                    err = prev_err
                else:
                    # The first theta can come from before the linear regime,
                    # where the contraction still changes: measure it again.
                    recheck = 0.0
                # Plain sweeps, from the last exact row update.
                a_next, omega, plain = row, 1.0, _PLAIN_SWEEPS
            last = row, b, Kt_row
            a = a_next
            if omega > 1.0:
                Kt_a = K.T @ a
            else:
                Kt_a = Kt_row
                plain -= 1
                theta = err / prev_err
                if (plain <= 0 and (1.0 - _FALL) * prev_theta <= theta < 1.0
                        and err <= _RELAX_BELOW * mass):
                    omega = min(_OMEGA_MAX, 2.0 / (1.0 + (1.0 - theta) ** 0.5))
                    if recheck:
                        recheck = _RECHECK * err
                prev_theta = theta
            prev_err = err
        plan = K
        plan *= row[:, None]
        plan *= b[None, :]
    err = float(err)
    if not err <= tol:
        raise SinkhornConvergenceError(
            f"no convergence to tol={tol:g} within {max_iters} sweeps "
            f"(marginal error {err:.3e})",
            plan=plan, iterations=it, marginal_error=err)
    log_left = f + np.log(row)
    log_right = g + np.log(b)
    shift = 0.5 * (_sum(log_right) / n - _sum(log_left) / m)
    log_left += shift
    log_right -= shift
    return SinkhornResult(plan=CouplingMatrix(plan), iterations=it, final_marginal_error=err,
                          log_left=log_left, log_right=log_right)

