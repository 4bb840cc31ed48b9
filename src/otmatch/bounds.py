"""Closed-form gap bounds, shift-invariant cost comparison, and metrics.

Regularized plans determine their cost only up to the shift family
C + a 1' + 1 b', so costs are compared modulo that family. The least-squares
shift of a matrix is given by its row and column means, and what it leaves
over is the matrix doubly centred.
"""

from dataclasses import dataclass

import numpy as np

from .containers import CostMatrix, MetricMatrix, as_array
from .errors import ValidationError
from .sinkhorn import sinkhorn


def kl_divergence(p, q):
    """KL(p || q) = sum p_ij log(p_ij / q_ij) with 0 log 0 = 0.

    Raises
    ------
    ValidationError
        If q vanishes somewhere p does not; the message names the entry.
    """
    p = as_array(p)
    q = as_array(q)
    if p.shape != q.shape:
        raise ValidationError(f"shape mismatch: {p.shape} vs {q.shape}")
    bad = (p > 0) & (q <= 0)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise ValidationError(f"support violation at entry ({i}, {j}): p > 0 but q = 0")
    mask = p > 0
    return float((p[mask] * (np.log(p[mask]) - np.log(q[mask]))).sum())


def coupling_gap_lower_bound(mu1, nu1, mu2, nu2):
    """Smallest possible squared Frobenius gap between couplings of two
    marginal pairs: (m ||dmu||^2 + n ||dnu||^2) / (m n)."""
    dmu = as_array(mu1) - as_array(mu2)
    dnu = as_array(nu1) - as_array(nu2)
    m, n = dmu.size, dnu.size
    return float((m * (dmu @ dmu) + n * (dnu @ dnu)) / (m * n))


def iot_error_lower_bound(delta_mu, delta_nu, m, n):
    """Systematic l1 floor sqrt((||dmu||_1^2 + ||dnu||_1^2) / (m n)) on any
    pinned-marginal fit whose marginals are off by the given deltas."""
    dmu = np.abs(as_array(delta_mu)).sum()
    dnu = np.abs(as_array(delta_nu)).sum()
    return float(np.sqrt((dmu ** 2 + dnu ** 2) / (m * n)))


def _shift_fit(M):
    """Best shift (a, b) of M and its residual R = M - a 1' - 1 b'.

    The fit is a = row means - m g / (m + n) and b = column means
    - n g / (m + n), with g the mean of M: of the minimizers (a + t, b - t)
    it is the one of least norm (sum a = sum b). R is M doubly centred.
    """
    M = as_array(M)
    m, n = M.shape
    g = M.mean()
    a = M.mean(axis=1) - m * g / (m + n)
    b = M.mean(axis=0) - n * g / (m + n)
    return a, b, M - a[:, None] - b[None, :]


def best_shift(M):
    """Vectors (a, b) minimizing ||a 1' + 1 b' - M||_F (the least-norm pair)."""
    a, b, _ = _shift_fit(M)
    return a, b


def cost_shift_distance(C1, C2):
    """Frobenius distance between cost matrices modulo the shift family.

    Equals min over (a, b) of ||a 1' + 1 b' - M||_F with M = C2 - C1, the
    norm of M doubly centred.
    """
    M = as_array(C2) - as_array(C1)
    if M.ndim != 2:
        raise ValidationError("cost matrices must be 2-d")
    return float(np.linalg.norm(_shift_fit(M)[2]))


def align_shift(C_learned, C_target):
    """Shift-corrected copy of ``C_learned`` closest to ``C_target``.

    Returns the minimizer D = C_learned + a 1' + 1 b' of ||D - C_target||_F.
    """
    Cl = as_array(C_learned)
    Ct = as_array(C_target)
    a, b = best_shift(Ct - Cl)
    return CostMatrix(Cl + a[:, None] + b[None, :])


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one inequality check: observed >= bound - 1e-9."""

    bound_value: float
    observed_value: float
    satisfied: bool

    def __post_init__(self):
        expected = self.observed_value >= self.bound_value - 1e-9
        if self.satisfied != expected:
            raise ValidationError("satisfied flag is inconsistent with the values")

    @classmethod
    def check(cls, bound_value, observed_value):
        bound_value = float(max(bound_value, 0.0))
        observed_value = float(observed_value)
        return cls(bound_value=bound_value, observed_value=observed_value,
                   satisfied=bool(observed_value >= bound_value - 1e-9))


def _log_ratio(p1, p2, what):
    p1 = as_array(p1)
    p2 = as_array(p2)
    if p1.shape != p2.shape:
        raise ValidationError(f"shape mismatch: {p1.shape} vs {p2.shape}")
    if np.any(p1 <= 0) or np.any(p2 <= 0):
        raise ValidationError(f"{what} must have strictly positive entries")
    return np.log(p1) - np.log(p2)


def cost_error_bound_check(C0, C_learned, pi0, pi_hat, lam):
    """Check ||C0 - C_learned||_F^2 against its log-plan lower bound.

    The bound is ||R||_F^2 / lam^2 with R the shift-fit residual (doubly
    centred form) of dlogpi = log pi0 - log pihat; both couplings must be
    strictly positive.
    """
    dc = as_array(C0) - as_array(C_learned)
    resid = _shift_fit(_log_ratio(pi0, pi_hat, "couplings"))[2]
    bound = (resid * resid).sum() / lam ** 2
    return BoundReport.check(bound, (dc * dc).sum())


def prediction_error_bound_check(C0, C_learned, mu, nu, lam,
                                 tol=1e-9, max_iters=10000):
    """Check the log-plan gap of predictions against its cost lower bound.

    Both plans are computed at the shared marginals; the bound is
    lam^2 ||R||_F^2 with R the shift-fit residual of dC = C0 - C_learned.
    """
    plan0 = sinkhorn(as_array(C0), mu, nu, lam, tol=tol, max_iters=max_iters).plan
    plan1 = sinkhorn(as_array(C_learned), mu, nu, lam, tol=tol, max_iters=max_iters).plan
    dlog = _log_ratio(plan0, plan1, "plans")
    resid = _shift_fit(as_array(C0) - as_array(C_learned))[2]
    bound = lam ** 2 * (resid * resid).sum()
    return BoundReport.check(bound, (dlog * dlog).sum())


def symmetric_cost_recovery(pi, lam, consistency_tol=1e-6):
    """Invert a plan generated by a symmetric hollow cost back to that cost.

    For plans of the scaling form over a symmetric zero-diagonal cost, the
    diagonal fixes the potential sums and the skew ratios
    sqrt(pi_ij / pi_ji) fix their differences, so the kernel
    K_ij = exp(-lam C_ij) is recoverable entry by entry:

        s_i   = log(pi_i1 / pi_1i) / 2
        K_ij  = pi_ij / (sqrt(pi_ii pi_jj) * exp(s_i - s_j))
        C     = -log(K) / lam, symmetrized.

    Raises
    ------
    ValidationError
        If the skew ratios are inconsistent across entries (the plan was not
        generated by a symmetric hollow cost) or the plan is not square and
        strictly positive.
    """
    p = as_array(pi)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValidationError("recovery needs a square plan")
    if np.any(p <= 0):
        raise ValidationError("recovery needs a strictly positive plan")
    log_p = np.log(p)
    s = 0.5 * (log_p[:, 0] - log_p[0, :])
    skew = 0.5 * (log_p - log_p.T)
    residual = np.max(np.abs(skew - (s[:, None] - s[None, :])))
    if residual > consistency_tol:
        raise ValidationError(
            f"plan not generated by symmetric hollow cost "
            f"(cycle-consistency violation {residual:.3e})")
    diag = np.diag(log_p)
    log_K = log_p - 0.5 * (diag[:, None] + diag[None, :]) - (s[:, None] - s[None, :])
    C = -0.5 * (log_K + log_K.T) / lam
    np.fill_diagonal(C, 0.0)
    return MetricMatrix(C, tol=max(consistency_tol, 1e-8))


def eval_matching(pi_pred, pi_test):
    """Root-mean-square error, mean absolute error, and KL of a prediction.

    ``kl`` is the divergence of the reference matching from the prediction,
    KL(pi_test || pi_pred); the prediction must be positive wherever the
    reference is.
    """
    p = as_array(pi_pred)
    t = as_array(pi_test)
    if p.shape != t.shape:
        raise ValidationError(f"shape mismatch: {p.shape} vs {t.shape}")
    diff = p - t
    return {
        "rmse": float(np.sqrt(np.mean(diff ** 2))),
        "mae": float(np.mean(np.abs(diff))),
        "kl": kl_divergence(t, p),
    }
