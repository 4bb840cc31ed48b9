"""Shift-invariant cost comparison, two identifiability bound checks, and
matching metrics.

Regularized plans determine their cost only up to the shift family
C + a 1' + 1 b', so costs are compared modulo that family. The least-squares
shift of a matrix is given by its row and column means, and what it leaves
over is the matrix doubly centred. Both bound checks compare a doubly
centred residual with its observed counterpart, one in cost space and one
in log-plan space.
"""

from dataclasses import dataclass

import numpy as np

from .containers import as_array, checked
from .errors import ValidationError
from .transport import sinkhorn


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


def _matrices(what, *arrays):
    """``arrays`` as float arrays once they are 2-d and of one shape; else a
    ValidationError that names ``what``."""
    arrays = [as_array(x) for x in arrays]
    if any(x.ndim != 2 or x.shape != arrays[0].shape for x in arrays):
        raise ValidationError(f"{what} must be 2-d of one shape, got "
                              f"{' and '.join(str(x.shape) for x in arrays)}")
    return arrays


def cost_shift_distance(C1, C2):
    """Frobenius distance between cost matrices modulo the shift family.

    Equals min over (a, b) of ||a 1' + 1 b' - M||_F with M = C2 - C1, the
    norm of M doubly centred. Both must be 2-d and of one shape.
    """
    C1, C2 = _matrices("cost matrices", C1, C2)
    return float(np.linalg.norm(_shift_fit(C2 - C1)[2]))


def align_shift(C_learned, C_target):
    """Shift-corrected copy of ``C_learned`` closest to ``C_target``.

    Returns the minimizer D = C_learned + a 1' + 1 b' of ||D - C_target||_F.
    Both must be 2-d and of one shape.
    """
    Cl, Ct = _matrices("cost matrices", C_learned, C_target)
    a, b, _ = _shift_fit(Ct - Cl)
    return Cl + a[:, None] + b[None, :]


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one inequality check: observed >= bound - 1e-9."""

    bound_value: float
    observed_value: float

    @property
    def satisfied(self):
        return self.observed_value >= self.bound_value - 1e-9


def cost_error_bound_check(C0, C_learned, pi0, pi_hat, lam):
    """Check ||C0 - C_learned||_F^2 against its log-plan lower bound.

    The bound is ||R||_F^2 / lam^2 with R the shift-fit residual (doubly
    centred form) of dlogpi = log pi0 - log pihat; the costs and couplings
    must be 2-d and of one shape, both couplings strictly positive, and lam
    finite and positive.
    """
    checked("lam", lam, 0, strict=True)
    C0, C_learned, p0, p1 = _matrices("costs and couplings", C0, C_learned, pi0, pi_hat)
    if np.any(p0 <= 0) or np.any(p1 <= 0):
        raise ValidationError("couplings must have strictly positive entries")
    dc = C0 - C_learned
    resid = _shift_fit(np.log(p0) - np.log(p1))[2]
    bound = (resid * resid).sum() / lam ** 2
    return BoundReport(float(bound), float((dc * dc).sum()))


def prediction_error_bound_check(C0, C_learned, mu, nu, lam):
    """Check the log-plan gap of predictions against its cost lower bound.

    Both plans are computed at the shared marginals, and their log ratio
    log pi0 - log pi1 is read from the potentials, so it stays finite where a
    plan entry underflows to zero. The bound is lam^2 ||R||_F^2 with R the
    shift-fit residual of dC = C0 - C_learned; lam must be finite and
    positive.
    """
    checked("lam", lam, 0, strict=True)
    res0 = sinkhorn(C0, mu, nu, lam)
    res1 = sinkhorn(C_learned, mu, nu, lam)
    dC = as_array(C0) - as_array(C_learned)
    dlog = ((res0.log_left - res1.log_left)[:, None] - lam * dC
            + (res0.log_right - res1.log_right)[None, :])
    resid = _shift_fit(dC)[2]
    bound = lam ** 2 * (resid * resid).sum()
    return BoundReport(float(bound), float((dlog * dlog).sum()))


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
