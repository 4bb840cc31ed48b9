"""Output checks and quality measures, independent of the program's own code.

Each check reads a file the CLI wrote and raises :class:`CheckError` when it
is not a valid result, so a speed-up that breaks the output fails the run
instead of improving it.
"""

import numpy as np

# Mass-sum tolerance of the program's coupling containers.
SUM_TOL = 1e-9
# Marginal l1 tolerance of `predict` (the Sinkhorn default), plus room for
# the 17-digit CSV round trip.
MARGINAL_TOL = 1e-9 + 1e-12


class CheckError(Exception):
    """An output file or quality value failed its check."""


def read_csv(path):
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise CheckError(f"{path}: unreadable output: {exc}") from exc


def _require(condition, message):
    if not condition:
        raise CheckError(message)


def check_coupling(path, shape):
    """A finite nonnegative matrix of the given shape whose entries sum to one."""
    plan = read_csv(path)
    _require(plan.shape == shape, f"{path}: shape {plan.shape}, expected {shape}")
    _require(np.all(np.isfinite(plan)), f"{path}: non-finite entries")
    _require(np.all(plan >= 0), f"{path}: negative entries")
    total = plan.sum()
    _require(abs(total - 1.0) <= SUM_TOL, f"{path}: sums to {total!r}, not 1")
    return plan


def check_fit(A_path, plan_path, A_shape, plan_shape):
    """The learned interaction matrix is finite and the fitted plan a coupling."""
    A = read_csv(A_path)
    _require(A.shape == A_shape, f"{A_path}: shape {A.shape}, expected {A_shape}")
    _require(np.all(np.isfinite(A)), f"{A_path}: non-finite entries")
    return A, check_coupling(plan_path, plan_shape)


def check_predict(path, mu, nu):
    """The predicted plan is a coupling whose marginals match ``mu`` and ``nu``."""
    plan = check_coupling(path, (mu.size, nu.size))
    err = max(np.abs(plan.sum(axis=1) - mu).sum(), np.abs(plan.sum(axis=0) - nu).sum())
    _require(err <= MARGINAL_TOL, f"{path}: marginal l1 error {err:.3e} > {MARGINAL_TOL:.3e}")
    return plan


def check_finite(**values):
    for name, value in values.items():
        _require(np.isfinite(value), f"quality value {name} is {value!r}")


def kl(p, q):
    """KL(p || q) with 0 log 0 = 0; q must not vanish where p does not."""
    mask = p > 0
    _require(np.all(q[mask] > 0), "KL support violation: q = 0 where p > 0")
    return float((p[mask] * (np.log(p[mask]) - np.log(q[mask]))).sum())


def shift_distance(C1, C2):
    """Frobenius distance of C2 - C1 to the shift family a 1' + 1 b'.

    The least-squares shift of a matrix is its row and column means, so the
    distance is the norm of the doubly centred difference.
    """
    M = C2 - C1
    R = M - M.mean(axis=1, keepdims=True) - M.mean(axis=0, keepdims=True) + M.mean()
    return float(np.linalg.norm(R))
