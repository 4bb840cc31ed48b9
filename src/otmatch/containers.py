"""Validated numerical containers shared by every solver.

All containers are immutable after construction: the wrapped arrays are
private copies with the writeable flag cleared, so instances can be shared
freely across threads. Construction validates the container's invariants and
raises :class:`~otmatch.errors.ValidationError` on violation.

Probability-carrying containers accept sums within ``SUM_TOL`` of one and
renormalize exactly (divide by the actual sum); sums further off are
rejected. This absorbs the precision lost by CSV round-trips without letting
genuinely unnormalized data through.
"""

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import ValidationError

# Absolute tolerance on mass sums before exact renormalization.
SUM_TOL = 1e-9


def _require(condition, message):
    if not condition:
        raise ValidationError(message)


def is_finite_real(value):
    """Whether ``value`` is a finite real number (a string or None is not)."""
    return isinstance(value, Real) and bool(np.isfinite(value))


def as_array(x):
    """The array a container wraps, or ``x`` itself as a float array."""
    for attr in ("entries", "values", "features"):
        if hasattr(x, attr):
            return getattr(x, attr)
    return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class ProbabilityVector:
    """Nonnegative vector of mass fractions summing to one."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        _require(arr.ndim == 1, f"probability vector must be 1-d, got shape {arr.shape}")
        _require(arr.size >= 1, "probability vector must be non-empty")
        _require(np.all(np.isfinite(arr)), "probability vector has non-finite entries")
        _require(np.all(arr >= 0), "probability vector has negative entries")
        total = arr.sum()
        _require(abs(total - 1.0) <= SUM_TOL,
                 f"probability vector sums to {total!r}, not 1 within {SUM_TOL}")
        arr /= total
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class MarginalPair:
    """Row and column marginals of a coupling."""

    mu: ProbabilityVector
    nu: ProbabilityVector


@dataclass(frozen=True)
class CouplingMatrix:
    """Nonnegative m-by-n matrix of joint mass fractions summing to one.

    Zero entries are allowed; operations that take logarithms state strict
    positivity as their own precondition.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float)
        _require(arr.ndim == 2, f"coupling must be 2-d, got shape {arr.shape}")
        _require(np.all(np.isfinite(arr)), "coupling has non-finite entries")
        _require(np.all(arr >= 0), "coupling has negative entries")
        total = arr.sum()
        _require(abs(total - 1.0) <= SUM_TOL,
                 f"coupling sums to {total!r}, not 1 within {SUM_TOL}")
        arr /= total
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def shape(self):
        return self.entries.shape

    def marginals(self):
        """Row-sum and column-sum marginals as a :class:`MarginalPair`."""
        return MarginalPair(ProbabilityVector(self.entries.sum(axis=1)),
                            ProbabilityVector(self.entries.sum(axis=0)))


@dataclass(frozen=True)
class CostMatrix:
    """Real m-by-n matrix of pairwise matching costs (any finite scale)."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float)
        _require(arr.ndim == 2, f"cost matrix must be 2-d, got shape {arr.shape}")
        _require(np.all(np.isfinite(arr)), "cost matrix has non-finite entries")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def shape(self):
        return self.entries.shape


@dataclass(frozen=True)
class MetricMatrix:
    """Symmetric hollow nonnegative matrix satisfying all triangle inequalities."""

    entries: np.ndarray
    tol: float = 1e-8

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float)
        tol = self.tol
        _require(arr.ndim == 2 and arr.shape[0] == arr.shape[1],
                 f"metric matrix must be square, got shape {arr.shape}")
        _require(np.all(np.isfinite(arr)), "metric matrix has non-finite entries")
        _require(np.all(arr >= -tol), "metric matrix has negative entries")
        _require(np.max(np.abs(np.diag(arr))) <= tol, "metric matrix diagonal is not zero")
        _require(np.max(np.abs(arr - arr.T)) <= tol, "metric matrix is not symmetric")
        # d_ij <= min_k (d_ik + d_kj): running minimum over the intermediate
        # index, so memory stays O(d^2).
        through = np.full_like(arr, np.inf)
        for k in range(arr.shape[0]):
            np.minimum(through, np.add.outer(arr[:, k], arr[k]), out=through)
        worst = np.max(arr - through)
        _require(worst <= tol,
                 f"metric matrix violates a triangle inequality by {worst:.3e}")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)


@dataclass(frozen=True)
class InteractionMatrix:
    """p-by-q parameter of the kernel cost C_ij = f(u_i' A v_j)."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float)
        _require(arr.ndim == 2, f"interaction matrix must be 2-d, got shape {arr.shape}")
        _require(np.all(np.isfinite(arr)), "interaction matrix has non-finite entries")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def shape(self):
        return self.entries.shape


@dataclass(frozen=True)
class ProfileSet:
    """Feature matrix with one column per individual (dim-by-count)."""

    features: np.ndarray

    def __post_init__(self):
        arr = np.array(self.features, dtype=float)
        _require(arr.ndim == 2, f"profile set must be 2-d, got shape {arr.shape}")
        _require(arr.shape[1] >= 1, "profile set must hold at least one individual")
        _require(np.all(np.isfinite(arr)), "profile set has non-finite entries")
        arr.flags.writeable = False
        object.__setattr__(self, "features", arr)

    @property
    def dim(self):
        return self.features.shape[0]

    @property
    def count(self):
        return self.features.shape[1]


@dataclass(frozen=True)
class MatchCounts:
    """Raw co-occurrence counts N_ij between the two sides of a matching."""

    counts: np.ndarray

    def __post_init__(self):
        arr = np.array(self.counts)
        _require(arr.ndim == 2, f"match counts must be 2-d, got shape {arr.shape}")
        _require(np.all(np.isfinite(arr.astype(float))), "match counts have non-finite entries")
        _require(np.all(arr == np.floor(arr)), "match counts must be integers")
        _require(np.all(arr >= 0), "match counts must be nonnegative")
        arr = arr.astype(np.int64)
        _require(arr.sum() >= 1, "empty matching data")
        arr.flags.writeable = False
        object.__setattr__(self, "counts", arr)

    @property
    def total(self):
        return int(self.counts.sum())


@dataclass(frozen=True)
class HyperParams:
    """Solver hyper-parameters shared by the fitting routines.

    ``lam`` is the main transport regularization, ``lam_u``/``lam_v`` the
    regularizations of the two marginal-relaxation terms, ``delta`` the
    relaxation weight, ``step_size`` the gradient step, ``outer_iters`` the
    outer loop budget, and the two ``sinkhorn_*`` fields the scaling solver's
    stopping rule.
    """

    lam: float = 1.0
    lam_u: float = 1.0
    lam_v: float = 1.0
    delta: float = 0.01
    step_size: float = 10.0
    outer_iters: int = 50
    sinkhorn_tol: float = 1e-9
    sinkhorn_max_iters: int = 10000

    def __post_init__(self):
        for name in ("lam", "lam_u", "lam_v", "step_size", "sinkhorn_tol"):
            _require(is_finite_real(getattr(self, name)) and getattr(self, name) > 0,
                     f"{name} must be positive and finite")
        _require(is_finite_real(self.delta) and self.delta >= 0,
                 "delta must be nonnegative and finite")
        for name, least in (("outer_iters", 0), ("sinkhorn_max_iters", 1)):
            value = getattr(self, name)
            _require(is_finite_real(value) and int(value) == value and value >= least,
                     f"{name} must be an integer >= {least}")


def normalize_counts(counts):
    """Turn raw match counts into the observed matching matrix N_ij / N.

    Parameters
    ----------
    counts : MatchCounts
        Raw co-occurrence counts with positive total.

    Returns
    -------
    CouplingMatrix
        Counts divided by their total, renormalized to sum exactly to one.
    """
    if not isinstance(counts, MatchCounts):
        counts = MatchCounts(counts)
    return CouplingMatrix(counts.counts / counts.total)


def marginals(pi):
    """Row and column marginals of a coupling as a :class:`MarginalPair`."""
    if not isinstance(pi, CouplingMatrix):
        pi = CouplingMatrix(pi)
    return pi.marginals()
