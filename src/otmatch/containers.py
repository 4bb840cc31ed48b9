"""Validated numerical containers shared by every solver.

Only a matrix with an invariant beyond "finite and 2-d" gets a container: a
coupling (unit mass). Costs, side costs, feature sets and interaction
matrices travel as plain arrays; the CSV reader rejects non-finite input
where it enters.

Containers are immutable after construction: the wrapped array is a private
copy with the writeable flag cleared, so instances can be shared freely
across threads. Construction validates the container's invariants and raises
:class:`~otmatch.errors.ValidationError` on violation.

:func:`checked` is the one check of every number a caller or config passes in.

:class:`CouplingMatrix` accepts a total within ``SUM_TOL`` of one and
renormalizes exactly (divides by the actual sum); totals further off are
rejected. This absorbs the precision lost by CSV round-trips without letting
genuinely unnormalized data through.
"""

import sys
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import ValidationError

# Absolute tolerance on mass sums before exact renormalization.
SUM_TOL = 1e-9


def _require(condition, message):
    if not condition:
        raise ValidationError(message)


def checked(name, value, low=-np.inf, *, integer=False, strict=False):
    """``value`` as a float (an int when ``integer``) once it is a finite real
    number, not a bool, at or above ``low`` (above it when ``strict``) and
    whole when ``integer``; else a ValidationError that names ``name``."""
    if (isinstance(value, Real) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
            and (value > low if strict else value >= low) and (not integer or value % 1 == 0)):
        return int(value) if integer else float(value)
    bound = "" if low == -np.inf else f" {'>' if strict else '>='} {low:g}"
    kind = "an integer" if integer else "a finite number"
    raise ValidationError(f"{name} must be {kind}{bound}, got {value!r}")


def as_array(x):
    """The array a container wraps, or ``x`` itself as a float array."""
    if hasattr(x, "entries"):
        return x.entries
    return np.asarray(x, dtype=float)


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
        # Reductions, not m-by-n masks; NaN propagates through both.
        lo, hi = arr.min(initial=0.0), arr.max(initial=0.0)
        _require(np.isfinite(lo) and np.isfinite(hi), "coupling has non-finite entries")
        _require(lo >= 0, "coupling has negative entries")
        total = arr.sum()
        _require(abs(total - 1.0) <= SUM_TOL,
                 f"coupling sums to {float(total)!r}, not 1 within {SUM_TOL}")
        arr /= total
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def shape(self):
        return self.entries.shape


@dataclass(frozen=True)
class HyperParams:
    """Solver hyper-parameters shared by the fitting routines.

    ``lam`` is the main transport regularization, ``lam_u``/``lam_v`` the
    regularizations of the two marginal-relaxation terms, ``delta`` the
    relaxation weight, ``step_size`` the steepest-descent step (which also
    seeds the first step of a quasi-Newton fit), ``outer_iters`` a cap on the
    outer steps (a fit may stop earlier on its gradient tolerance), and the
    two ``sinkhorn_*`` fields the scaling solver's stopping rule.
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
            object.__setattr__(self, name, checked(name, getattr(self, name), 0, strict=True))
        object.__setattr__(self, "delta", checked("delta", self.delta, 0))
        for name, low in (("outer_iters", 0), ("sinkhorn_max_iters", 1)):
            object.__setattr__(self, name, checked(name, getattr(self, name), low, integer=True))


def normalize_counts(counts):
    """Turn raw match counts N_ij into the observed matching N_ij / N.

    Raises
    ------
    ValidationError
        Unless the counts are a 2-d array of finite nonnegative integers with
        a positive total; a negative entry is named by its 1-based row and
        column.
    """
    arr = np.array(counts)
    _require(arr.ndim == 2, f"match counts must be 2-d, got shape {arr.shape}")
    _require(np.all(np.isfinite(arr.astype(float))), "match counts have non-finite entries")
    _require(np.all(arr == np.floor(arr)), "match counts must be integers")
    bad = np.argwhere(arr < 0)
    if bad.size:
        i, j = bad[0]
        raise ValidationError(f"match counts: negative entry at row {i + 1}, column {j + 1}")
    arr = arr.astype(np.int64)
    total = arr.sum()
    _require(total >= 1, "empty matching data")
    return CouplingMatrix(arr / total)
