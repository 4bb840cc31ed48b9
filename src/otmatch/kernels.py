"""Inner-product kernel representation of the matching cost.

The cost between user i and item j is C_ij = f(u_i' A v_j), where f is the
activation of a linear, polynomial, or sigmoid kernel and A is the
interaction matrix to be learned. Both the entrywise cost and its derivative
with respect to A are assembled from the Gram products U' A V.
"""

from dataclasses import dataclass

import numpy as np

from .containers import CostMatrix, as_array, is_finite_real
from .errors import ValidationError

# The parameters each kernel kind reads.
_PARAMETERS = {"linear": (), "polynomial": ("gamma", "c0", "degree"), "sigmoid": ("gamma", "c0")}
_KINDS = tuple(_PARAMETERS)

# Polynomial inputs past this magnitude produce costs that freeze the
# downstream exp(-lam C) kernel; fail loudly instead.
_POLY_INPUT_LIMIT = 1e6


@dataclass(frozen=True)
class KernelSpec:
    """Activation choice for the kernel cost.

    linear:     f(t) = t
    polynomial: f(t) = (gamma t + c0) ** degree
    sigmoid:    f(t) = tanh(gamma t + c0)
    """

    kind: str
    gamma: float = 1.0
    c0: float = 0.0
    degree: int = 2

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown kernel kind {self.kind!r}; expected one of {_KINDS}")
        if not (is_finite_real(self.gamma) and is_finite_real(self.c0)):
            raise ValidationError("kernel parameters must be finite numbers")
        if self.kind == "polynomial":
            degree = self.degree
            if not (is_finite_real(degree) and int(degree) == degree and degree >= 1):
                raise ValidationError(
                    f"polynomial degree must be a positive integer, got {degree!r}")
            object.__setattr__(self, "degree", int(degree))

    def activation(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "linear":
            return t
        if self.kind == "polynomial":
            inner = self.gamma * t + self.c0
            if np.any(np.abs(inner) > _POLY_INPUT_LIMIT):
                idx = np.unravel_index(int(np.argmax(np.abs(inner))), inner.shape)
                raise ValidationError(
                    f"polynomial kernel input overflow at entry {idx}: "
                    f"|gamma*t + c0| = {np.abs(inner).max():.3e} > {_POLY_INPUT_LIMIT:g}")
            return inner ** self.degree
        return np.tanh(self.gamma * t + self.c0)

    def derivative(self, t):
        """f'(t), the scalar chain-rule factor of the cost derivative."""
        t = np.asarray(t, dtype=float)
        if self.kind == "linear":
            return np.ones_like(t)
        if self.kind == "polynomial":
            inner = self.gamma * t + self.c0
            return self.degree * self.gamma * inner ** (self.degree - 1)
        return self.gamma / np.cosh(self.gamma * t + self.c0) ** 2

    @classmethod
    def from_dict(cls, d):
        """Spec from a config object; a key its kind does not read is an error."""
        if not isinstance(d, dict) or "kind" not in d:
            raise ValidationError(f"kernel spec must be an object with a 'kind', got {d!r}")
        kind = cls(d["kind"]).kind
        unused = sorted(set(d) - {"kind", *_PARAMETERS[kind]})
        if unused:
            raise ValidationError(f"{kind} kernel does not use {', '.join(map(repr, unused))}")
        return cls(**d)


def gram_products(U, V, A):
    """Inner products u_i' A v_j for all pairs, as an m-by-n matrix."""
    U = as_array(U)
    V = as_array(V)
    A = as_array(A)
    if A.shape != (U.shape[0], V.shape[0]):
        raise ValidationError(
            f"interaction shape {A.shape} does not match feature dims "
            f"({U.shape[0]}, {V.shape[0]})")
    return U.T @ A @ V


def kernel_cost(U, V, A, kernel):
    """Entrywise kernel cost C_ij = f(u_i' A v_j).

    Parameters
    ----------
    U, V : ProfileSet or array
        Feature matrices, p-by-m and q-by-n (one column per individual).
    A : InteractionMatrix or array, shape (p, q)
    kernel : KernelSpec

    Returns
    -------
    CostMatrix

    Raises
    ------
    ValidationError
        On dimension mismatch or a non-finite cost entry (the message names
        the offending entry).
    """
    t = gram_products(U, V, A)
    c = kernel.activation(t)
    if not np.all(np.isfinite(c)):
        i, j = np.argwhere(~np.isfinite(c))[0]
        raise ValidationError(f"kernel cost is non-finite at entry ({i}, {j})")
    return CostMatrix(c)


def assemble_interaction_grad(U, V, A, kernel, weights):
    """Sum of weights_ij * C'_ij(A) as a p-by-q gradient matrix.

    For entrywise weights g this is the adjoint of the directional
    derivative: sum_ij g_ij f'(u_i' A v_j) u_i v_j'.
    """
    U = as_array(U)
    V = as_array(V)
    t = gram_products(U, V, A)
    g = as_array(weights) * kernel.derivative(t)
    return U @ g @ V.T
