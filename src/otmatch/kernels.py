"""Inner-product kernel representation of the matching cost.

The cost between user i and item j is C_ij = f(u_i' A v_j), where f is the
activation of a linear, polynomial, or sigmoid kernel and A is the
interaction matrix to be learned. Both the entrywise cost and its derivative
with respect to A are assembled from the Gram products U' A V, and each
applies its activation in place on that product, so an m-by-n evaluation
allocates one m-by-n array.
"""

from dataclasses import dataclass

import numpy as np

from .containers import as_array, checked
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
        object.__setattr__(self, "gamma", checked("kernel gamma", self.gamma))
        object.__setattr__(self, "c0", checked("kernel c0", self.c0))
        if self.kind == "polynomial":
            object.__setattr__(self, "degree",
                               checked("polynomial degree", self.degree, 1, integer=True))

    def _affine(self, t):
        """gamma t + c0, in place on ``t``."""
        t *= self.gamma
        t += self.c0
        return t

    def activation(self, t):
        """f(t), in place on the float array ``t``, which it returns."""
        if self.kind == "linear":
            return t
        inner = self._affine(t)
        if self.kind == "polynomial":
            # NaN passes here and fails the caller's finiteness check.
            if max(inner.max(initial=0.0), -inner.min(initial=0.0)) > _POLY_INPUT_LIMIT:
                idx = np.unravel_index(int(np.argmax(np.abs(inner))), inner.shape)
                raise ValidationError(
                    f"polynomial kernel input overflow at entry {idx}: "
                    f"|gamma*t + c0| = {np.abs(inner).max():.3e} > {_POLY_INPUT_LIMIT:g}")
            inner **= self.degree
            return inner
        return np.tanh(inner, out=inner)

    def derivative(self, t):
        """f'(t), the scalar chain-rule factor of the cost derivative, in
        place on the float array ``t``, which it returns."""
        if self.kind == "linear":
            t.fill(1.0)
            return t
        inner = self._affine(t)
        if self.kind == "polynomial":
            inner **= self.degree - 1
            inner *= self.degree * self.gamma
            return inner
        np.cosh(inner, out=inner)
        np.square(inner, out=inner)
        return np.divide(self.gamma, inner, out=inner)

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


DEFAULT_KERNEL = KernelSpec("polynomial", gamma=0.05, c0=1.0, degree=2)


def gram_products(U, V, A):
    """Inner products u_i' A v_j for all pairs, as an m-by-n matrix."""
    U = as_array(U)
    V = as_array(V)
    A = as_array(A)
    if U.ndim != 2 or V.ndim != 2 or A.ndim != 2:
        raise ValidationError(f"features and interaction must be 2-d, got shapes {U.shape}, "
                              f"{V.shape} and {A.shape}")
    if A.shape != (U.shape[0], V.shape[0]):
        raise ValidationError(
            f"interaction shape {A.shape} does not match feature dims "
            f"({U.shape[0]}, {V.shape[0]})")
    return U.T @ A @ V


def kernel_cost(U, V, A, kernel):
    """Entrywise kernel cost C_ij = f(u_i' A v_j).

    Parameters
    ----------
    U, V : array
        Feature matrices, p-by-m and q-by-n (one column per individual).
    A : array, shape (p, q)
    kernel : KernelSpec

    Returns
    -------
    array, shape (m, n)

    Raises
    ------
    ValidationError
        On an input that is not 2-d, a dimension mismatch, or a non-finite
        cost entry (the message names the offending entry).
    """
    c = kernel.activation(gram_products(U, V, A))
    if not np.isfinite((c.max(initial=0.0), c.min(initial=0.0))).all():
        i, j = np.argwhere(~np.isfinite(c))[0]
        raise ValidationError(f"kernel cost is non-finite at entry ({i}, {j})")
    return c


def assemble_interaction_grad(U, V, A, kernel, weights):
    """Sum of weights_ij * C'_ij(A) as a p-by-q gradient matrix.

    For entrywise weights g this is the adjoint of the directional
    derivative: sum_ij g_ij f'(u_i' A v_j) u_i v_j'.
    """
    U = as_array(U)
    V = as_array(V)
    g = kernel.derivative(gram_products(U, V, A))
    g *= as_array(weights)
    return U @ g @ V.T
