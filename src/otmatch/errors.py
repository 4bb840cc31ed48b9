"""Exception types raised by the solvers and containers."""


class OtmatchError(Exception):
    """Base class for all library errors."""


class ValidationError(OtmatchError, ValueError):
    """An input violates a container invariant or an operation precondition."""


class SinkhornConvergenceError(OtmatchError, RuntimeError):
    """Sinkhorn scaling did not reach the requested marginal tolerance.

    Carries the last iterate so callers can inspect or accept it.
    """

    def __init__(self, message, plan=None, iterations=0, marginal_error=float("inf")):
        super().__init__(message)
        self.plan = plan
        self.iterations = iterations
        self.marginal_error = marginal_error


class RootFindingError(OtmatchError, RuntimeError):
    """A univariate root search exhausted its iteration budget.

    Carries the last bracket endpoints.
    """

    def __init__(self, message, lo=None, hi=None):
        super().__init__(message)
        self.bracket = (lo, hi)


class DivergenceError(OtmatchError, RuntimeError):
    """An iterative fit produced a non-finite objective.

    Carries the objective trace up to the failure.
    """

    def __init__(self, message, trace=()):
        super().__init__(message)
        self.trace = list(trace)


class ProjectionError(OtmatchError, RuntimeError):
    """Cyclic projection did not reach feasibility within the cycle budget."""

    def __init__(self, message, worst_violation=float("inf")):
        super().__init__(message)
        self.worst_violation = worst_violation
