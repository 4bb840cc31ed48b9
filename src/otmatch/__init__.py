"""Learning matching costs from empirical matchings by inverse optimal transport.

The library models an observed matching between two populations as an
entropy-regularized transport plan of an unknown pairwise cost, represents
that cost through an inner-product kernel of user/item features, and
recovers the kernel's interaction matrix from data. Three estimators are
provided: a fixed-marginal likelihood fit (IOT), a marginal-relaxed fit
(RIOT) that stays robust when the observed matching is noisy, and a joint
RIOT fit that also learns the two side costs. Supporting modules supply the
forward transport solver, shift-invariant cost comparison with two
identifiability bound checks, the synthetic experiment protocol, and a
CSV/JSON command-line interface. Costs, side costs, feature sets and
interaction matrices are plain arrays; couplings are validated containers.
"""

from .bounds import (BoundReport, align_shift, cost_error_bound_check, cost_shift_distance,
                     eval_matching, kl_divergence, prediction_error_bound_check)
from .containers import CouplingMatrix, HyperParams, normalize_counts
from .errors import (DivergenceError, OtmatchError, ProjectionError,
                     RootFindingError, SinkhornConvergenceError, ValidationError)
from .iot import IotFitResult, iot_fit
from .joint import joint_fit, project_metric_simplex
from .kernels import KernelSpec, kernel_cost
from .riot import RiotFitResult, predict_matching, riot_fit
from .synth import (CostRecoveryResult, SweepRecord, SweepResult, SynthConfig, SynthInstance,
                    add_noise, cost_recovery_experiment, generate_instance, robustness_sweep)
from .transport import SinkhornResult, sinkhorn

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "CostRecoveryResult", "CouplingMatrix", "DivergenceError", "HyperParams",
    "IotFitResult", "KernelSpec", "OtmatchError", "ProjectionError", "RiotFitResult",
    "RootFindingError", "SinkhornConvergenceError", "SinkhornResult", "SweepRecord",
    "SweepResult", "SynthConfig", "SynthInstance", "ValidationError",
    "add_noise", "align_shift", "cost_error_bound_check", "cost_recovery_experiment",
    "cost_shift_distance", "eval_matching", "generate_instance", "iot_fit", "joint_fit",
    "kernel_cost", "kl_divergence", "normalize_counts", "predict_matching",
    "prediction_error_bound_check", "project_metric_simplex", "riot_fit",
    "robustness_sweep", "sinkhorn",
]
