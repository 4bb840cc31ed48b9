"""Learning matching costs from empirical matchings by inverse optimal transport.

The library models an observed matching between two populations as an
entropy-regularized transport plan of an unknown pairwise cost, represents
that cost through an inner-product kernel of user/item features, and
recovers the kernel's interaction matrix from data. Two estimators are
provided: a fixed-marginal likelihood fit and a marginal-relaxed fit that
stays robust when the observed matching is noisy. Supporting modules supply
the forward transport solver, identifiability bounds, the synthetic
experiment protocol, and a CSV/JSON command-line interface.
"""

from .bounds import (BoundReport, align_shift, best_shift, cost_error_bound_check,
                     cost_shift_distance, coupling_gap_lower_bound, eval_matching,
                     iot_error_lower_bound, kl_divergence,
                     prediction_error_bound_check, symmetric_cost_recovery)
from .containers import (CostMatrix, CouplingMatrix, HyperParams, InteractionMatrix,
                         MarginalPair, MatchCounts, MetricMatrix, ProbabilityVector,
                         ProfileSet, marginals, normalize_counts)
from .errors import (DivergenceError, OtmatchError, ProjectionError,
                     RootFindingError, SinkhornConvergenceError, ValidationError)
from .iot import IotFitResult, iot_fit
from .joint import JointFitResult, joint_fit, project_metric_simplex
from .kernels import KernelSpec, kernel_cost
from .riot import RiotFitResult, predict_matching, riot_fit
from .sinkhorn import SinkhornResult, rot_distance, sinkhorn
from .synth import (CostRecoveryResult, SweepRecord, SweepResult, SynthConfig,
                    SynthInstance, add_noise, cost_recovery_experiment,
                    generate_instance, ground_truth_cost, plan_comparison_experiment,
                    robustness_sweep)

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "CostMatrix", "CostRecoveryResult", "CouplingMatrix",
    "DivergenceError", "HyperParams", "InteractionMatrix", "IotFitResult",
    "JointFitResult", "KernelSpec", "MarginalPair", "MatchCounts", "MetricMatrix",
    "OtmatchError", "ProbabilityVector", "ProfileSet",
    "ProjectionError", "RiotFitResult", "RootFindingError",
    "SinkhornConvergenceError", "SinkhornResult", "SweepRecord", "SweepResult",
    "SynthConfig", "SynthInstance", "ValidationError", "add_noise", "align_shift",
    "best_shift", "cost_error_bound_check", "cost_recovery_experiment",
    "cost_shift_distance", "coupling_gap_lower_bound", "eval_matching",
    "generate_instance", "ground_truth_cost", "iot_error_lower_bound", "iot_fit",
    "joint_fit", "kernel_cost", "kl_divergence", "marginals", "normalize_counts",
    "plan_comparison_experiment", "predict_matching", "prediction_error_bound_check",
    "project_metric_simplex", "riot_fit", "robustness_sweep", "rot_distance",
    "sinkhorn", "symmetric_cost_recovery",
]
