"""Joint learning of the side costs by projected gradient.

When the user-user and item-item costs of the relaxation terms are unknown,
they can be learned together with the interaction matrix. To keep the
problem well posed each side cost is constrained to the cone of distance
matrices intersected with the simplex (symmetric, hollow, nonnegative,
triangle inequalities, entries summing to one). The projection onto that
intersection runs Dykstra-style cyclic corrections over the triangle
half-spaces, held as one index table, and the simplex. A side needs at least
three individuals to have a triangle, so the fit rejects smaller sides.
"""

from dataclasses import dataclass

import numpy as np

from .containers import CostMatrix, CouplingMatrix, InteractionMatrix, MetricMatrix, as_array
from .errors import ProjectionError, ValidationError
from .riot import _alternating_fit
# perfbench/tracing.py binds otmatch.joint.sinkhorn as its side-gradient span;
# the side-cost gradient reuses the relaxation plans, so the span reads 0 calls.
from .sinkhorn import sinkhorn  # noqa: F401

_MAX_CYCLES = 5000
_FEAS_TOL = 1e-9
_MOVE_TOL = 1e-12


def _triangle_table(d):
    """Edge indices (e0, e1, e2) = (ij, ik, kj) into the upper-tri vector of the
    triangle constraints x[e0] - x[e1] - x[e2] <= 0, in the Dykstra sweep order:
    pairs i < j row-major, then k != i, j ascending."""
    i, j = np.triu_indices(d, k=1)
    edge = np.zeros((d, d), dtype=np.intp)
    edge[i, j] = np.arange(i.size)
    edge += edge.T
    k = np.arange(d)
    keep = (k != i[:, None]) & (k != j[:, None])
    return (np.repeat(np.arange(i.size), d - 2), edge[i[:, None], k][keep],
            edge[k, j[:, None]][keep])


def _project_simplex(v, total):
    """Euclidean projection onto {x >= 0, sum x = total} (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - total
    ar = np.arange(1, v.size + 1)
    rho = np.nonzero(u * ar > css)[0][-1]
    tau = css[rho] / (rho + 1.0)
    return np.maximum(v - tau, 0.0)


def project_metric_simplex(matrix):
    """Project onto distance matrices with entries summing to one.

    The input is symmetrized and its diagonal zeroed, then cyclic Dykstra
    corrections alternate between every triangle half-space
    d_ij - d_ik - d_kj <= 0 and the simplex on the off-diagonal entries.
    Working on the upper-triangle vector keeps the Euclidean geometry of the
    symmetric matrix space (the constant factor two does not change any
    projection). The cycles stop once the worst violation is at most 1e-9
    and no entry moved by more than 1e-12 in the last cycle.

    Parameters
    ----------
    matrix : array, shape (d, d), d >= 3

    Returns
    -------
    MetricMatrix
        Nearest point of the intersection in Frobenius distance; residual
        constraint violations are below 1e-7.

    Raises
    ------
    ProjectionError
        When the cycles have not stopped after 5000 of them; carries the
        worst remaining violation.
    """
    M = as_array(matrix)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError(f"projection input must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValidationError("projection input has non-finite entries")
    d = M.shape[0]
    if d < 3:
        raise ValidationError("projection needs dimension >= 3")
    sym = 0.5 * (M + M.T)
    np.fill_diagonal(sym, 0.0)
    iu = np.triu_indices(d, k=1)
    x = sym[iu].tolist()

    e0, e1, e2 = _triangle_table(d)
    triples = list(zip(e0.tolist(), e1.tolist(), e2.tolist()))
    alpha = [0.0] * len(triples)
    simplex_corr = np.zeros(len(x))

    worst = np.inf
    for _ in range(_MAX_CYCLES):
        x_prev = list(x)
        for s, (p, q, r) in enumerate(triples):
            a = alpha[s]
            v = x[p] - x[q] - x[r] + 3.0 * a
            t = v / 3.0 if v > 0.0 else 0.0
            shift = a - t
            if shift != 0.0:
                x[p] += shift
                x[q] -= shift
                x[r] -= shift
            alpha[s] = t

        w = np.asarray(x) + simplex_corr
        xv = _project_simplex(w, 0.5)
        simplex_corr = w - xv
        x = xv.tolist()
        tri_viol = (xv[e0] - xv[e1] - xv[e2]).max(initial=0.0)
        worst = max(tri_viol, abs(xv.sum() - 0.5) * 2.0, -xv.min())
        move = float(np.max(np.abs(xv - np.asarray(x_prev))))
        if worst <= _FEAS_TOL and move <= _MOVE_TOL:
            break
    else:
        raise ProjectionError(
            f"projection not feasible after {_MAX_CYCLES} cycles "
            f"(worst violation {worst:.3e})", worst_violation=float(worst))

    out = np.zeros((d, d))
    out[iu] = x
    out = out + out.T
    return MetricMatrix(out, tol=1e-7)


@dataclass(frozen=True)
class JointFitResult:
    """Best iterate of the joint fit over (A, C_u, C_v)."""

    A: InteractionMatrix
    C_u: MetricMatrix
    C_v: MetricMatrix
    fitted_plan: CouplingMatrix
    objective_trace: np.ndarray


def joint_fit(pi_hat, U, V, kernel, params, C_u_init=None, C_v_init=None,
              side_step=None):
    """Alternate the interaction, side-cost, and potential blocks.

    The side costs start from ``C_u_init`` / ``C_v_init`` projected into the
    feasible set (uniform off-diagonal matrices when omitted), and every
    projected-gradient step keeps them feasible. A ``side_step`` of zero
    freezes the side costs, reducing the trajectory to the fixed-side-cost
    solver run on the projected initial matrices. Each side needs at least
    three individuals.
    """
    m, n = as_array(pi_hat).shape
    if min(m, n) < 3:
        raise ValidationError(f"joint fit needs at least 3 individuals per side, got {(m, n)}")
    if side_step is None:
        side_step = 0.1 * params.step_size
    if side_step < 0:
        raise ValidationError("side_step must be nonnegative")

    C_u0 = _initial_side_cost(C_u_init, m)
    C_v0 = _initial_side_cost(C_v_init, n)

    def side_block(c_u, c_v, plan_u, plan_v):
        # By the envelope theorem a relaxation term's gradient in its cost is
        # delta times its plan.
        g_u = params.delta * plan_u
        g_v = params.delta * plan_v
        c_u = project_metric_simplex(c_u - side_step * g_u).entries
        c_v = project_metric_simplex(c_v - side_step * g_v).entries
        return c_u, c_v

    best_state, trace, C_u_best, C_v_best = _alternating_fit(
        pi_hat, U, V, kernel, CostMatrix(C_u0), CostMatrix(C_v0), params,
        side_block=side_block if side_step > 0 else None)

    final_u = MetricMatrix(C_u_best, tol=1e-7)
    final_v = MetricMatrix(C_v_best, tol=1e-7)
    _check_unit_sum(final_u.entries, "C_u")
    _check_unit_sum(final_v.entries, "C_v")
    return JointFitResult(
        A=InteractionMatrix(best_state.A),
        C_u=final_u,
        C_v=final_v,
        fitted_plan=best_state.current_plan,
        objective_trace=np.asarray(trace),
    )


def _initial_side_cost(init, d):
    if init is None:
        out = np.full((d, d), 1.0 / (d * (d - 1)))
        np.fill_diagonal(out, 0.0)
        return out
    return project_metric_simplex(as_array(init)).entries


def _check_unit_sum(entries, name):
    total = entries.sum()
    if abs(total - 1.0) > 1e-7:
        raise ValidationError(f"{name} drifted off the simplex: sum = {total!r}")
