"""Joint learning of the side costs by projected gradient.

When the user-user and item-item costs of the relaxation terms are unknown,
they can be learned together with the interaction matrix. To keep the
problem well posed each side cost is constrained to the cone of distance
matrices intersected with the simplex (symmetric, hollow, nonnegative,
triangle inequalities, entries summing to one). The triangle inequalities
already imply nonnegativity, so the projection onto that intersection runs
Dykstra cycles over the triangle half-spaces, held as one index table, and
one hyperplane step for the unit sum, which as an affine set needs no
correction. Most triangles never carry a correction, so each cycle sweeps
only a working set: the triangles with a positive correction and those
violated when the cycle starts ("project and forget", Sonthalia & Gilbert
2020). Dykstra's method is coordinate ascent on the dual of the projection,
so it reaches the same projection from any nonnegative start of its
corrections and in any sweep order. Far from the set a cycle sweeps the
violated triangles last, most violated first (the greedy Gauss-Southwell
choice of coordinates, Nutini et al. 2015), which cuts the cycles of a cold
projection from a far-off start severalfold. Near the solution many
triangles are tight and the dual is degenerate, so the corrections' limit
depends on the order; a reordering in every cycle keeps moving them, so the
sweeps switch to table order once and stay there. The fit's step
projections, each of a point near the last one, start from the corrections
the last step left. A side needs at least three individuals to have a
triangle, so the fit rejects smaller sides.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .containers import METRIC_TOL, CouplingMatrix, MetricMatrix, as_array, checked
from .errors import ProjectionError, ValidationError
from .iot import _fit_inputs
from .riot import _alternating_fit
# perfbench/tracing.py binds otmatch.joint.sinkhorn as its side-gradient span;
# the side-cost gradient reuses the relaxation plans, so the span reads 0 calls.
from .transport import sinkhorn  # noqa: F401

_MAX_CYCLES = 5000
# Stop-test tolerances and the cap of their rise with the input's scale. The
# cap is half the MetricMatrix gate, which also reads 0 = d_ii <= 2 d_ij: an
# entry of -e fails it by 2e, and two triangle violations of v bound e by v.
# A cap of 1e-7 turns ProjectionError (a solver failure) on 1e9 x a d = 5
# distance matrix into a gate failure, ValidationError (an input error).
_FEAS_TOL = 1e-9
_DRIFT_TOL = 1e-12
_TOL_CAP = METRIC_TOL / 2


@lru_cache(maxsize=8)
def _triangle_table(d):
    """Edge indices (e0, e1, e2) = (ij, ik, kj) into the upper-tri vector of the
    triangle constraints x[e0] - x[e1] - x[e2] <= 0, in the Dykstra sweep order:
    pairs i < j row-major, then k != i, j ascending; plus the same rows as a
    tuple of Python triples for the sequential sweep. Built once per d and
    shared, so the arrays are read-only."""
    i, j = np.triu_indices(d, k=1)
    edge = np.zeros((d, d), dtype=np.intp)
    edge[i, j] = np.arange(i.size)
    edge += edge.T
    k = np.arange(d)
    keep = (k != i[:, None]) & (k != j[:, None])
    table = (np.repeat(np.arange(i.size), d - 2), edge[i[:, None], k][keep],
             edge[k, j[:, None]][keep])
    for e in table:
        e.flags.writeable = False
    return table + (tuple(zip(*(e.tolist() for e in table))),)


def project_metric_simplex(matrix, duals=None):
    """Project onto distance matrices with entries summing to one.

    The input is symmetrized, then Dykstra cycles run over its upper-triangle
    vector (the factor two of the symmetric matrix space changes no
    projection): corrected steps onto triangle half-spaces
    d_ij - d_ik - d_kj <= 0, then a step onto the hyperplane of entries
    summing to one. For d >= 3 the triangle inequalities force every entry
    to be nonnegative, so the hyperplane is all that is left of the simplex,
    and being affine it needs no correction. The cycles start on the input's
    projection onto the hyperplane, which has the same projection onto the
    feasible set. A cycle sweeps only the working set: the triangles whose
    correction is positive and those violated at the start of the cycle. A
    skipped triangle has a zero correction and is satisfied, so its step
    would not move the iterate; one that a sweep pushes into violation is
    caught by the next cycle's check. While a cycle starts with the worst
    violation above a tenth of the mean entry of a unit-sum hollow matrix,
    1 / (10 d (d - 1)), it sweeps the satisfied triangles that carry a
    correction first, in table order, then the violated ones by decreasing
    violation; from the first cycle that starts at or below that level it
    sweeps the working set in table order to the end, because near a
    degenerate solution a changing order keeps the corrections moving. The
    violations of the whole table are computed once per cycle, and the
    cycles stop once the worst is at most 1e-9 and no correction changed by
    more than 1e-12 in the last cycle; the iterate can stand still while
    the corrections still drift. On a large start x0 both tolerances rise to
    4 eps max|x0|, which rounding alone can reach, but not above 5e-8. Every
    positive correction is swept in that last cycle, so at exit those
    triangles are tight, the rest carry no correction, and the whole table
    is feasible: the KKT conditions of the projection hold.

    Parameters
    ----------
    matrix : array, shape (d, d), d >= 3
    duals : float64 array, shape (d (d - 1) (d - 2) / 2,), optional
        Nonnegative start α of the corrections, one per triangle table row;
        the cycles then start on the hyperplane projection of the
        symmetrized input minus Aᵀα. Any start reaches the same projection,
        but only the corrections that a nearby input's projection left save
        cycles: a distant input's can cost more than a cold start, up to the
        whole budget. Holds the final corrections on return; unchanged when
        the projection raises.

    Returns
    -------
    MetricMatrix
        Nearest point of the intersection in Frobenius distance; residual
        constraint violations are below 1e-7.

    Raises
    ------
    ValidationError
        When the input is not square, has fewer than three rows, has a
        non-finite entry, or is so large that its symmetrized projection
        onto the hyperplane overflows; or when ``duals`` is not a writable
        float64 array of that shape, or has a negative or non-finite entry.
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
    size = d * (d - 1) // 2
    alpha = np.zeros(size * (d - 2))
    if duals is not None:
        if not (isinstance(duals, np.ndarray) and duals.dtype == float
                and duals.shape == alpha.shape and duals.flags.writeable):
            raise ValidationError(f"duals must be a writable float array of shape {alpha.shape}")
        if not np.all(np.isfinite(duals) & (duals >= 0.0)):
            raise ValidationError("duals must be finite and nonnegative")
        alpha[:] = duals
    iu = np.triu_indices(d, k=1)
    with np.errstate(over="ignore", invalid="ignore"):
        xv = 0.5 * (M + M.T)[iu]
        if alpha.any():
            e0, e1, e2, _ = _triangle_table(d)
            xv -= (np.bincount(e0, alpha, size) - np.bincount(e1, alpha, size)
                   - np.bincount(e2, alpha, size))
        xv -= (xv.sum() - 0.5) / xv.size
    if not np.all(np.isfinite(xv)):
        raise ValidationError("projection input is too large: its symmetrized "
                              "hyperplane projection overflows")
    x = xv.tolist()
    rounding = 4.0 * np.finfo(float).eps * np.abs(xv).max()
    feas_tol, drift_tol = np.clip(rounding, [_FEAS_TOL, _DRIFT_TOL], _TOL_CAP)

    e0, e1, e2, triples = _triangle_table(d)
    viol = xv[e0] - xv[e1] - xv[e2]

    worst = viol.max(initial=0.0)
    far = True
    for _ in range(_MAX_CYCLES):
        # a tenth of the mean entry of a unit-sum hollow matrix
        far = far and worst > 0.1 / (d * (d - 1))
        if far:
            hot = np.flatnonzero(viol > 0.0)
            work = np.concatenate((np.flatnonzero((alpha > 0.0) & (viol <= 0.0)),
                                   hot[np.argsort(-viol[hot], kind="stable")]))
        else:
            work = np.flatnonzero((alpha > 0.0) | (viol > 0.0))
        prev = alpha[work]
        corr = prev.tolist()
        for n, s in enumerate(work.tolist()):
            p, q, r = triples[s]
            a = corr[n]
            v = x[p] - x[q] - x[r] + 3.0 * a
            t = v / 3.0 if v > 0.0 else 0.0
            shift = a - t
            if shift != 0.0:
                x[p] += shift
                x[q] -= shift
                x[r] -= shift
            corr[n] = t
        alpha[work] = corr

        xv = np.asarray(x)
        xv -= (xv.sum() - 0.5) / xv.size
        x = xv.tolist()
        viol = xv[e0] - xv[e1] - xv[e2]
        worst = viol.max(initial=0.0)
        drift = np.abs(alpha[work] - prev).max(initial=0.0)
        if worst <= feas_tol and drift <= drift_tol:
            break
    else:
        raise ProjectionError(
            f"projection not feasible after {_MAX_CYCLES} cycles "
            f"(worst violation {worst:.3e})", worst_violation=float(worst))

    if duals is not None:
        duals[...] = alpha
    out = np.zeros((d, d))
    out[iu] = x
    out = out + out.T
    return MetricMatrix(out)


@dataclass(frozen=True)
class JointFitResult:
    """Best iterate of the joint fit over (A, C_u, C_v)."""

    A: np.ndarray
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
    solver run on the projected initial matrices. The data are checked as
    :func:`~otmatch.riot.riot_fit` checks them, and each side needs at least
    three individuals; both before any solve. Each step's projection starts
    from the Dykstra corrections of the last step on its side. The first step
    starts cold: the corrections of the far-off start's projection cost it
    more cycles.
    """
    inputs = _fit_inputs(pi_hat, U, V)
    m, n = inputs[0].shape
    if min(m, n) < 3:
        raise ValidationError(f"joint fit needs at least 3 individuals per side, got {(m, n)}")
    if side_step is None:
        side_step = 0.1 * params.step_size
    side_step = checked("side_step", side_step, 0)

    C_u0 = _initial_side_cost(C_u_init, m)
    C_v0 = _initial_side_cost(C_v_init, n)

    duals_u = np.zeros(m * (m - 1) * (m - 2) // 2)
    duals_v = np.zeros(n * (n - 1) * (n - 2) // 2)

    def side_block(c_u, c_v, plan_u, plan_v):
        # By the envelope theorem a relaxation term's gradient in its cost is
        # delta times its plan.
        g_u = params.delta * plan_u
        g_v = params.delta * plan_v
        c_u = project_metric_simplex(c_u - side_step * g_u, duals_u).entries
        c_v = project_metric_simplex(c_v - side_step * g_v, duals_v).entries
        return c_u, c_v

    (_, A, (_, pi, _, (c_u, c_v, _, _))), trace = _alternating_fit(
        inputs, U, V, kernel, C_u0, C_v0, params,
        side_block=side_block if side_step > 0 else None)

    return JointFitResult(
        A=A,
        C_u=MetricMatrix(c_u),
        C_v=MetricMatrix(c_v),
        fitted_plan=CouplingMatrix(pi),
        objective_trace=np.asarray(trace),
    )


def _initial_side_cost(init, d):
    if init is None:
        out = np.full((d, d), 1.0 / (d * (d - 1)))
        np.fill_diagonal(out, 0.0)
        return out
    return project_metric_simplex(as_array(init)).entries
