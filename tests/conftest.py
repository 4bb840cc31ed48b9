import tracemalloc

import numpy as np
import pytest
from hypothesis import settings
from scipy.spatial.distance import cdist
from scipy.special import logsumexp

from otmatch.containers import CouplingMatrix, HyperParams, as_array
from otmatch.joint import _DRIFT_TOL, _FEAS_TOL, _MAX_CYCLES, _triangle_table
from otmatch.kernels import KernelSpec, gram_products, kernel_cost
from otmatch.transport import _logsumexp, sinkhorn

# Property tests run without a wall-clock deadline (a solve may take a while)
# and without an example database, so a run leaves no files behind.
settings.register_profile("otmatch", deadline=None, database=None)
settings.load_profile("otmatch")


def random_marginal(rng, d, conc=5.0):
    return rng.dirichlet(np.full(d, conc))


def random_coupling(rng, m, n):
    flat = rng.dirichlet(np.ones(m * n))
    return flat.reshape(m, n)


def euclidean_cost(rng, d, scale=np.sqrt(5.0)):
    pts = scale * rng.normal(0.0, 1.0, (d, 2))
    return cdist(pts, pts)


def full_sweep_projection(matrix):
    """Reference metric-simplex projection: every Dykstra cycle sweeps the whole
    triangle table, then takes the uncorrected hyperplane step, with the same
    start and stop test as ``project_metric_simplex``. Returns the matrix."""
    M = np.asarray(matrix, dtype=float)
    d = M.shape[0]
    iu = np.triu_indices(d, k=1)
    xv = 0.5 * (M + M.T)[iu]
    xv -= (xv.sum() - 0.5) / xv.size
    x = xv.tolist()
    e0, e1, e2, triples = _triangle_table(d)
    alpha = [0.0] * len(triples)
    for _ in range(_MAX_CYCLES):
        alpha_prev = np.array(alpha)
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
        xv = np.asarray(x)
        xv -= (xv.sum() - 0.5) / xv.size
        x = xv.tolist()
        worst = (xv[e0] - xv[e1] - xv[e2]).max(initial=0.0)
        drift = np.abs(np.asarray(alpha) - alpha_prev).max()
        if worst <= _FEAS_TOL and drift <= _DRIFT_TOL:
            break
    else:
        raise AssertionError(f"reference sweep ran out of cycles (worst {worst:.3e})")
    out = np.zeros((d, d))
    out[iu] = x
    return out + out.T


def plain_sinkhorn(C, mu, nu, lam, tol=1e-9, max_iters=10000, log_left_init=None):
    """Reference plain Sinkhorn: the stabilized loop of ``sinkhorn`` without
    over-relaxation, with the same floating-point operations sweep for sweep
    (the absorption uses the same log-sum-exp), and the plan renormalized as
    ``CouplingMatrix`` does it. Returns
    (plan, sweeps, marginal error, log_left, log_right), or None when ``tol``
    is not met within ``max_iters`` sweeps or the potentials degenerate."""
    C, mu, nu = (np.asarray(x, dtype=float) for x in (C, mu, nu))
    m, n = C.shape
    f = np.zeros(m) if log_left_init is None else np.asarray(log_left_init, dtype=float)
    g = np.zeros(n)
    a, b = np.ones(m), np.ones(n)
    K = np.multiply(C, -lam)
    if log_left_init is not None:
        K += f[:, None]
    with np.errstate(all="ignore"):
        K = np.exp(K)
        Kt_a = K.T @ a
        for sweeps in range(1, max_iters + 1):
            b_next = nu / Kt_a
            a_next = mu / (K @ b_next)
            lo = min(a_next.min(), b_next.min())
            hi = max(a_next.max(), b_next.max())
            if 1e-150 <= lo and hi <= 1e150:
                a, b = a_next, b_next
            else:
                neg_lam_C = -lam * C
                g = np.log(nu) - _logsumexp(neg_lam_C + (f + np.log(a))[:, None], axis=0)
                f = np.log(mu) - _logsumexp(neg_lam_C + g[None, :], axis=1)
                if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g))):
                    return None
                a, b = np.ones(m), np.ones(n)
                K = np.exp(f[:, None] + neg_lam_C + g[None, :])
            Kt_a = K.T @ a
            err = float(np.abs(b * Kt_a - nu).sum())
            if err <= tol:
                break
        else:
            return None
        plan = CouplingMatrix(K * a[:, None] * b[None, :]).entries
    log_left, log_right = f + np.log(a), g + np.log(b)
    shift = 0.5 * (np.mean(log_right) - np.mean(log_left))
    return plan, sweeps, err, log_left + shift, log_right - shift


def poly_kernel():
    return KernelSpec("polynomial", gamma=0.05, c0=1.0, degree=2)


def forward_instance(seed, m=6, n=5, p=3, q=2, lam=1.0, conc=5.0):
    """Ground-truth kernel market: returns everything a fit test needs."""
    rng = np.random.default_rng(seed)
    U = rng.normal(0.0, 1.0, (p, m))
    V = rng.normal(0.0, 1.0, (q, n))
    A0 = rng.normal(0.0, 1.0, (p, q))
    mu0 = random_marginal(rng, m, conc)
    nu0 = random_marginal(rng, n, conc)
    kern = poly_kernel()
    C0 = kernel_cost(U, V, A0, kern)
    pi0 = sinkhorn(C0, mu0, nu0, lam).plan
    return {
        "rng": rng, "U": U, "V": V, "A0": A0,
        "mu0": mu0, "nu0": nu0, "kern": kern, "C0": C0, "pi0": pi0,
        "C_u": euclidean_cost(rng, m), "C_v": euclidean_cost(rng, n),
    }


def unit_grid_distances(d, largest=10.0):
    """Distances between d points of a unit grid scaled to a largest entry,
    the shape of a side cost built from individuals on a grid."""
    cols = int(np.ceil(np.sqrt(d)))
    pts = np.array([(k // cols, k % cols) for k in range(d)], dtype=float)
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
    return dist * (largest / dist.max())


def noised(pi0, rng, sigma):
    p = pi0.entries if isinstance(pi0, CouplingMatrix) else pi0
    noisy = p + np.abs(rng.normal(0.0, sigma, p.shape))
    return CouplingMatrix(noisy / noisy.sum())


def conjugate_potential(z, C, nu, lam):
    """Soft-min transform z^C of a potential z against cost C and marginal nu."""
    C = as_array(C)
    return np.log(nu) / lam - logsumexp(lam * (z[:, None] - C), axis=0) / lam


def plan_entropy(plan):
    """Entropy H(pi) = -sum pi_ij (log pi_ij - 1), with 0 log 0 = 0."""
    p = as_array(plan)
    pos = p > 0
    return float(-(p[pos] * (np.log(p[pos]) - 1.0)).sum())


def regularized_value(plan, C, lam):
    """Regularized transport value <pi, C> - H(pi) / lam of a plan."""
    p = as_array(plan)
    return float((p * as_array(C)).sum() - plan_entropy(p) / lam)


def neg_log_likelihood(pi_hat, pi):
    """-sum pihat_ij log pi_ij from the plan's entries; +inf, without a
    warning, where the plan has a zero under pihat > 0."""
    pi_hat = as_array(pi_hat)
    pi = as_array(pi)
    mask = pi_hat > 0
    with np.errstate(divide="ignore"):
        return float(-(pi_hat[mask] * np.log(pi[mask])).sum())


def inner_objective(xi, eta, mu_hat, nu_hat, M):
    """Inner scaling objective -<muhat, log xi> - <nuhat, log eta> + xi' M eta."""
    return float(-(mu_hat @ np.log(xi)) - (nu_hat @ np.log(eta)) + xi @ (M @ eta))


def kernel_cost_directional_grad(U, V, A, kernel, W):
    """Directional derivative of the kernel cost along a direction W.

    Returns the m-by-n matrix with entries f'(u_i' A v_j) * (u_i' W v_j),
    i.e. <C'_ij(A), W> for every cost entry.
    """
    return kernel.derivative(gram_products(U, V, A)) * (U.T @ W @ V)


def peak_arrays(call, shape):
    """Peak memory that ``call()`` allocates, in units of one float array of
    ``shape``, as tracemalloc counts it (numpy reports its buffers to it)."""
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (np.prod(shape) * np.dtype(float).itemsize)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
