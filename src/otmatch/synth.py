"""Synthetic matching experiments: data generation, noise, and sweeps.

Ground-truth instances are drawn from a counter-based generator (Philox)
with one independent stream per purpose, keyed off the master seed, so every
cell of a sweep is reproducible in isolation and the whole sweep is
bit-identical regardless of execution order or parallelism.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.spatial.distance import cdist

from .bounds import align_shift, cost_shift_distance, kl_divergence
from .containers import (CostMatrix, CouplingMatrix, HyperParams, InteractionMatrix,
                         ProfileSet, as_array)
from .errors import OtmatchError, ValidationError
from .iot import iot_fit
from .kernels import KernelSpec, kernel_cost
from .riot import riot_fit
from .sinkhorn import sinkhorn

# Paper-scale default grids: eight noise sizes and three relaxation weights.
DEFAULT_SIGMA_GRID = tuple(1e-4 * s for s in (1, 5, 10, 50, 100, 500, 1000, 5000))
DEFAULT_DELTA_GRID = (0.001, 0.01, 0.05)

# Planar spread of the side-cost anchor points (standard deviation per axis).
DEFAULT_SIDE_STDDEV = float(np.sqrt(5.0))

# Dirichlet concentration of the true marginals. Kept high: the relaxation's
# marginal smoothing only denoises when the truth itself is smooth, which is
# the regime the robustness comparisons are about.
MARGINAL_CONCENTRATION = 50.0

_MAX_GENERATE_ATTEMPTS = 5


@dataclass(frozen=True)
class SynthConfig:
    """Configuration of one synthetic experiment family."""

    m: int = 20
    n: int = 20
    p: int = 10
    q: int = 8
    kernel: KernelSpec = field(
        default_factory=lambda: KernelSpec("polynomial", gamma=0.05, c0=1.0, degree=2))
    seed: int = 0
    side_cost_points_stddev: float = DEFAULT_SIDE_STDDEV
    noise_sigma: float = 8e-3
    hyper: HyperParams = field(default_factory=HyperParams)
    delta_grid: tuple = DEFAULT_DELTA_GRID
    sigma_grid: tuple = DEFAULT_SIGMA_GRID
    repetitions: int = 1

    def __post_init__(self):
        for name in ("m", "n", "p", "q"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be a positive integer")
        if self.side_cost_points_stddev <= 0:
            raise ValidationError("side_cost_points_stddev must be positive")
        if self.noise_sigma < 0:
            raise ValidationError("noise_sigma must be nonnegative")
        if len(self.delta_grid) == 0 or len(self.sigma_grid) == 0:
            raise ValidationError("grids must be non-empty")
        if self.repetitions < 1:
            raise ValidationError("repetitions must be >= 1")
        object.__setattr__(self, "delta_grid", tuple(float(d) for d in self.delta_grid))
        object.__setattr__(self, "sigma_grid", tuple(float(s) for s in self.sigma_grid))


def _stream(seed, *key):
    """Independent counter-based stream for one purpose under a master seed."""
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))))


@dataclass(frozen=True)
class SynthInstance:
    """Ground truth of one synthetic matching market."""

    U: ProfileSet
    V: ProfileSet
    A0: InteractionMatrix
    mu0: np.ndarray
    nu0: np.ndarray
    C_u: CostMatrix
    C_v: CostMatrix
    pi0: CouplingMatrix


def generate_instance(cfg):
    """Sample a ground-truth market and its regularized plan.

    Profiles and the interaction matrix are iid standard normal, the true
    marginals come from a symmetric near-uniform Dirichlet (bounded well away
    from zero), and the side costs are Euclidean distance matrices of
    planar points with the configured spread. Fully deterministic per seed;
    if the forward transport solve fails, the draw is retried with an
    incremented sub-seed up to five times.
    """
    last_error = None
    for attempt in range(_MAX_GENERATE_ATTEMPTS):
        rng = _stream(cfg.seed, 0, attempt)
        U = rng.standard_normal((cfg.p, cfg.m))
        V = rng.standard_normal((cfg.q, cfg.n))
        A0 = rng.standard_normal((cfg.p, cfg.q))
        mu0 = rng.dirichlet(np.full(cfg.m, MARGINAL_CONCENTRATION))
        nu0 = rng.dirichlet(np.full(cfg.n, MARGINAL_CONCENTRATION))
        pts_u = cfg.side_cost_points_stddev * rng.standard_normal((cfg.m, 2))
        pts_v = cfg.side_cost_points_stddev * rng.standard_normal((cfg.n, 2))
        try:
            C0 = kernel_cost(U, V, A0, cfg.kernel)
            pi0 = sinkhorn(C0, mu0, nu0, cfg.hyper.lam,
                           tol=cfg.hyper.sinkhorn_tol,
                           max_iters=cfg.hyper.sinkhorn_max_iters).plan
        except OtmatchError as exc:
            last_error = exc
            continue
        return SynthInstance(
            U=ProfileSet(U), V=ProfileSet(V), A0=InteractionMatrix(A0),
            mu0=mu0, nu0=nu0,
            C_u=CostMatrix(cdist(pts_u, pts_u)),
            C_v=CostMatrix(cdist(pts_v, pts_v)),
            pi0=pi0)
    raise ValidationError(
        f"could not generate a solvable instance in {_MAX_GENERATE_ATTEMPTS} "
        f"attempts: {last_error}")


def ground_truth_cost(cfg, instance):
    """Kernel cost of the ground-truth interaction matrix."""
    return kernel_cost(instance.U, instance.V, instance.A0, cfg.kernel)


def add_noise(pi0, sigma, seed):
    """Additive folded-Gaussian noise: (pi0 + |eps|) / sum(pi0 + |eps|)."""
    p = as_array(pi0)
    if sigma < 0:
        raise ValidationError("sigma must be nonnegative")
    if sigma == 0:
        return pi0 if isinstance(pi0, CouplingMatrix) else CouplingMatrix(p)
    rng = seed if isinstance(seed, np.random.Generator) else _stream(seed, 3)
    noisy = p + np.abs(rng.normal(0.0, sigma, size=p.shape))
    return CouplingMatrix(noisy / noisy.sum())


@dataclass(frozen=True)
class SweepRecord:
    """One (sigma, delta, repetition) outcome."""

    sigma: float
    delta: float
    rep: int
    kl_riot: float
    kl_iot: float
    kl_hat: float
    failed: bool = False


@dataclass(frozen=True)
class SweepResult:
    """All records of a robustness sweep plus per-cell aggregates.

    ``aggregates`` has one dict per (sigma, delta) cell with the mean and
    standard deviation of each KL column, the failure count, and an
    ``incomplete`` flag when more than 20% of the cell's fits failed.
    """

    records: tuple
    aggregates: tuple


def _sweep_task(payload):
    (sigma_idx, sigma, delta_idx, delta, rep, seed,
     pi0, U, V, kernel, C_u, C_v, hyper) = payload
    rng = _stream(seed, 1, sigma_idx, delta_idx, rep)
    # One wrapped pi0 for the noise and every KL, so sigma = 0 gives
    # kl_hat = 0 exactly: add_noise returns this very object then.
    pi0 = CouplingMatrix(pi0)
    pi_hat = add_noise(pi0, sigma, rng)
    kl_hat = kl_divergence(pi0, pi_hat)
    params = replace(hyper, delta=delta)
    try:
        fit_r = riot_fit(pi_hat, ProfileSet(U), ProfileSet(V), kernel,
                         CostMatrix(C_u), CostMatrix(C_v), params)
        fit_i = iot_fit(pi_hat, ProfileSet(U), ProfileSet(V), kernel, params)
        return SweepRecord(sigma=sigma, delta=delta, rep=rep,
                           kl_riot=kl_divergence(pi0, fit_r.fitted_plan),
                           kl_iot=kl_divergence(pi0, fit_i.fitted_plan),
                           kl_hat=kl_hat)
    except OtmatchError:
        return SweepRecord(sigma=sigma, delta=delta, rep=rep,
                           kl_riot=float("nan"), kl_iot=float("nan"),
                           kl_hat=kl_hat, failed=True)


def robustness_sweep(cfg, max_workers=1):
    """Fit both solvers on fresh noise for every (sigma, delta, repetition).

    One ground-truth instance is shared by the whole sweep; each cell draws
    its own noise stream. Cells run in a process pool when ``max_workers``
    exceeds one; the reduction is ordered, so parallel and serial runs
    produce identical results.
    """
    inst = generate_instance(cfg)
    tasks = []
    for si, sigma in enumerate(cfg.sigma_grid):
        for di, delta in enumerate(cfg.delta_grid):
            for rep in range(cfg.repetitions):
                tasks.append((si, sigma, di, delta, rep, cfg.seed,
                              inst.pi0.entries, inst.U.features, inst.V.features,
                              cfg.kernel, inst.C_u.entries, inst.C_v.entries,
                              cfg.hyper))

    if max_workers > 1:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            records = list(pool.map(_sweep_task, tasks, chunksize=1))
    else:
        records = [_sweep_task(t) for t in tasks]

    aggregates = []
    for si, sigma in enumerate(cfg.sigma_grid):
        for di, delta in enumerate(cfg.delta_grid):
            cell = [r for r in records if r.sigma == sigma and r.delta == delta]
            ok = [r for r in cell if not r.failed]
            agg = {"sigma": sigma, "delta": delta,
                   "n": len(cell), "n_failed": len(cell) - len(ok),
                   "incomplete": (len(cell) - len(ok)) > 0.2 * len(cell)}
            for name in ("kl_riot", "kl_iot", "kl_hat"):
                vals = np.asarray([getattr(r, name) for r in ok], dtype=float)
                agg[f"mean_{name}"] = float(vals.mean()) if vals.size else float("nan")
                agg[f"std_{name}"] = float(vals.std()) if vals.size else float("nan")
            aggregates.append(agg)
    return SweepResult(records=tuple(records), aggregates=tuple(aggregates))


def plan_comparison_experiment(cfg):
    """Fit both solvers to one noised instance at the first delta of the grid.

    Returns the true, observed, relaxed-fit and fixed-marginal-fit plans. The
    noise stream is the one :func:`cost_recovery_experiment` draws.
    """
    inst = generate_instance(cfg)
    pi_hat = add_noise(inst.pi0, cfg.noise_sigma, _stream(cfg.seed, 2))
    params = replace(cfg.hyper, delta=cfg.delta_grid[0])
    fit_r = riot_fit(pi_hat, inst.U, inst.V, cfg.kernel, inst.C_u, inst.C_v, params)
    fit_i = iot_fit(pi_hat, inst.U, inst.V, cfg.kernel, params)
    return inst.pi0, pi_hat, fit_r.fitted_plan, fit_i.fitted_plan


@dataclass(frozen=True)
class CostRecoveryResult:
    """Shift-invariant cost distances of both fits plus aligned heatmaps."""

    d_riot: float
    d_iot: float
    C_tilde_riot: CostMatrix
    C_tilde_iot: CostMatrix
    C0: CostMatrix
    kl_riot: float
    kl_iot: float
    kl_hat: float


# Budget under which the fixed-marginal baseline is considered converged for
# cost-recovery comparisons (it also exits early on a vanishing gradient).
IOT_CONVERGED_BUDGET = {"step_size": 10.0, "outer_iters": 1000}


def cost_recovery_experiment(cfg):
    """Compare how well both fits recover the ground-truth cost.

    Runs one noised instance at the configured sigma and delta and reports
    the shift-invariant distance of each learned cost to the truth, together
    with the shift-aligned matrices for heatmap export. The relaxed fit uses
    ``cfg.hyper`` as given (its limited budget is part of its regularization);
    the fixed-marginal baseline is the cost that explains the observed
    matching, so it runs with a convergence-oriented budget.
    """
    inst = generate_instance(cfg)
    pi_hat = add_noise(inst.pi0, cfg.noise_sigma, _stream(cfg.seed, 2))
    C0 = ground_truth_cost(cfg, inst)
    params = replace(cfg.hyper, delta=cfg.delta_grid[0])

    fit_r = riot_fit(pi_hat, inst.U, inst.V, cfg.kernel, inst.C_u, inst.C_v, params)
    fit_i = iot_fit(pi_hat, inst.U, inst.V, cfg.kernel,
                    replace(cfg.hyper, **IOT_CONVERGED_BUDGET))
    C_riot = kernel_cost(inst.U, inst.V, fit_r.A, cfg.kernel)
    C_iot = kernel_cost(inst.U, inst.V, fit_i.A, cfg.kernel)
    return CostRecoveryResult(
        d_riot=cost_shift_distance(C_riot, C0),
        d_iot=cost_shift_distance(C_iot, C0),
        C_tilde_riot=align_shift(C_riot, C0),
        C_tilde_iot=align_shift(C_iot, C0),
        C0=C0,
        kl_riot=kl_divergence(inst.pi0, fit_r.fitted_plan),
        kl_iot=kl_divergence(inst.pi0, fit_i.fitted_plan),
        kl_hat=kl_divergence(inst.pi0, pi_hat),
    )
