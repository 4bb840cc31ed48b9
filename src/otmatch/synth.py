"""Synthetic matching experiments: data generation, noise, and sweeps.

Ground-truth instances are drawn from a counter-based generator (Philox)
with one independent stream per purpose, keyed off the master seed, so every
cell of a sweep is reproducible in isolation and the whole sweep is
bit-identical regardless of execution order or parallelism.
"""

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .bounds import align_shift, cost_shift_distance, kl_divergence
from .containers import CouplingMatrix, HyperParams, as_array, checked
from .errors import OtmatchError, ValidationError
from .iot import iot_fit
from .kernels import DEFAULT_KERNEL, KernelSpec, kernel_cost
from .riot import riot_fit
from .transport import sinkhorn

# Paper-scale default grids: eight noise sizes and three relaxation weights.
DEFAULT_SIGMA_GRID = tuple(1e-4 * s for s in (1, 5, 10, 50, 100, 500, 1000, 5000))
DEFAULT_DELTA_GRID = (0.001, 0.01, 0.05)

# Planar spread of the side-cost anchor points (standard deviation per axis).
SIDE_STDDEV = float(np.sqrt(5.0))

# Dirichlet concentration of the true marginals. Kept high: the relaxation's
# marginal smoothing only denoises when the truth itself is smooth, which is
# the regime the robustness comparisons are about.
MARGINAL_CONCENTRATION = 50.0


@dataclass(frozen=True)
class SynthConfig:
    """Configuration of one synthetic experiment family."""

    m: int = 20
    n: int = 20
    p: int = 10
    q: int = 8
    kernel: KernelSpec = DEFAULT_KERNEL
    seed: int = 0
    noise_sigma: float = 8e-3
    hyper: HyperParams = HyperParams()
    delta_grid: tuple = DEFAULT_DELTA_GRID
    sigma_grid: tuple = DEFAULT_SIGMA_GRID
    repetitions: int = 1

    def __post_init__(self):
        for name, low in (("m", 1), ("n", 1), ("p", 1), ("q", 1), ("repetitions", 1), ("seed", 0)):
            object.__setattr__(self, name, checked(name, getattr(self, name), low, integer=True))
        # Each array the experiment allocates must be addressable by numpy.
        limit = np.iinfo(np.intp).max // 8
        for a, b in (("m", "n"), ("m", "m"), ("n", "n"), ("p", "m"), ("q", "n"), ("p", "q")):
            if getattr(self, a) * getattr(self, b) > limit:
                raise ValidationError(f"{a} * {b} must be at most {limit}")
        object.__setattr__(self, "noise_sigma", checked("noise_sigma", self.noise_sigma, 0))
        for name in ("delta_grid", "sigma_grid"):
            grid = getattr(self, name)
            if not (isinstance(grid, (list, tuple)) and grid):
                raise ValidationError(f"{name} must be a non-empty list, got {grid!r}")
            object.__setattr__(self, name, tuple(checked(f"{name} entry", v, 0) for v in grid))


def _stream(seed, *key):
    """Independent counter-based stream for one purpose under a master seed."""
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))))


@dataclass(frozen=True)
class SynthInstance:
    """Ground truth of one synthetic matching market."""

    U: np.ndarray
    V: np.ndarray
    A0: np.ndarray
    mu0: np.ndarray
    nu0: np.ndarray
    C_u: np.ndarray
    C_v: np.ndarray
    pi0: CouplingMatrix


def generate_instance(cfg):
    """Sample a ground-truth market and its regularized plan.

    Profiles and the interaction matrix are iid standard normal, the true
    marginals come from a symmetric near-uniform Dirichlet (bounded well away
    from zero), and the side costs are Euclidean distance matrices of
    planar points with spread ``SIDE_STDDEV``. Fully deterministic per seed:
    one draw from the stream (seed, 0, 0), never re-drawn, so a forward
    transport solve that fails raises its own error, such as
    :class:`~otmatch.errors.SinkhornConvergenceError`.
    """
    rng = _stream(cfg.seed, 0, 0)
    U = rng.standard_normal((cfg.p, cfg.m))
    V = rng.standard_normal((cfg.q, cfg.n))
    A0 = rng.standard_normal((cfg.p, cfg.q))
    mu0 = rng.dirichlet(np.full(cfg.m, MARGINAL_CONCENTRATION))
    nu0 = rng.dirichlet(np.full(cfg.n, MARGINAL_CONCENTRATION))
    pts_u = SIDE_STDDEV * rng.standard_normal((cfg.m, 2))
    pts_v = SIDE_STDDEV * rng.standard_normal((cfg.n, 2))
    C0 = kernel_cost(U, V, A0, cfg.kernel)
    pi0 = sinkhorn(C0, mu0, nu0, cfg.hyper.lam, tol=cfg.hyper.sinkhorn_tol,
                   max_iters=cfg.hyper.sinkhorn_max_iters).plan
    return SynthInstance(
        U=U, V=V, A0=A0, mu0=mu0, nu0=nu0,
        C_u=np.linalg.norm(pts_u[:, None] - pts_u, axis=-1),
        C_v=np.linalg.norm(pts_v[:, None] - pts_v, axis=-1),
        pi0=pi0)


def add_noise(pi0, sigma, seed):
    """Additive folded-Gaussian noise: (pi0 + |eps|) / sum(pi0 + |eps|)."""
    p = as_array(pi0)
    if checked("sigma", sigma, 0) == 0:
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


def _sweep_task(cfg, inst, cell):
    sigma_idx, sigma, delta_idx, delta, rep = cell
    rng = _stream(cfg.seed, 1, sigma_idx, delta_idx, rep)
    # sigma = 0 gives kl_hat = 0 exactly: add_noise returns pi0 itself then.
    pi_hat = add_noise(inst.pi0, sigma, rng)
    params = replace(cfg.hyper, delta=delta)
    record = partial(SweepRecord, sigma=sigma, delta=delta, rep=rep,
                     kl_hat=kl_divergence(inst.pi0, pi_hat))
    try:
        fit_r = riot_fit(pi_hat, inst.U, inst.V, cfg.kernel, inst.C_u, inst.C_v, params)
        fit_i = iot_fit(pi_hat, inst.U, inst.V, cfg.kernel, params)
    except OtmatchError:
        return record(kl_riot=float("nan"), kl_iot=float("nan"), failed=True)
    return record(kl_riot=kl_divergence(inst.pi0, fit_r.fitted_plan),
                  kl_iot=kl_divergence(inst.pi0, fit_i.fitted_plan))


def robustness_sweep(cfg, max_workers=1):
    """Fit both solvers on fresh noise for every (sigma, delta, repetition).

    One ground-truth instance is shared by the whole sweep; each cell draws
    its own noise stream. Cells run in a pool of min(``max_workers``, cells)
    processes when that exceeds one; the reduction is ordered, so parallel
    and serial runs produce identical results. Raises ValidationError when
    ``max_workers`` < 1.
    """
    max_workers = checked("max_workers", max_workers, 1, integer=True)
    task = partial(_sweep_task, cfg, generate_instance(cfg))
    cells = [(si, sigma, di, delta, rep)
             for si, sigma in enumerate(cfg.sigma_grid)
             for di, delta in enumerate(cfg.delta_grid)
             for rep in range(cfg.repetitions)]

    workers = min(max_workers, len(cells))
    if workers > 1:
        # Imported here: the process pool pulls in multiprocessing, which a
        # serial run never needs.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(task, cells, chunksize=1))
    else:
        records = [task(cell) for cell in cells]

    # The records come in (sigma, delta, rep) order, so each cell is one slice
    # of them, even where a grid repeats a value.
    aggregates = []
    for start in range(0, len(records), cfg.repetitions):
        cell = records[start:start + cfg.repetitions]
        ok = [r for r in cell if not r.failed]
        agg = {"sigma": cell[0].sigma, "delta": cell[0].delta,
               "n": len(cell), "n_failed": len(cell) - len(ok),
               "incomplete": (len(cell) - len(ok)) > 0.2 * len(cell)}
        for name in ("kl_riot", "kl_iot", "kl_hat"):
            vals = np.asarray([getattr(r, name) for r in ok], dtype=float)
            agg[f"mean_{name}"] = float(vals.mean()) if vals.size else float("nan")
            agg[f"std_{name}"] = float(vals.std()) if vals.size else float("nan")
        aggregates.append(agg)
    return SweepResult(records=tuple(records), aggregates=tuple(aggregates))


@dataclass(frozen=True)
class CostRecoveryResult:
    """Shift-invariant cost distances of both fits plus aligned heatmaps, and
    the true, observed, relaxed-fit and fixed-marginal-fit plans."""

    d_riot: float
    d_iot: float
    C_tilde_riot: np.ndarray
    C_tilde_iot: np.ndarray
    C0: np.ndarray
    kl_riot: float
    kl_iot: float
    kl_hat: float
    pi0: CouplingMatrix
    pi_hat: CouplingMatrix
    pi_riot: CouplingMatrix
    pi_iot: CouplingMatrix


# Step size and step cap of the fixed-marginal baseline in cost-recovery
# comparisons; the step seeds its first step and any steepest-descent restart,
# whatever step the configured fits use. The fit stops on its gradient
# tolerance first: at the synth defaults it took 51-83 steps on seeds 0-2 at
# sigma in {0, 1e-3, 8e-3}, beyond the default 50.
IOT_CONVERGED_BUDGET = {"step_size": 10.0, "outer_iters": 1000}


def cost_recovery_experiment(cfg):
    """Compare both fits of one noised instance, at the first delta of the
    grid, with the truth by plan and by cost. The relaxed fit uses
    ``cfg.hyper`` as given (its limited budget is part of its regularization);
    the fixed-marginal baseline, the cost that explains the observed
    matching, runs with a convergence-oriented budget.
    """
    inst = generate_instance(cfg)
    pi_hat = add_noise(inst.pi0, cfg.noise_sigma, _stream(cfg.seed, 2))
    C0 = kernel_cost(inst.U, inst.V, inst.A0, cfg.kernel)
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
        pi0=inst.pi0, pi_hat=pi_hat, pi_riot=fit_r.fitted_plan, pi_iot=fit_i.fitted_plan,
    )
