"""Seeded synthetic inputs for the benchmark, written as the CSVs the CLI reads.

One instance is a ground-truth market (features U, V, interaction A0,
marginals, true plan pi0), the noisy observed matching pi_hat the
fit sees, and held-out populations (new U', V' and marginals under the same
A0, with their true plans pi0') that the learned A predicts. Every draw comes
from a Philox stream keyed by (workload seed, workload key, instance index,
purpose), so one seed always yields the same files.

The protocol follows the paper's synthetic setup (iid standard-normal
profiles and interaction, near-uniform Dirichlet marginals, Euclidean side
costs of planar points) with one change: the side-cost points are a fixed
unit grid, scaled to a fixed largest distance, not iid Gaussian points.
The relaxation Sinkhorn's sweep count and the metric projection's cycle
count depend steeply on the point layout (and the projection's on the
point order), so random layouts make fit time differ up to fivefold between
instances and hide changes in the solver behind the draw. Since profiles
are iid, which individual sits at which grid point is random anyway.
"""

import os
from dataclasses import dataclass

import numpy as np

from otmatch import sinkhorn

# Polynomial kernel and regularization that the CLI uses when no config is given.
KERNEL_GAMMA = 0.05
KERNEL_C0 = 1.0
KERNEL_DEGREE = 2
LAM = 1.0

MARGINAL_CONCENTRATION = 50.0
SIDE_COST_MAX = 10.0

P_FEATURES = 10
Q_FEATURES = 8


def _stream(seed, *key):
    """Independent Philox stream for one purpose under the workload seed."""
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))))


def kernel_cost(U, V, A):
    """The CLI's default polynomial kernel cost (gamma u'Av + c0)^degree.

    Written out here so that the quality checks do not rest on the
    program's own kernel code.
    """
    return (KERNEL_GAMMA * (U.T @ A @ V) + KERNEL_C0) ** KERNEL_DEGREE


def side_cost(d):
    """Distances between d points of a unit grid, scaled to SIDE_COST_MAX."""
    cols = int(np.ceil(np.sqrt(d)))
    pts = np.array([(k // cols, k % cols) for k in range(d)], dtype=float)
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
    return dist * (SIDE_COST_MAX / dist.max())


def _plan(U, V, A, mu, nu):
    return sinkhorn(kernel_cost(U, V, A), mu, nu, LAM).plan.entries


def _write(out_dir, arrays):
    os.makedirs(out_dir, exist_ok=True)
    files = {}
    for name, arr in arrays.items():
        files[name] = os.path.join(out_dir, f"{name}.csv")
        np.savetxt(files[name], np.atleast_2d(arr), fmt="%.17g", delimiter=",")
    return files


@dataclass
class HeldOut:
    """A new population under the instance's A0, for ``predict``."""

    mu: np.ndarray
    nu: np.ndarray
    pi0: np.ndarray
    files: dict


@dataclass
class Instance:
    """Ground truth kept in memory for the checks, plus the CSV paths."""

    pi0: np.ndarray
    pi_hat: np.ndarray
    C0: np.ndarray
    U: np.ndarray
    V: np.ndarray
    held_out: list
    files: dict


def make_instance(seed, workload_key, index, m, sigma, held_out, side_costs, out_dir):
    """Draw one instance with ``held_out`` populations; write its CSVs under ``out_dir``.

    The side costs are written only when the fit reads them.
    """
    rng = _stream(seed, workload_key, index, 0)
    U = rng.standard_normal((P_FEATURES, m))
    V = rng.standard_normal((Q_FEATURES, m))
    A0 = rng.standard_normal((P_FEATURES, Q_FEATURES))
    mu0 = rng.dirichlet(np.full(m, MARGINAL_CONCENTRATION))
    nu0 = rng.dirichlet(np.full(m, MARGINAL_CONCENTRATION))
    pi0 = _plan(U, V, A0, mu0, nu0)

    noise = np.abs(_stream(seed, workload_key, index, 1).normal(0.0, sigma, size=pi0.shape))
    pi_hat = (pi0 + noise) / (pi0 + noise).sum()

    populations = []
    for k in range(held_out):
        rng2 = _stream(seed, workload_key, index, 2, k)
        U2 = rng2.standard_normal((P_FEATURES, m))
        V2 = rng2.standard_normal((Q_FEATURES, m))
        mu2 = rng2.dirichlet(np.full(m, MARGINAL_CONCENTRATION))
        nu2 = rng2.dirichlet(np.full(m, MARGINAL_CONCENTRATION))
        files = _write(os.path.join(out_dir, f"held_out{k}"),
                       {"users": U2, "items": V2, "mu": mu2, "nu": nu2})
        populations.append(HeldOut(mu=mu2, nu=nu2, pi0=_plan(U2, V2, A0, mu2, nu2),
                                   files=files))

    arrays = {"coupling": pi_hat, "users": U, "items": V}
    if side_costs:
        arrays.update(cost_u=side_cost(m), cost_v=side_cost(m))
    files = _write(out_dir, arrays)
    return Instance(pi0=pi0, pi_hat=pi_hat, C0=kernel_cost(U, V, A0), U=U, V=V,
                    held_out=populations, files=files)
