"""The benchmark's workloads and end-to-end metrics (no numpy import here).

Why each workload exists, and which layer it stresses, is in README.md.
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    """One family of seeded instances and the fit method run on them.

    ``key`` separates the random streams of workloads run at the same seed;
    ``instances`` is sized so one pass over them takes at most about 30 s on a
    two-core machine, even in a slow phase of a shared host; each fit is
    followed by a predict on each of ``held_out`` populations; ``config`` is
    written as the CLI's ``--config`` when non-empty (the defaults otherwise).
    """

    key: int
    method: str
    m: int
    instances: int
    held_out: int
    sigma: float
    config: dict = field(default_factory=dict)

    @property
    def side_costs(self):
        return self.method != "iot"


WORKLOADS = {
    # At m <= 20 a predict takes milliseconds, so several held-out
    # populations per fit steady predict_s and predict_kl at little cost.
    "riot-m20": Workload(key=1, method="riot", m=20, instances=20, held_out=8, sigma=8e-3),
    # sigma scaled by (20/m)^2 keeps the noise relative to the mean plan
    # entry as in riot-m20.
    "iot-m500": Workload(key=2, method="iot", m=500, instances=8, held_out=1,
                         sigma=8e-3 * (20 / 500) ** 2),
    "joint-m12": Workload(key=3, method="joint", m=12, instances=10, held_out=8, sigma=8e-3),
}

# Seconds-long shape of every workload, for the smoke test.
TOY = {"m": 6, "instances": 2, "held_out": 2, "config": {"hyper": {"L": 2}}}

END_TO_END_UNITS = {"fit_s": "s", "predict_s": "s", "kl_fit": "nats",
                    "cost_dist": "cost_units", "predict_kl": "nats",
                    "setup_s": "s", "peak_rss_mb": "MiB"}
