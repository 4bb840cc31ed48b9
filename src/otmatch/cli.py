"""Command-line entry point: fit, predict, simulate, eval.

All numeric IO is plain CSV (no headers); configuration is a single JSON
document whose keys are overridden by command-line flags. Exit codes: 0 on
success, 1 for input/validation problems, 2 for solver failures.
"""

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import io as mio
from .bounds import (cost_error_bound_check, cost_shift_distance, eval_matching,
                     kl_divergence, prediction_error_bound_check)
from .containers import (SUM_TOL, CostMatrix, CouplingMatrix, HyperParams,
                         InteractionMatrix, MatchCounts, ProfileSet, normalize_counts)
from .errors import OtmatchError, ValidationError
from .iot import iot_fit
from .joint import joint_fit
from .kernels import KernelSpec
from .riot import predict_matching, riot_fit
from .synth import (SynthConfig, cost_recovery_experiment, plan_comparison_experiment,
                    robustness_sweep)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SOLVER = 2

_HYPER_KEY_ALIASES = {"lambda": "lam", "lambda_u": "lam_u", "lambda_v": "lam_v",
                      "L": "outer_iters", "s": "step_size"}


def _load_config(path):
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    return cfg


def _config_hash(cfg):
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _section(cfg, key, name=None):
    """The JSON object under ``key``, or {} when it is absent."""
    section = cfg.get(key, {})
    if not isinstance(section, dict):
        raise ValidationError(f"config section {name or key!r} must be a JSON object, "
                              f"got {section!r}")
    return section


def _hyper_from_config(cfg):
    return HyperParams(**{_HYPER_KEY_ALIASES.get(key, key): value
                          for key, value in _section(cfg, "hyper").items()})


def _kernel_from_config(cfg):
    spec = cfg.get("kernel")
    if spec is None:
        return KernelSpec("polynomial", gamma=0.05, c0=1.0, degree=2)
    return KernelSpec.from_dict(spec)


def _require_file(path, flag):
    if path is None:
        raise ValidationError(f"missing required flag {flag}")
    if not os.path.exists(path):
        raise ValidationError(f"{flag}: no such file: {path}")
    return path


def _read_marginal(path, flag):
    values = mio.read_vector(_require_file(path, flag))
    if not (np.all(np.isfinite(values)) and np.all(values >= 0)):
        raise ValidationError(f"{flag}: marginal masses must be finite and nonnegative")
    total = float(values.sum())
    if abs(total - 1.0) > SUM_TOL:
        raise ValidationError(f"{flag}: marginal masses sum to {total!r}, "
                              f"not 1 within {SUM_TOL}")
    return values


def _nonnegative_counts(arr, path):
    bad = np.argwhere(arr < 0)
    if bad.size:
        i, j = bad[0]
        raise ValidationError(f"{path}: negative entry at row {i + 1}, column {j + 1}")


def _write_metadata(out_dir, name, seed, cfg, started):
    meta = {
        "seed": seed,
        "config_hash": _config_hash(cfg),
        "wall_time_s": time.time() - started,
        "command": name,
    }
    with open(os.path.join(out_dir, "run.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _cmd_fit(args):
    started = time.time()
    cfg = _load_config(args.config)
    hyper = _hyper_from_config(cfg)
    kernel = _kernel_from_config(cfg)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)

    if (args.counts is None) == (args.coupling is None):
        raise ValidationError("exactly one of --counts or --coupling is required")
    if args.counts:
        counts = mio.read_matrix(_require_file(args.counts, "--counts"))
        _nonnegative_counts(counts, args.counts)
        pi_hat = normalize_counts(MatchCounts(counts))
    else:
        pi_hat = CouplingMatrix(mio.read_matrix(_require_file(args.coupling, "--coupling")))

    U = ProfileSet(mio.read_matrix(_require_file(args.users, "--users")))
    V = ProfileSet(mio.read_matrix(_require_file(args.items, "--items")))
    m, n = pi_hat.shape
    if U.count != m or V.count != n:
        raise ValidationError(
            f"profile counts ({U.count}, {V.count}) do not match matching shape ({m}, {n})")

    if args.joint_side_costs and args.method != "riot":
        raise ValidationError("--joint-side-costs needs --method riot")
    # The fixed side costs, or the joint fit's optional starting points.
    side_costs = {}
    if args.method == "riot":
        for flag, path, size in (("--cost-u", args.cost_u, m), ("--cost-v", args.cost_v, n)):
            if path is None:
                if not args.joint_side_costs:
                    raise ValidationError(
                        f"{flag} is required (or pass --joint-side-costs to learn "
                        f"the side costs)")
                continue
            side_costs[flag] = CostMatrix(mio.read_matrix(_require_file(path, flag)))
            if side_costs[flag].shape != (size, size):
                raise ValidationError(f"{flag}: side cost shape {side_costs[flag].shape} "
                                      f"does not match ({size}, {size})")
    cost_u, cost_v = side_costs.get("--cost-u"), side_costs.get("--cost-v")

    if args.method == "iot":
        result = iot_fit(pi_hat, U, V, kernel, hyper)
    elif not args.joint_side_costs:
        result = riot_fit(pi_hat, U, V, kernel, cost_u, cost_v, hyper)
    else:
        result = joint_fit(pi_hat, U, V, kernel, hyper,
                           C_u_init=cost_u, C_v_init=cost_v,
                           side_step=cfg.get("side_step"))

    os.makedirs(args.out, exist_ok=True)
    if args.joint_side_costs:
        mio.write_matrix(os.path.join(args.out, "cost_u.csv"), result.C_u.entries)
        mio.write_matrix(os.path.join(args.out, "cost_v.csv"), result.C_v.entries)
    mio.write_matrix(os.path.join(args.out, "A.csv"), result.A.entries)
    mio.write_matrix(os.path.join(args.out, "fitted_plan.csv"), result.fitted_plan.entries)
    mio.write_vector(os.path.join(args.out, "objective_trace.csv"), result.objective_trace)
    _write_metadata(args.out, f"fit --method {args.method}", seed, cfg, started)
    return EXIT_OK


def _cmd_predict(args):
    cfg = _load_config(args.config)
    kernel = _kernel_from_config(cfg)
    hyper = _hyper_from_config(cfg)

    A = InteractionMatrix(mio.read_matrix(_require_file(args.interaction, "--interaction")))
    U = ProfileSet(mio.read_matrix(_require_file(args.users, "--users")))
    V = ProfileSet(mio.read_matrix(_require_file(args.items, "--items")))
    mu = _read_marginal(args.mu, "--mu")
    nu = _read_marginal(args.nu, "--nu")
    if A.shape != (U.dim, V.dim):
        raise ValidationError(
            f"interaction shape {A.shape} does not match feature dims ({U.dim}, {V.dim})")
    if mu.size != U.count or nu.size != V.count:
        raise ValidationError("marginal lengths do not match profile counts")

    plan = predict_matching(A, U, V, mu, nu, kernel, hyper.lam, tol=hyper.sinkhorn_tol,
                            max_iters=hyper.sinkhorn_max_iters)
    mio.write_matrix(args.out, plan.entries)
    return EXIT_OK


def _synth_config(cfg, seed):
    synth = dict(_section(cfg, "synth"))
    synth.setdefault("kernel", cfg.get("kernel"))
    if synth["kernel"] is None:
        synth.pop("kernel")
    else:
        synth["kernel"] = KernelSpec.from_dict(synth["kernel"])
    if "hyper" in cfg or "hyper" in synth:
        raw = {**_section(cfg, "hyper"), **_section(synth, "hyper", "synth.hyper")}
        synth["hyper"] = _hyper_from_config({"hyper": raw})
    for key in ("delta_grid", "sigma_grid"):
        if key in synth:
            synth[key] = tuple(synth[key])
    return SynthConfig(seed=seed, **synth)


def _cmd_simulate(args):
    started = time.time()
    cfg = _load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    scfg = _synth_config(cfg, seed)

    if args.figure == 2:
        result = robustness_sweep(scfg, max_workers=args.workers)
        rows = [[r.sigma, r.delta, r.rep, r.kl_riot, r.kl_iot, r.kl_hat]
                for r in result.records]
        matrices = {"sweep.csv": np.asarray(rows)}
        summary = {"cells": list(result.aggregates), "seed": seed,
                   "sigma_grid": list(scfg.sigma_grid),
                   "delta_grid": list(scfg.delta_grid),
                   "repetitions": scfg.repetitions}
    elif args.figure == 3:
        pi0, pi_hat, pi_riot, pi_iot = plan_comparison_experiment(scfg)
        matrices = {"pi0.csv": pi0.entries, "pi_hat.csv": pi_hat.entries,
                    "pi_riot.csv": pi_riot.entries, "pi_iot.csv": pi_iot.entries}
        summary = {"seed": seed, "sigma": scfg.noise_sigma, "delta": scfg.delta_grid[0],
                   "kl_hat": kl_divergence(pi0, pi_hat),
                   "kl_riot": kl_divergence(pi0, pi_riot),
                   "kl_iot": kl_divergence(pi0, pi_iot)}
    else:
        result = cost_recovery_experiment(scfg)
        matrices = {"cost_true.csv": result.C0.entries,
                    "cost_riot_aligned.csv": result.C_tilde_riot.entries,
                    "cost_iot_aligned.csv": result.C_tilde_iot.entries}
        summary = {"seed": seed, "sigma": scfg.noise_sigma, "delta": scfg.delta_grid[0],
                   "d_riot": result.d_riot, "d_iot": result.d_iot,
                   "kl_riot": result.kl_riot, "kl_iot": result.kl_iot,
                   "kl_hat": result.kl_hat}

    os.makedirs(args.out, exist_ok=True)
    for name, entries in matrices.items():
        mio.write_matrix(os.path.join(args.out, name), entries)
    with open(os.path.join(args.out, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    _write_metadata(args.out, f"simulate --figure {args.figure}", seed, cfg, started)
    return EXIT_OK


def _cmd_eval(args):
    pred = CouplingMatrix(mio.read_matrix(_require_file(args.pred, "--pred")))
    test = CouplingMatrix(mio.read_matrix(_require_file(args.test, "--test")))
    if pred.shape != test.shape:
        raise ValidationError(f"shape mismatch: {pred.shape} vs {test.shape}")
    report = eval_matching(pred, test)

    if (args.cost_true is None) != (args.cost_pred is None):
        raise ValidationError("--cost-true and --cost-pred must be given together")
    if args.cost_true is not None:
        c_true = CostMatrix(mio.read_matrix(_require_file(args.cost_true, "--cost-true")))
        c_pred = CostMatrix(mio.read_matrix(_require_file(args.cost_pred, "--cost-pred")))
        report["cost_shift_distance"] = cost_shift_distance(c_pred, c_true)
        if np.all(pred.entries > 0) and np.all(test.entries > 0):
            cost_bound = cost_error_bound_check(c_true, c_pred, test, pred, args.lam)
            report["cost_error_bound"] = {
                "bound": cost_bound.bound_value,
                "observed": cost_bound.observed_value,
                "satisfied": cost_bound.satisfied,
            }
        mp = test.marginals()
        pred_bound = prediction_error_bound_check(
            c_true, c_pred, mp.mu, mp.nu, args.lam)
        report["prediction_error_bound"] = {
            "bound": pred_bound.bound_value,
            "observed": pred_bound.observed_value,
            "satisfied": pred_bound.satisfied,
        }

    text = json.dumps(report, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the input-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="otmatch",
        description="Learn matching costs from empirical matchings by inverse "
                    "optimal transport, predict new matchings, and run the "
                    "synthetic experiment suite.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="learn an interaction matrix from matching data")
    p_fit.add_argument("--method", choices=("iot", "riot"), required=True)
    p_fit.add_argument("--config", help="JSON config file")
    p_fit.add_argument("--counts", help="raw match-count CSV")
    p_fit.add_argument("--coupling", help="normalized matching-matrix CSV")
    p_fit.add_argument("--users", required=True, help="user feature CSV (p x m)")
    p_fit.add_argument("--items", required=True, help="item feature CSV (q x n)")
    p_fit.add_argument("--cost-u", dest="cost_u", help="user-side cost CSV (m x m)")
    p_fit.add_argument("--cost-v", dest="cost_v", help="item-side cost CSV (n x n)")
    p_fit.add_argument("--joint-side-costs", action="store_true",
                       help="with --method riot: learn the side costs jointly, "
                            "starting from --cost-u/--cost-v if given")
    p_fit.add_argument("--seed", type=int)
    p_fit.add_argument("--out", required=True, help="output directory")
    p_fit.set_defaults(func=_cmd_fit)

    p_pred = sub.add_parser("predict", help="predict a matching for new profiles")
    p_pred.add_argument("--interaction", required=True, help="learned A CSV")
    p_pred.add_argument("--users", required=True)
    p_pred.add_argument("--items", required=True)
    p_pred.add_argument("--mu", required=True, help="row-marginal CSV (single row)")
    p_pred.add_argument("--nu", required=True, help="column-marginal CSV (single row)")
    p_pred.add_argument("--config", help="JSON config (kernel, lambda)")
    p_pred.add_argument("--out", required=True, help="output CSV path")
    p_pred.set_defaults(func=_cmd_predict)

    p_sim = sub.add_parser("simulate", help="run a synthetic experiment")
    p_sim.add_argument("--figure", type=int, required=True, choices=(2, 3, 4),
                       help="2: robustness sweep, 3: single-instance comparison, "
                            "4: cost recovery")
    p_sim.add_argument("--config", help="JSON config file")
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--workers", type=int, default=1,
                       help="parallel sweep cells (default: 1)")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=_cmd_simulate)

    p_eval = sub.add_parser("eval", help="compare predicted and reference matchings")
    p_eval.add_argument("--pred", required=True)
    p_eval.add_argument("--test", required=True)
    p_eval.add_argument("--cost-true", dest="cost_true")
    p_eval.add_argument("--cost-pred", dest="cost_pred")
    p_eval.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p_eval.add_argument("--out", help="write the report here instead of stdout")
    p_eval.set_defaults(func=_cmd_eval)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError, json.JSONDecodeError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OtmatchError as exc:
        diagnostic = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(diagnostic, sort_keys=True), file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
