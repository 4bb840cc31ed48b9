"""Command-line entry point: fit, predict, simulate, eval.

All numeric IO is plain CSV (no headers). The configuration is one JSON
document whose sections are each read in one place: ``seed`` (``--seed``
wins), ``hyper`` (HyperParams) and ``kernel`` (KernelSpec) by ``_settings``,
``side_step`` (the joint fit's side-cost step) and ``synth``, which holds only
the synthetic protocol (SynthConfig's sizes, noise, grids and repetitions). An
unknown key, at the top level or in a section, is an input error. Exit codes:
0 on success, 1 for input/validation problems, 2 for solver failures, and 3
for any other exception, a program fault, whose traceback goes to stderr.

Each fact about the data is checked once, in the library layer that uses it
(the fits check the matching and the profiles, the kernel the interaction
shape, Sinkhorn the marginals, the bound checks their matrices), and the CLI
passes those errors on. It checks only what names a flag: the flag
combinations (exactly one of ``--counts`` and ``--coupling``, among others),
and, in the one reader ``_read`` that every input file goes through, a missing
file, side costs of the wrong shape (``fit --cost-u``/``--cost-v``, ``eval
--cost-*``) and ``predict --mu``/``--nu`` masses that are negative or do not
sum to one.
"""

import argparse
import functools
import hashlib
import json
import os
import sys
import time
import traceback
from dataclasses import fields

import numpy as np

from . import io as mio
from .bounds import (cost_error_bound_check, cost_shift_distance, eval_matching,
                     prediction_error_bound_check)
from .containers import SUM_TOL, CouplingMatrix, HyperParams, checked, normalize_counts
from .errors import OtmatchError, ValidationError
from .iot import iot_fit
from .joint import joint_fit
from .kernels import DEFAULT_KERNEL, KernelSpec
from .riot import predict_matching, riot_fit
from .synth import SynthConfig, cost_recovery_experiment, robustness_sweep

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SOLVER = 2
EXIT_INTERNAL = 3

_HYPER_KEY_ALIASES = {"lambda": "lam", "lambda_u": "lam_u", "lambda_v": "lam_v",
                      "L": "outer_iters", "s": "step_size"}


def _reject_unknown(keys, known, where):
    unknown = sorted(set(keys) - set(known))
    if unknown:
        raise ValidationError(f"{where} has unknown key {', '.join(map(repr, unknown))}")


def _load_config(path):
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    _reject_unknown(cfg, ("seed", "hyper", "kernel", "side_step", "synth"), f"{path}: config")
    return cfg


def _section(cfg, key):
    """The JSON object under ``key``, or {} when it is absent."""
    section = cfg.get(key, {})
    if not isinstance(section, dict):
        raise ValidationError(f"config section {key!r} must be a JSON object, "
                              f"got {section!r}")
    return section


def _settings(cfg):
    """The ``hyper`` and ``kernel`` sections as (HyperParams, KernelSpec); a
    hyper parameter given under two spellings is an input error."""
    section = _section(cfg, "hyper")
    hyper = {}
    for key, value in section.items():
        canon = _HYPER_KEY_ALIASES.get(key, key)
        if canon in hyper:
            first = next(k for k in section if _HYPER_KEY_ALIASES.get(k, k) == canon)
            raise ValidationError(f"config section 'hyper' sets {canon} twice, "
                                  f"as {first!r} and as {key!r}")
        hyper[canon] = value
    _reject_unknown(hyper, [f.name for f in fields(HyperParams)], "config section 'hyper'")
    kernel = cfg.get("kernel")
    return (HyperParams(**hyper),
            DEFAULT_KERNEL if kernel is None else KernelSpec.from_dict(kernel))


def _seed(args, cfg):
    """The run's seed: ``--seed``, else the config's ``seed``, else 0."""
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    return checked("seed", seed, 0, integer=True)


def _read(flag, path, shape=None):
    """The CSV file that ``flag`` names: a marginal vector for ``--mu`` and
    ``--nu``, else a matrix, of ``shape`` when one is given. ``mio`` is looked
    up on each call, so a stand-in for the module sees every read."""
    if not os.path.exists(path):
        raise ValidationError(f"{flag}: no such file: {path}")
    if flag not in ("--mu", "--nu"):
        values = mio.read_matrix(path)
        if shape is not None and values.shape != shape:
            raise ValidationError(f"{flag}: cost shape {values.shape} does not match {shape}")
        return values
    values = mio.read_vector(path)
    if not np.all(values >= 0):
        raise ValidationError(f"{flag}: marginal masses must be nonnegative")
    total = float(values.sum())
    if abs(total - 1.0) > SUM_TOL:
        raise ValidationError(f"{flag}: marginal masses sum to {total!r}, "
                              f"not 1 within {SUM_TOL}")
    return values


def _write_json(path, document):
    """Write ``document`` as sorted, indented JSON to ``path``, or to stdout
    when ``path`` is None."""
    text = json.dumps(document, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_metadata(out_dir, name, seed, cfg, started):
    digest = hashlib.sha256(json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode())
    _write_json(os.path.join(out_dir, "run.json"),
                {"seed": seed, "config_hash": digest.hexdigest(),
                 "wall_time_s": time.time() - started, "command": name})


def _cmd_fit(args):
    started = time.time()
    cfg = _load_config(args.config)
    hyper, kernel = _settings(cfg)
    seed = _seed(args, cfg)

    if (args.counts is None) == (args.coupling is None):
        raise ValidationError("exactly one of --counts or --coupling is required")
    if args.counts is not None:
        pi_hat = normalize_counts(_read("--counts", args.counts))
    else:
        pi_hat = CouplingMatrix(_read("--coupling", args.coupling))

    U = _read("--users", args.users)
    V = _read("--items", args.items)
    m, n = pi_hat.shape

    if args.joint_side_costs and args.method != "riot":
        raise ValidationError("--joint-side-costs needs --method riot")
    if "side_step" in cfg and not args.joint_side_costs:
        raise ValidationError("config key 'side_step' needs --joint-side-costs")
    # The fixed side costs, or the joint fit's optional starting points.
    side_costs = {}
    if args.method == "riot":
        for flag, path, size in (("--cost-u", args.cost_u, m), ("--cost-v", args.cost_v, n)):
            if path is not None:
                side_costs[flag] = _read(flag, path, (size, size))
            elif not args.joint_side_costs:
                raise ValidationError(f"{flag} is required (or pass --joint-side-costs to "
                                      f"learn the side costs)")
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
    mio.write_matrix(os.path.join(args.out, "A.csv"), result.A)
    mio.write_matrix(os.path.join(args.out, "fitted_plan.csv"), result.fitted_plan.entries)
    mio.write_vector(os.path.join(args.out, "objective_trace.csv"), result.objective_trace)
    _write_metadata(args.out, f"fit --method {args.method}", seed, cfg, started)
    return EXIT_OK


def _cmd_predict(args):
    hyper, kernel = _settings(_load_config(args.config))
    plan = predict_matching(_read("--interaction", args.interaction),
                            _read("--users", args.users), _read("--items", args.items),
                            _read("--mu", args.mu), _read("--nu", args.nu), kernel,
                            hyper.lam, tol=hyper.sinkhorn_tol,
                            max_iters=hyper.sinkhorn_max_iters)
    mio.write_matrix(args.out, plan.entries)
    return EXIT_OK


def _synth_config(cfg, seed):
    synth = _section(cfg, "synth")
    if {"seed", "hyper", "kernel"} & set(synth):
        raise ValidationError("seed, hyper and kernel are top-level keys, not 'synth' keys")
    _reject_unknown(synth, [f.name for f in fields(SynthConfig)], "config section 'synth'")
    hyper, kernel = _settings(cfg)
    return SynthConfig(seed=seed, kernel=kernel, hyper=hyper, **synth)


def _cmd_simulate(args):
    started = time.time()
    cfg = _load_config(args.config)
    scfg = _synth_config(cfg, _seed(args, cfg))

    if args.figure == 2:
        result = robustness_sweep(scfg, max_workers=args.workers)
        rows = [[r.sigma, r.delta, r.rep, r.kl_riot, r.kl_iot, r.kl_hat]
                for r in result.records]
        matrices = {"sweep.csv": np.asarray(rows)}
        summary = {"cells": list(result.aggregates), "seed": scfg.seed,
                   "sigma_grid": list(scfg.sigma_grid),
                   "delta_grid": list(scfg.delta_grid),
                   "repetitions": scfg.repetitions}
    else:
        result = cost_recovery_experiment(scfg)
        summary = {"seed": scfg.seed, "sigma": scfg.noise_sigma, "delta": scfg.delta_grid[0],
                   "kl_riot": result.kl_riot, "kl_iot": result.kl_iot,
                   "kl_hat": result.kl_hat}
        if args.figure == 3:
            matrices = {f"{name}.csv": getattr(result, name).entries
                        for name in ("pi0", "pi_hat", "pi_riot", "pi_iot")}
        else:
            matrices = {"cost_true.csv": result.C0,
                        "cost_riot_aligned.csv": result.C_tilde_riot,
                        "cost_iot_aligned.csv": result.C_tilde_iot}
            summary.update(d_riot=result.d_riot, d_iot=result.d_iot)

    os.makedirs(args.out, exist_ok=True)
    for name, entries in matrices.items():
        mio.write_matrix(os.path.join(args.out, name), entries)
    _write_json(os.path.join(args.out, "summary.json"), summary)
    _write_metadata(args.out, f"simulate --figure {args.figure}", scfg.seed, cfg, started)
    return EXIT_OK


def _cmd_eval(args):
    checked("--lambda", args.lam, 0, strict=True)
    if (args.cost_true is None) != (args.cost_pred is None):
        raise ValidationError("--cost-true and --cost-pred must be given together")
    pred = CouplingMatrix(_read("--pred", args.pred))
    test = CouplingMatrix(_read("--test", args.test))
    report = eval_matching(pred, test)

    if args.cost_true is not None:
        c_true = _read("--cost-true", args.cost_true, test.shape)
        c_pred = _read("--cost-pred", args.cost_pred, test.shape)
        report["cost_shift_distance"] = cost_shift_distance(c_pred, c_true)
        checks = {}
        if np.all(pred.entries > 0) and np.all(test.entries > 0):
            checks["cost_error_bound"] = cost_error_bound_check(
                c_true, c_pred, test, pred, args.lam)
        checks["prediction_error_bound"] = prediction_error_bound_check(
            c_true, c_pred, test.entries.sum(axis=1), test.entries.sum(axis=0), args.lam)
        for key, check in checks.items():
            report[key] = {"bound": check.bound_value, "observed": check.observed_value,
                           "satisfied": check.satisfied}

    _write_json(args.out, report)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the input-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"error: {message}\n")


@functools.cache
def build_parser():
    """The CLI's parser, built on first use and then shared by every call."""
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

    p_pred = sub.add_parser("predict", help="predict a matching for new profiles")
    p_pred.add_argument("--interaction", required=True, help="learned A CSV")
    p_pred.add_argument("--users", required=True)
    p_pred.add_argument("--items", required=True)
    p_pred.add_argument("--mu", required=True, help="row-marginal CSV (single row)")
    p_pred.add_argument("--nu", required=True, help="column-marginal CSV (single row)")
    p_pred.add_argument("--config", help="JSON config (kernel; hyper lambda, sinkhorn_tol "
                                         "and sinkhorn_max_iters)")
    p_pred.add_argument("--out", required=True, help="output CSV path")

    p_sim = sub.add_parser("simulate", help="run a synthetic experiment")
    p_sim.add_argument("--figure", type=int, required=True, choices=(2, 3, 4),
                       help="2: robustness sweep, 3: single-instance comparison, "
                            "4: cost recovery")
    p_sim.add_argument("--config", help="JSON config file")
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--workers", type=int, default=1,
                       help="parallel sweep cells (default: 1)")
    p_sim.add_argument("--out", required=True, help="output directory")

    p_eval = sub.add_parser("eval", help="compare predicted and reference matchings")
    p_eval.add_argument("--pred", required=True)
    p_eval.add_argument("--test", required=True)
    p_eval.add_argument("--cost-true", dest="cost_true")
    p_eval.add_argument("--cost-pred", dest="cost_pred")
    p_eval.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p_eval.add_argument("--out", help="write the report here instead of stdout")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    # Looked up on each call, so a replaced command function is the one run.
    command = {"fit": _cmd_fit, "predict": _cmd_predict, "simulate": _cmd_simulate,
               "eval": _cmd_eval}[args.command]
    try:
        return command(args)
    except (ValidationError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OtmatchError as exc:
        diagnostic = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(diagnostic, sort_keys=True), file=sys.stderr)
        return EXIT_SOLVER
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
