import functools
import importlib
import os
import sys
from pathlib import Path

import numpy as np
import pytest

import otmatch
from otmatch import (HyperParams, KernelSpec, ValidationError, align_shift,
                     cost_error_bound_check, iot_fit, joint_fit, kernel_cost, kl_divergence,
                     project_metric_simplex, riot_fit)
from otmatch.io import write_matrix

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_public_name_resolves():
    for name in otmatch.__all__:
        assert getattr(otmatch, name) is not None, name
    assert len(set(otmatch.__all__)) == len(otmatch.__all__)


def test_star_import():
    namespace = {}
    exec("from otmatch import *", namespace)
    assert set(otmatch.__all__) <= set(namespace)


def test_every_traced_binding_resolves():
    # perfbench/tracing.py rebinds these names to time each layer; a renamed
    # helper would turn its metrics into null.
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    for module, name, _, _ in tracing.BINDINGS:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
    io_module = getattr(importlib.import_module(tracing.IO_MODULE[0]), tracing.IO_MODULE[1])
    for name, _ in tracing.IO_FUNCTIONS:
        assert hasattr(io_module, name), f"otmatch.io.{name}"


def _malformed_calls():
    """Calls whose inputs break a fact the called layer checks, by id, each
    with the start of its message."""
    rng = np.random.default_rng(0)
    pi = rng.random((5, 6))
    pi /= pi.sum()
    U, V, A = rng.normal(size=(3, 5)), rng.normal(size=(2, 6)), np.zeros((3, 2))
    C_u, C_v = 1.0 - np.eye(5), 1.0 - np.eye(6)
    kern, params = KernelSpec("linear"), HyperParams(outer_iters=2)
    U4 = U[:, :4]
    # Unit mass and positive marginals, but one entry at -0.01.
    negative = pi.copy()
    negative[0, :2] += (-0.01 - pi[0, 0], 0.01 + pi[0, 0])
    fits = {"iot_fit": lambda p: iot_fit(p, U, V, kern, params),
            "riot_fit": lambda p: riot_fit(p, U, V, kern, C_u, C_v, params),
            "joint_fit": lambda p: joint_fit(p, U, V, kern, params)}
    not_couplings = {
        f"{name}-{case}": (functools.partial(fit, p), message)
        for name, fit in fits.items()
        for case, p, message in (("negative-coupling", negative, "coupling has negative entries"),
                                 ("coupling-of-mass-2", 2.0 * pi, "coupling sums to"))}
    return {
        **not_couplings,
        "riot_fit-profile-count": (
            lambda: riot_fit(pi, U4, V, kern, C_u, C_v, params), "profile counts"),
        "joint_fit-profile-count": (
            lambda: joint_fit(pi, U4, V, kern, params), "profile counts"),
        "riot_fit-1d-side-cost": (
            lambda: riot_fit(pi, U, V, kern, np.ones(5), C_v, params), "cost must be 2-d"),
        "iot_fit-1d-profiles": (
            lambda: iot_fit(pi, U[0], V, kern, params), "matching and profiles must be 2-d"),
        "iot_fit-1d-matching": (
            lambda: iot_fit(pi.ravel(), U, V, kern, params), "matching and profiles must be 2-d"),
        "align_shift-shapes": (
            lambda: align_shift(np.ones((5, 5)), np.ones((6, 6))), "cost matrices must be 2-d"),
        "cost_error_bound-costs-vs-plans": (
            lambda: cost_error_bound_check(np.ones((5, 5)), np.ones((5, 5)), pi, pi, 1.0),
            "costs and couplings must be 2-d"),
        "kernel_cost-1d-profiles": (
            lambda: kernel_cost(U[:, 0], V, A, kern), "features and interaction must be 2-d"),
        "project-non-square": (
            lambda: project_metric_simplex(np.ones((3, 4))), "projection input must be square"),
        "project-non-finite": (
            lambda: project_metric_simplex(np.where(np.eye(3) > 0, 0.0, np.inf)),
            "projection input has non-finite entries"),
        "project-2x2": (
            lambda: project_metric_simplex(1.0 - np.eye(2)), "projection needs dimension >= 3"),
        "write_matrix-3d": (
            lambda: write_matrix(os.devnull, np.zeros((2, 2, 2))), "expected a matrix"),
        "kl_divergence-shapes": (
            lambda: kl_divergence(pi, pi.T), "shape mismatch"),
        "cost_error_bound-zero-plan-entry": (
            lambda: cost_error_bound_check(np.ones((5, 6)), np.ones((5, 6)),
                                           np.where(pi == pi.max(), 0.0, pi), pi, 1.0),
            "couplings must have strictly positive entries"),
    }


@pytest.mark.parametrize("case", list(_malformed_calls()))
def test_malformed_input_is_a_validation_error(case):
    call, message = _malformed_calls()[case]
    with pytest.raises(ValidationError, match=message):
        call()


@pytest.mark.parametrize("case", [case for case in _malformed_calls() if "coupling" in case])
def test_matching_that_is_not_a_coupling_is_rejected_before_any_solve(monkeypatch, case):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    for module in (otmatch.iot, otmatch.riot):
        monkeypatch.setattr(module, "descend", no_solve)
    monkeypatch.setattr(otmatch.joint, "project_metric_simplex", no_solve)
    call, message = _malformed_calls()[case]
    with pytest.raises(ValidationError, match=message):
        call()
