import importlib
import sys
from pathlib import Path

import otmatch

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
