"""The names the benchmark's tracer patches, and every public name, resolve.

``perfbench/tracing.py`` wraps functions where their callers look them up.
A rename or a deleted name there fails only the benchmark's traced run,
so these tests read its targets and check each one here.
"""

import importlib
import importlib.util
import pathlib
import pkgutil

import pytest

import divcurl

TRACING = pathlib.Path(__file__).parents[1] / "perfbench" / "tracing.py"
MODULES = sorted(info.name for info in pkgutil.iter_modules(divcurl.__path__))


def tracing_module():
    """``perfbench/tracing.py``, loaded from its file; it defines names only."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    missing = [
        (module, attr)
        for module, attr, _ in tracing_module().MODULE_TARGETS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert not missing, missing
    solver = importlib.import_module("divcurl.solver")
    assert callable(solver.spla.splu) and callable(solver.spla.minres)
    assert callable(importlib.import_module("divcurl.assembly").GlobalSystem.reduced)


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module(f"divcurl.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, missing
