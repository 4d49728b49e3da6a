"""Every name a module exports in ``__all__`` must resolve: the benchmark
tracer wraps each of them, so a dangling export breaks it."""

import importlib

import pytest

MODULES = [
    "spinnet",
    "spinnet.su2",
    "spinnet.graphs",
    "spinnet.cyl",
    "spinnet.operators",
    "spinnet.cli",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
