"""The benchmark's --trace mode patches desopt names through module and class
__dict__ entries; every name it lists must still exist where it looks."""
from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_targets():
    spec = importlib.util.spec_from_file_location("desopt_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, path, span", _load_targets())
def test_trace_target_resolves_through_dict(module_name, path, span):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert attr in owner.__dict__, f"{module_name}.{path} (span {span}) is gone"
    assert callable(owner.__dict__[attr])
