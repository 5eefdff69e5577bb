"""Smoke tests for the benchmark scripts.

Every ``benchmarks/bench_*.py`` module must import cleanly and expose a
``smoke()`` function that runs its smallest configuration in well under a
second.  This keeps bench scripts from rotting silently when the library
API they exercise changes: an API drift fails here, in the tier-1 suite,
instead of weeks later in a manual bench run.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
BENCH_MODULES = sorted(p.name for p in BENCH_DIR.glob("bench_*.py"))


def _load(name: str):
    path = BENCH_DIR / name
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    spec = importlib.util.spec_from_file_location(name[:-3], path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_modules_discovered():
    assert len(BENCH_MODULES) >= 14


@pytest.mark.parametrize("name", BENCH_MODULES)
def test_bench_smoke(name):
    module = _load(name)
    assert hasattr(module, "smoke") and callable(module.smoke), (
        f"{name} must expose a smoke() function running its smallest configuration"
    )
    module.smoke()
