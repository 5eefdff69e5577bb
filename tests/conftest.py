"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from message_engine import MessageEngine
from repro.kmachine.engine import ENGINES

# The per-object oracle engine lives under tests/; registering it here is
# what lets every suite keep saying engine="message".
ENGINES[MessageEngine.name] = MessageEngine


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_gnp():
    """A fixed sparse G(60, 0.1)."""
    return repro.gnp_random_graph(60, 0.1, seed=7)


@pytest.fixture
def dense_gnp():
    """A fixed dense G(48, 0.5) — the triangle-lower-bound regime."""
    return repro.gnp_random_graph(48, 0.5, seed=11)


@pytest.fixture
def star():
    return repro.star_graph(64)


@pytest.fixture
def lb_instance():
    """A Figure-1 instance with q = 25 chains (n = 101)."""
    return repro.pagerank_lowerbound_graph(q=25, seed=3)


@pytest.fixture
def reads(monkeypatch) -> list:
    """The npz paths the graph cache reads, in order."""
    import repro.workloads.io as io_mod

    calls = []
    real = io_mod.read_npz

    def counted(path):
        calls.append(path)
        return real(path)

    monkeypatch.setattr(io_mod, "read_npz", counted)
    return calls
