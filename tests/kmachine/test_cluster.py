"""Unit tests for the Cluster orchestration layer."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro._util import polylog
from repro.kmachine.cluster import Cluster
from repro.kmachine.engine import MessageBatch


class TestClusterConstruction:
    def test_default_bandwidth_is_polylog(self):
        c = Cluster(k=4, n=1000)
        assert c.bandwidth == polylog(1000)

    def test_explicit_bandwidth(self):
        c = Cluster(k=4, bandwidth=7)
        assert c.bandwidth == 7

    def test_requires_bandwidth_or_n(self):
        with pytest.raises(ModelError):
            Cluster(k=4)

    def test_rejects_k_below_two(self):
        with pytest.raises(ModelError):
            Cluster(k=1, n=10)
        with pytest.raises(ModelError):
            Cluster(k=0, n=10)
        with pytest.raises(TypeError):
            Cluster(k=2.5, n=10)

    def test_per_machine_rngs_are_independent(self):
        c = Cluster(k=4, n=100, seed=5)
        draws = [rng.integers(0, 1_000_000) for rng in c.machine_rngs]
        assert len(set(int(d) for d in draws)) > 1

    def test_seeded_reproducibility(self):
        a = Cluster(k=4, n=100, seed=5)
        b = Cluster(k=4, n=100, seed=5)
        for ra, rb in zip(a.machine_rngs, b.machine_rngs):
            assert ra.integers(0, 10**9) == rb.integers(0, 10**9)
        assert a.shared_rng.integers(0, 10**9) == b.shared_rng.integers(0, 10**9)


class TestClusterOperations:
    def test_exchange_accounts_rounds(self):
        c = Cluster(k=3, bandwidth=8, seed=0)
        c.exchange_batches([MessageBatch("x", src=[0], dst=[1], bits=[16])])
        assert c.metrics.rounds == 2
        assert c.metrics.phases == 1 and c.metrics.messages == 1

    def test_broadcast_reaches_everyone_else(self):
        c = Cluster(k=5, bandwidth=64, seed=0)
        assert c.broadcast(2, bits=4, label="hello") == 1
        phase = c.metrics.phase_log[-1]
        assert (phase.label, phase.messages, phase.bits) == ("hello", 4, 16)
        sent = np.zeros(5, dtype=np.int64)
        sent[2] = 4
        received = np.ones(5, dtype=np.int64)
        received[2] = 0
        assert np.array_equal(c.metrics.sent_messages, sent)
        assert np.array_equal(c.metrics.received_messages, received)

    def test_broadcast_costs_one_round_when_it_fits(self):
        c = Cluster(k=5, bandwidth=64, seed=0)
        c.broadcast(0, bits=64)
        assert c.metrics.rounds == 1

    def test_broadcast_rounds_grow_with_the_copy_size(self):
        c = Cluster(k=3, bandwidth=8, seed=0)
        assert c.broadcast(0, bits=17) == 3  # ceil(17/8) on every link

    def test_broadcast_rejects_bad_source(self):
        c = Cluster(k=3, bandwidth=8)
        with pytest.raises(ModelError):
            c.broadcast(3, bits=4)

    def test_account_phase_passthrough(self):
        c = Cluster(k=3, bandwidth=8)
        bits = np.zeros((3, 3), dtype=np.int64)
        msgs = np.zeros((3, 3), dtype=np.int64)
        bits[0, 1] = 9
        msgs[0, 1] = 1
        assert c.account_phase(bits, msgs) == 2
