"""Unit tests for the Cluster orchestration layer."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro._util import polylog
from repro.kmachine.cluster import Cluster
from repro.kmachine.message import Message


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
        out = c.empty_outboxes()
        out[0].append(Message(src=0, dst=1, kind="x", bits=16))
        c.exchange(out)
        assert c.rounds == 2

    def test_empty_outboxes_fresh_lists(self):
        c = Cluster(k=3, bandwidth=8)
        a = c.empty_outboxes()
        a[0].append("sentinel")
        b = c.empty_outboxes()
        assert b[0] == []

    def test_broadcast_reaches_everyone_else(self):
        c = Cluster(k=5, bandwidth=64, seed=0)
        inboxes = c.broadcast(2, kind="hello", payload=7, bits=4)
        for j in range(5):
            if j == 2:
                assert inboxes[j] == []
            else:
                assert len(inboxes[j]) == 1 and inboxes[j][0].payload == 7

    def test_broadcast_costs_one_round_when_it_fits(self):
        c = Cluster(k=5, bandwidth=64, seed=0)
        c.broadcast(0, kind="b", payload=None, bits=4)
        assert c.rounds == 1

    def test_broadcast_rejects_bad_source(self):
        c = Cluster(k=3, bandwidth=8)
        with pytest.raises(ModelError):
            c.broadcast(3, kind="b", payload=None, bits=4)

    def test_account_phase_passthrough(self):
        c = Cluster(k=3, bandwidth=8)
        bits = np.zeros((3, 3), dtype=np.int64)
        msgs = np.zeros((3, 3), dtype=np.int64)
        bits[0, 1] = 9
        msgs[0, 1] = 1
        assert c.account_phase(bits, msgs) == 2

    def test_reset_metrics(self):
        c = Cluster(k=3, bandwidth=8, seed=0)
        c.broadcast(0, kind="b", payload=None, bits=4)
        c.reset_metrics()
        assert c.rounds == 0


class TestRunDriver:
    @staticmethod
    def finite_driver(steps_needed):
        calls = {"n": 0}

        def step(cluster, state):
            calls["n"] += 1
            return calls["n"] < steps_needed

        return step, calls

    def test_runs_until_driver_completes(self):
        c = Cluster(k=2, bandwidth=8, seed=0)
        step, calls = self.finite_driver(3)
        c.run_driver(step)
        assert calls["n"] == 3
        assert c.last_driver_supersteps == 3

    def test_raises_when_max_steps_exhausted(self):
        c = Cluster(k=2, bandwidth=8, seed=0)
        step, _ = self.finite_driver(10)
        with pytest.raises(ModelError, match="max_steps=4"):
            c.run_driver(step, max_steps=4)
        assert c.last_driver_supersteps == 4

    def test_on_exhaust_return_gives_partial_state(self):
        c = Cluster(k=2, bandwidth=8, seed=0)
        step, calls = self.finite_driver(10)
        state = {"tag": 1}
        assert c.run_driver(step, state=state, max_steps=4, on_exhaust="return") is state
        assert calls["n"] == 4
        assert c.last_driver_supersteps == 4

    def test_completion_on_last_allowed_step_does_not_raise(self):
        c = Cluster(k=2, bandwidth=8, seed=0)
        step, _ = self.finite_driver(4)
        c.run_driver(step, max_steps=4)
        assert c.last_driver_supersteps == 4

    def test_rejects_bad_on_exhaust(self):
        c = Cluster(k=2, bandwidth=8, seed=0)
        with pytest.raises(ModelError):
            c.run_driver(lambda cl, s: False, on_exhaust="ignore")

    def test_rejects_non_callable_driver(self):
        c = Cluster(k=2, bandwidth=8, seed=0)
        with pytest.raises(ModelError):
            c.run_driver(object())

    def test_step_method_driver(self):
        c = Cluster(k=2, bandwidth=8, seed=0)

        class Driver:
            remaining = 2

            def step(self, cluster, state):
                self.remaining -= 1
                return self.remaining > 0

        c.run_driver(Driver())
        assert c.last_driver_supersteps == 2
