"""Unit tests for RVP / REP partitions and the REP→RVP conversion."""

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.kmachine.network import LinkNetwork
from repro.kmachine.partition import (
    EdgePartition,
    VertexPartition,
    random_edge_partition,
    random_vertex_partition,
    rep_to_rvp,
)
import repro


class TestVertexPartition:
    def test_random_partition_covers_all_vertices(self):
        p = random_vertex_partition(100, 5, seed=0)
        assert p.n == 100 and p.k == 5
        assert sum(p.machine_vertices(i).size for i in range(5)) == 100

    def test_machine_vertices_disjoint_and_sorted(self):
        p = random_vertex_partition(50, 4, seed=1)
        seen = np.concatenate([p.machine_vertices(i) for i in range(4)])
        assert np.unique(seen).size == 50
        for i in range(4):
            mv = p.machine_vertices(i)
            assert np.all(np.diff(mv) > 0)

    def test_vertices_by_machine_matches_machine_vertices(self):
        p = random_vertex_partition(80, 6, seed=2)
        parts = p.vertices_by_machine()
        for i in range(6):
            assert np.array_equal(parts[i], p.machine_vertices(i))

    def test_counts_sum_to_n(self):
        p = random_vertex_partition(123, 7, seed=3)
        assert p.counts().sum() == 123

    def test_rvp_is_balanced_whp(self):
        # Θ̃(n/k) per machine: with n=2000, k=10 the max load should be
        # well within the log-slack bound.
        p = random_vertex_partition(2000, 10, seed=4)
        assert p.is_balanced()
        assert p.balance_ratio() < 2.0

    def test_deterministic_given_seed(self):
        a = random_vertex_partition(100, 5, seed=9)
        b = random_vertex_partition(100, 5, seed=9)
        assert np.array_equal(a.home, b.home)

    def test_rejects_out_of_range_home(self):
        with pytest.raises(PartitionError):
            VertexPartition(home=np.array([0, 5]), k=3)

    def test_rejects_bad_machine_query(self):
        p = random_vertex_partition(10, 3, seed=0)
        with pytest.raises(PartitionError):
            p.machine_vertices(3)

    def test_rejects_2d_home(self):
        with pytest.raises(PartitionError):
            VertexPartition(home=np.zeros((2, 2), dtype=np.int64), k=2)


class TestEdgePartition:
    def test_random_edge_partition(self):
        p = random_edge_partition(40, 4, seed=0)
        assert p.m == 40
        assert p.counts().sum() == 40

    def test_machine_edges(self):
        p = EdgePartition(home=np.array([0, 1, 0, 2]), k=3)
        assert p.machine_edges(0).tolist() == [0, 2]
        assert p.machine_edges(1).tolist() == [1]

    def test_zero_edges_allowed(self):
        p = random_edge_partition(0, 3, seed=0)
        assert p.m == 0

    def test_rejects_negative_m(self):
        with pytest.raises(PartitionError):
            random_edge_partition(-1, 3)


class TestRepToRvp:
    def test_conversion_produces_valid_partition(self, small_gnp):
        g = small_gnp
        net = LinkNetwork(4, bandwidth=64)
        ep = random_edge_partition(g.m, 4, seed=1)
        vp, metrics = rep_to_rvp(g.edges, g.n, ep, net, seed=2)
        assert vp.n == g.n and vp.k == 4
        assert metrics.rounds >= 1

    def test_conversion_message_volume_is_2m_minus_local(self, small_gnp):
        g = small_gnp
        net = LinkNetwork(4, bandwidth=64)
        ep = random_edge_partition(g.m, 4, seed=1)
        _, metrics = rep_to_rvp(g.edges, g.n, ep, net, seed=2)
        assert metrics.messages + metrics.local_messages == 2 * g.m

    def test_conversion_rounds_scale_inverse_k_squared(self):
        # Doubling k should cut conversion rounds by roughly 4x.
        g = repro.gnp_random_graph(400, 0.2, seed=5)
        rounds = {}
        for k in (4, 8, 16):
            net = LinkNetwork(k, bandwidth=32)
            ep = random_edge_partition(g.m, k, seed=1)
            _, metrics = rep_to_rvp(g.edges, g.n, ep, net, seed=2)
            rounds[k] = metrics.rounds
        assert rounds[4] > rounds[8] > rounds[16]
        assert rounds[4] / rounds[16] > 6  # ideal 16, allow slack

    def test_respects_supplied_target_partition(self, small_gnp):
        g = small_gnp
        net = LinkNetwork(4, bandwidth=64)
        ep = random_edge_partition(g.m, 4, seed=1)
        target = random_vertex_partition(g.n, 4, seed=7)
        vp, _ = rep_to_rvp(g.edges, g.n, ep, net, vertex_partition=target)
        assert vp is target

    def test_rejects_mismatched_k(self, small_gnp):
        g = small_gnp
        net = LinkNetwork(4, bandwidth=64)
        ep = random_edge_partition(g.m, 4, seed=1)
        target = random_vertex_partition(g.n, 5, seed=7)
        with pytest.raises(PartitionError):
            rep_to_rvp(g.edges, g.n, ep, net, vertex_partition=target)

    def test_rejects_wrong_edge_count(self, small_gnp):
        g = small_gnp
        net = LinkNetwork(4, bandwidth=64)
        ep = random_edge_partition(g.m + 1, 4, seed=1)
        with pytest.raises(PartitionError):
            rep_to_rvp(g.edges, g.n, ep, net)
