"""End-to-end runs at the extremes of the model's parameters.

Communication-only runs (local enumeration skipped), adversarial
partitions that put every vertex on one machine, and link bandwidths of
one bit and of 10^9 bits per round.
"""

import numpy as np

import repro


class TestSkipLocalEnumeration:
    def test_metrics_match_full_run(self):
        g = repro.gnp_random_graph(60, 0.3, seed=6)
        k = 27
        full = repro.enumerate_triangles_distributed(g, k=k, seed=7)
        comm = repro.enumerate_triangles_distributed(
            g, k=k, seed=7, skip_local_enumeration=True
        )
        # Local computation is free: identical communication metrics.
        assert comm.rounds == full.rounds
        assert comm.metrics.messages == full.metrics.messages
        assert comm.metrics.bits == full.metrics.bits
        assert comm.count == 0
        assert full.count == repro.count_triangles(g)


class TestAdversarialPartitions:
    def test_everything_on_one_machine_is_cheap(self):
        # All vertices co-located: the run is (almost) communication-free.
        from repro.kmachine.partition import VertexPartition

        g = repro.gnp_random_graph(50, 0.2, seed=8)
        p = VertexPartition(home=np.zeros(g.n, dtype=np.int64), k=4)
        res = repro.enumerate_triangles_distributed(g, k=4, seed=9, partition=p)
        assert res.count == repro.count_triangles(g)
        # Only the proxy scatter leaves machine 0.
        spread = repro.enumerate_triangles_distributed(g, k=4, seed=9)
        assert res.metrics.bits <= spread.metrics.bits * 2

    def test_pagerank_single_machine_partition(self):
        from repro.kmachine.partition import VertexPartition

        g = repro.cycle_graph(30)
        p = VertexPartition(home=np.zeros(30, dtype=np.int64), k=3)
        res = repro.distributed_pagerank(g, k=3, seed=10, c=10, partition=p)
        ref = repro.pagerank_walk_series(g, eps=res.eps)
        assert res.l1_error(ref) < 0.2
        # All token traffic is local.
        token_msgs = sum(
            p_.messages for p_ in res.metrics.phase_log if "tokens" in p_.label
        )
        assert token_msgs == 0


class TestBandwidthExtremes:
    def test_unit_bandwidth_still_correct(self):
        g = repro.gnp_random_graph(30, 0.2, seed=11)
        res = repro.enumerate_triangles_distributed(g, k=8, seed=12, bandwidth=1)
        assert res.count == repro.count_triangles(g)
        # One bit per round per link: rounds equal the max link bits summed.
        assert res.rounds == sum(p.max_link_bits for p in res.metrics.phase_log)

    def test_huge_bandwidth_floors_at_phases(self):
        g = repro.gnp_random_graph(30, 0.2, seed=13)
        res = repro.enumerate_triangles_distributed(g, k=8, seed=14, bandwidth=10**9)
        nonempty = sum(1 for p in res.metrics.phase_log if p.bits > 0)
        assert res.rounds == nonempty
