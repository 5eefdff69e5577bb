"""Integration tests: whole-pipeline flows crossing module boundaries."""

import numpy as np

import repro
from repro.core.lowerbounds import (
    pagerank_round_lower_bound,
    sorting_round_lower_bound,
    triangle_round_lower_bound,
)
from repro.kmachine import LinkNetwork, random_edge_partition, rep_to_rvp


class TestTheorem2Pipeline:
    """LB graph -> RVP -> Algorithm 1 -> b-reconstruction -> LB check."""

    def test_full_pagerank_lower_bound_story(self):
        q, k, B, eps = 120, 8, 16, 0.25
        inst = repro.pagerank_lowerbound_graph(q=q, seed=0)
        res = repro.distributed_pagerank(
            inst.graph, k=k, eps=eps, seed=1, c=100, bandwidth=B
        )
        # Upper bound run is correct enough to recover Z = {(b_i, v_i)}.
        recovered = inst.infer_b(res.estimates, eps)
        assert (recovered == inst.b).mean() > 0.97
        # And its cost respects the Theorem-2 lower bound.
        assert res.rounds >= pagerank_round_lower_bound(inst.n, k, B)

    def test_sandwich_narrows_with_constants(self):
        # measured rounds and LB within a polylog-ish factor on H.
        inst = repro.pagerank_lowerbound_graph(q=300, seed=2)
        k, B = 8, 16
        res = repro.distributed_pagerank(inst.graph, k=k, seed=3, c=4, bandwidth=B)
        lb = pagerank_round_lower_bound(inst.n, k, B)
        assert lb <= res.rounds <= 5000 * lb


class TestTheorem3Pipeline:
    """G(n,1/2) -> Theorem-5 run -> Lemma-9/11 checks -> LB check."""

    def test_full_triangle_lower_bound_story(self):
        n, k, B = 72, 27, 16
        g = repro.gnp_random_graph(n, 0.5, seed=4)
        res = repro.enumerate_triangles_distributed(g, k=k, seed=5, bandwidth=B)
        t = res.count
        # Lemma 9(A): some machine outputs >= t/k triangles.
        assert res.per_machine_output.max() >= t / k
        # Theorem 3 with the measured t.
        assert res.rounds >= triangle_round_lower_bound(n, k, B, t=t)

    def test_all_four_triangle_algorithms_agree(self):
        g = repro.gnp_random_graph(48, 0.4, seed=6)
        expected = repro.enumerate_triangles(g)
        for fn, kwargs in [
            (repro.enumerate_triangles_distributed, {"k": 27}),
            (repro.enumerate_triangles_conversion, {"k": 8}),
            (repro.enumerate_triangles_broadcast, {"k": 8}),
        ]:
            res = fn(g, seed=7, **kwargs)
            assert np.array_equal(res.triangles, expected), fn.__name__
        cc = repro.enumerate_triangles_congested_clique(g, seed=7)
        assert np.array_equal(cc.triangles, expected)


class TestRepPipeline:
    """REP input -> conversion -> Theorem-5 run on the converted RVP."""

    def test_rep_input_end_to_end(self):
        g = repro.gnp_random_graph(60, 0.3, seed=8)
        k = 8
        net = LinkNetwork(k, bandwidth=32)
        ep = random_edge_partition(g.m, k, seed=9)
        vp, _ = rep_to_rvp(g.edges, g.n, ep, net, seed=10)
        res = repro.enumerate_triangles_distributed(g, k=k, seed=11, partition=vp)
        assert np.array_equal(res.triangles, repro.enumerate_triangles(g))


class TestSortingPipeline:
    def test_sorting_sandwich(self):
        n, k, B = 30_000, 8, 64
        values = np.random.default_rng(12).random(n)
        res = repro.distributed_sort(values, k=k, seed=13, bandwidth=B)
        assert np.all(np.diff(res.concatenated()) >= 0)
        lb = sorting_round_lower_bound(n, k, B)
        assert lb <= res.rounds <= 1000 * lb


class TestCrossAlgorithmMetrics:
    def test_shared_cluster_accumulates(self):
        # Two algorithms on one cluster: metrics merge coherently.
        g = repro.gnp_random_graph(50, 0.2, seed=14)
        from repro.kmachine.cluster import Cluster

        cluster = Cluster(k=8, n=g.n, seed=15)
        repro.distributed_pagerank(g, k=8, cluster=cluster, c=5)
        rounds_after_pr = cluster.metrics.rounds
        r2 = repro.enumerate_triangles_distributed(g, k=8, cluster=cluster)
        assert cluster.metrics.rounds > rounds_after_pr
        assert r2.metrics is cluster.metrics

    def test_quickstart_example_flow(self):
        # The README quickstart must keep working.
        g = repro.gnp_random_graph(300, 0.02, seed=1)
        result = repro.distributed_pagerank(g, k=8, seed=1, c=10)
        assert result.rounds > 0
        assert result.estimates.shape == (300,)
        tri = repro.enumerate_triangles_distributed(g, k=8, seed=1)
        assert tri.count == repro.count_triangles(g)
