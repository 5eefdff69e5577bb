"""Tests for the Õ(n/k) per-edge-forwarding PageRank baseline."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.errors import AlgorithmError, PartitionError
from repro.kmachine.cluster import Cluster
from repro.kmachine.partition import random_vertex_partition
from oracles import cycle_graph, linf_relative_error, path_graph


def token_phases(res):
    """The per-iteration token phases of a baseline run."""
    return [p for p in res.metrics.phase_log if p.label.startswith("pagerank-baseline/tokens/")]


class TestBaselineCorrectness:
    def test_approximates_walk_series(self):
        g = repro.gnp_random_graph(100, 0.08, seed=1)
        ref = repro.pagerank_walk_series(g, eps=0.25)
        res = repro.baseline_pagerank(g, k=6, eps=0.25, seed=2, c=80)
        assert linf_relative_error(res, ref) < 0.25

    def test_handles_dangling(self):
        inst = repro.pagerank_lowerbound_graph(q=30, seed=3)
        ref = inst.analytic_pagerank(0.25)
        res = repro.baseline_pagerank(inst.graph, k=4, eps=0.25, seed=4, c=80)
        assert linf_relative_error(res, ref) < 0.3

    def test_deterministic_given_seed(self):
        g = repro.gnp_random_graph(60, 0.1, seed=5)
        a = repro.baseline_pagerank(g, k=4, seed=6, c=20)
        b = repro.baseline_pagerank(g, k=4, seed=6, c=20)
        assert np.array_equal(a.estimates, b.estimates)

    def test_same_estimator_distribution_as_algorithm1(self):
        # Means over seeds should agree: the protocols differ only in the
        # message pattern, not the walk process.
        g = repro.gnp_random_graph(50, 0.15, seed=7)
        ref = repro.pagerank_walk_series(g, eps=0.3)
        base = np.zeros(g.n)
        algo = np.zeros(g.n)
        runs = 6
        for s in range(runs):
            base += repro.baseline_pagerank(g, k=4, eps=0.3, seed=200 + s, c=30).estimates
            algo += repro.distributed_pagerank(g, k=4, eps=0.3, seed=300 + s, c=30).estimates
        assert np.abs(base / runs - ref).max() < 0.15 * ref.max() + np.abs(
            algo / runs - ref
        ).max()


class TestBaselineCost:
    def test_algorithm1_beats_baseline_on_star(self):
        # The paper's motivating example: the hub's token traffic costs
        # the baseline Θ̃(n/k) rounds per iteration.
        g = repro.star_graph(800)
        k, B = 8, 16
        base = repro.baseline_pagerank(g, k=k, seed=8, c=8, bandwidth=B)
        algo = repro.distributed_pagerank(g, k=k, seed=8, c=8, bandwidth=B)
        assert algo.token_rounds() * 3 < base.token_rounds()

    def test_algorithm1_beats_baseline_on_lb_graph(self):
        # On H, the sink w concentrates Θ(n/4) edge messages per early
        # iteration in the baseline.
        inst = repro.pagerank_lowerbound_graph(q=400, seed=9)
        k, B = 8, 16
        base = repro.baseline_pagerank(inst.graph, k=k, seed=10, c=8, bandwidth=B)
        algo = repro.distributed_pagerank(inst.graph, k=k, seed=10, c=8, bandwidth=B)
        assert algo.token_rounds() < base.token_rounds()

    def test_baseline_rounds_scale_inverse_k(self):
        g = repro.star_graph(600)
        B = 16
        r4 = repro.baseline_pagerank(g, k=4, seed=11, c=8, bandwidth=B).token_rounds()
        r16 = repro.baseline_pagerank(g, k=16, seed=11, c=8, bandwidth=B).token_rounds()
        # Θ(n/k): factor ~4, clearly below quadratic improvement.
        assert 2 < r4 / r16 < 10

    def test_algorithm1_beats_baseline_on_star_at_large_k(self):
        # The separation factor is ~k/log n, so it shows clearly once
        # k >> log n and the leaves are light (one token each, c=1).
        g = repro.star_graph(4800)
        k, B = 64, 16
        p = random_vertex_partition(g.n, k, seed=16)
        base = repro.baseline_pagerank(g, k=k, seed=15, c=1, bandwidth=B, partition=p)
        algo = repro.distributed_pagerank(g, k=k, seed=15, c=1, bandwidth=B, partition=p)
        assert algo.token_rounds() * 3 < base.token_rounds()

    def test_metrics_consistent(self):
        g = repro.gnp_random_graph(60, 0.1, seed=12)
        res = repro.baseline_pagerank(g, k=4, seed=13, c=10)
        res.metrics.check_conservation()


class TestBaselineValidation:
    @pytest.mark.parametrize("eps", [0.0, 1.0])
    def test_rejects_eps_outside_the_open_unit_interval(self, eps):
        with pytest.raises(AlgorithmError, match="eps"):
            repro.baseline_pagerank(cycle_graph(10), k=4, eps=eps)

    def test_rejects_the_empty_graph(self):
        with pytest.raises(AlgorithmError, match="empty graph"):
            repro.baseline_pagerank(repro.Graph(n=0, edges=[]), k=4)

    def test_rejects_a_cluster_of_another_k(self):
        g = cycle_graph(10)
        with pytest.raises(AlgorithmError, match="cluster has k=5"):
            repro.baseline_pagerank(g, k=4, cluster=Cluster(k=5, n=g.n, seed=0))

    def test_rejects_a_partition_of_another_graph(self):
        p = random_vertex_partition(11, 4, seed=18)
        with pytest.raises(PartitionError):
            repro.baseline_pagerank(cycle_graph(10), k=4, partition=p)

    def test_rejects_a_partition_of_another_k(self):
        p = random_vertex_partition(10, 5, seed=19)
        with pytest.raises(PartitionError):
            repro.baseline_pagerank(cycle_graph(10), k=4, partition=p)


class TestBaselineTermination:
    def test_iteration_count_logarithmic(self):
        # O(log n / eps) iterations, one token phase each: far below n.
        g = repro.gnp_random_graph(200, 0.05, seed=3)
        res = repro.baseline_pagerank(g, k=4, eps=0.3, seed=4, c=8)
        assert res.iterations < 120
        assert len(token_phases(res)) == res.iterations

    def test_loop_stops_once_every_token_has_died(self):
        g = cycle_graph(40)
        res = repro.baseline_pagerank(g, k=4, eps=0.3, seed=17, c=10, max_iterations=500)
        assert res.iterations < 500
        assert res.iteration_stats[-1].live_tokens == 0
        assert all(s.live_tokens > 0 for s in res.iteration_stats[:-1])

    def test_exhausted_iteration_budget_returns_partial_state(self):
        g = cycle_graph(40)
        res = repro.baseline_pagerank(g, k=4, eps=0.3, seed=17, c=10, max_iterations=2)
        assert res.iterations == 2
        assert res.iteration_stats[-1].live_tokens > 0
        assert np.all(res.estimates > 0)

    def test_different_seeds_differ(self):
        g = repro.gnp_random_graph(60, 0.1, seed=5)
        a = repro.baseline_pagerank(g, k=4, seed=6, c=20)
        b = repro.baseline_pagerank(g, k=4, seed=7, c=20)
        assert not np.array_equal(a.estimates, b.estimates)


class TestBaselineCongestGranularity:
    """The baseline moves walk counts at CONGEST granularity: per edge direction."""

    def test_token_phases_send_at_most_one_message_per_edge_direction(self):
        g = repro.gnp_random_graph(60, 0.15, seed=5)
        res = repro.baseline_pagerank(g, k=4, eps=0.3, seed=6, c=8)
        phases = token_phases(res)
        assert len(phases) == res.iterations
        assert all(p.messages <= 2 * g.m for p in phases)

    def test_edgeless_graph_sends_no_token_messages(self):
        # Every vertex is dangling: tokens stop where they start.
        g = repro.Graph(n=12, edges=[])
        res = repro.baseline_pagerank(g, k=4, eps=0.3, seed=1, c=4)
        assert all(p.messages == 0 and p.rounds == 0 for p in token_phases(res))
        assert np.allclose(res.estimates, 0.3 / g.n)

    def test_directed_graph_moves_tokens_along_its_orientation(self):
        # Vertex 0 of a directed path has no in-edge, so it never receives
        # a token and keeps exactly its own t0 visits.
        g = path_graph(30, directed=True)
        res = repro.baseline_pagerank(g, k=4, eps=0.3, seed=2, c=4)
        assert res.estimates[0] == pytest.approx(0.3 / g.n)
        assert np.all(res.estimates[1:] > res.estimates[0])

    def test_unbounded_bandwidth_charges_one_round_per_remote_token_phase(self):
        # With B large enough for any link load, a token phase costs one
        # round when some count crosses machines and none when all stay local.
        g = repro.gnp_random_graph(80, 0.1, seed=12)
        res = repro.baseline_pagerank(g, k=8, seed=13, c=8, bandwidth=10**9)
        phases = token_phases(res)
        assert any(p.messages for p in phases)
        assert all(p.rounds == (1 if p.messages else 0) for p in phases)

    @given(st.integers(10, 40), st.integers(2, 8), st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_cycles_conserve_and_respect_edge_granularity(self, n, k, seed):
        g = cycle_graph(n)
        res = repro.baseline_pagerank(g, k=k, seed=seed, c=4)
        res.metrics.check_conservation()
        assert all(p.messages <= 2 * g.m for p in token_phases(res))
