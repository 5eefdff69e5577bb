"""Unit tests for the Figure-1 PageRank lower-bound graph."""

import numpy as np
import pytest

import repro
from repro.errors import GraphError
from repro.graphs.lowerbound import pagerank_lowerbound_graph
from repro.kmachine.partition import random_vertex_partition
from oracles import has_edge, out_neighbors


class TestConstruction:
    def test_sizes_match_figure1(self):
        inst = pagerank_lowerbound_graph(q=10, seed=0)
        assert inst.n == 41
        assert inst.graph.m == 40  # m = n - 1
        assert inst.q == 10

    def test_groups_partition_vertex_set(self):
        inst = pagerank_lowerbound_graph(q=8, seed=1)
        ids = np.concatenate([inst.x_ids, inst.u_ids, inst.t_ids, inst.v_ids, [inst.w_id]])
        assert np.unique(ids).size == inst.n

    def test_chain_edges_present(self):
        inst = pagerank_lowerbound_graph(q=6, seed=2)
        g = inst.graph
        for i in range(6):
            assert has_edge(g, inst.u_ids[i], inst.t_ids[i])
            assert has_edge(g, inst.t_ids[i], inst.v_ids[i])
            assert has_edge(g, inst.v_ids[i], inst.w_id)

    def test_b_controls_first_edge_direction(self):
        inst = pagerank_lowerbound_graph(q=6, seed=3)
        g = inst.graph
        for i in range(6):
            x, u = inst.x_ids[i], inst.u_ids[i]
            if inst.b[i] == 0:
                assert has_edge(g, u, x) and not has_edge(g, x, u)
            else:
                assert has_edge(g, x, u) and not has_edge(g, u, x)

    def test_explicit_b_vector(self):
        b = np.array([0, 1, 0, 1, 1])
        inst = pagerank_lowerbound_graph(q=5, seed=4, b=b)
        assert np.array_equal(inst.b, b)

    def test_rejects_bad_b(self):
        with pytest.raises(GraphError):
            pagerank_lowerbound_graph(q=3, b=np.array([0, 2, 1]))

    def test_sink_has_no_out_edges(self):
        inst = pagerank_lowerbound_graph(q=5, seed=5)
        assert out_neighbors(inst.graph, inst.w_id).size == 0

    def test_randomized_ids_differ_from_structural(self):
        inst = pagerank_lowerbound_graph(q=50, seed=6, randomize_ids=True)
        assert not np.array_equal(inst.x_ids, np.arange(50))

    def test_structural_ids_when_not_randomized(self):
        inst = pagerank_lowerbound_graph(q=5, seed=7, randomize_ids=False)
        assert inst.x_ids.tolist() == [0, 1, 2, 3, 4]
        assert inst.w_id == 20


class TestAnalyticPageRank:
    @pytest.mark.parametrize("eps", [0.1, 0.2, 0.5])
    def test_matches_walk_series_reference_exactly(self, eps):
        inst = pagerank_lowerbound_graph(q=20, seed=8)
        analytic = inst.analytic_pagerank(eps)
        reference = repro.pagerank_walk_series(inst.graph, eps=eps)
        assert np.allclose(analytic, reference, atol=1e-12)

    def test_lemma4_values_match_paper_formulas(self):
        inst = pagerank_lowerbound_graph(q=10, seed=9)
        eps = 0.2
        v0, v1 = inst.lemma4_values(eps)
        n = inst.n
        assert v0 == pytest.approx(eps * (2.5 - 2 * eps + eps**2 / 2) / n)
        # Paper states v1 >= eps(3 - 3eps + eps^2)/n.
        assert v1 >= eps * (3 - 3 * eps + eps**2) / n

    def test_v_vertices_take_lemma4_values(self):
        inst = pagerank_lowerbound_graph(q=15, seed=10)
        eps = 0.3
        pr = inst.analytic_pagerank(eps)
        v0, v1 = inst.lemma4_values(eps)
        for i in range(inst.q):
            expected = v1 if inst.b[i] else v0
            assert pr[inst.v_ids[i]] == pytest.approx(expected)

    def test_constant_factor_separation(self):
        inst = pagerank_lowerbound_graph(q=5, seed=11)
        for eps in (0.05, 0.3, 0.7, 0.95):
            v0, v1 = inst.lemma4_values(eps)
            assert v1 > v0

    def test_infer_b_from_exact_values(self):
        inst = pagerank_lowerbound_graph(q=30, seed=12)
        pr = inst.analytic_pagerank(0.2)
        assert np.array_equal(inst.infer_b(pr, 0.2), inst.b)

    def test_infer_b_robust_to_small_noise(self):
        inst = pagerank_lowerbound_graph(q=30, seed=13)
        rng = np.random.default_rng(0)
        pr = inst.analytic_pagerank(0.2)
        noisy = pr * (1 + 0.02 * rng.standard_normal(pr.size))
        assert np.array_equal(inst.infer_b(noisy, 0.2), inst.b)

    def test_rejects_bad_eps(self):
        inst = pagerank_lowerbound_graph(q=3, seed=14)
        with pytest.raises(GraphError):
            inst.analytic_pagerank(1.5)


class TestLemma5Counting:
    def test_counts_nonnegative_and_bounded_by_q(self):
        inst = pagerank_lowerbound_graph(q=40, seed=15)
        p = random_vertex_partition(inst.n, 4, seed=0)
        counts = inst.weakly_connected_paths_known(p)
        assert counts.shape == (4,)
        assert np.all(counts >= 0)
        assert counts.sum() <= 2 * inst.q  # each chain discoverable via <= 2 pairs

    def test_single_machine_knows_everything(self):
        inst = pagerank_lowerbound_graph(q=10, seed=16)
        # k=2 partition where machine 0 gets all vertices.
        from repro.kmachine.partition import VertexPartition

        p = VertexPartition(home=np.zeros(inst.n, dtype=np.int64), k=2)
        counts = inst.weakly_connected_paths_known(p)
        assert counts[0] == inst.q
        assert counts[1] == 0

    def test_counting_logic_against_bruteforce(self):
        inst = pagerank_lowerbound_graph(q=30, seed=17)
        p = random_vertex_partition(inst.n, 5, seed=1)
        counts = inst.weakly_connected_paths_known(p)
        brute = np.zeros(5, dtype=np.int64)
        for i in range(inst.q):
            hx, hu, ht, hv = (
                p.home[inst.x_ids[i]],
                p.home[inst.u_ids[i]],
                p.home[inst.t_ids[i]],
                p.home[inst.v_ids[i]],
            )
            machines = set()
            if hx == ht:
                machines.add(int(hx))
            if hu == hv:
                machines.add(int(hu))
            for mid in machines:
                brute[mid] += 1
        assert np.array_equal(counts, brute)

    def test_rejects_mismatched_partition(self):
        inst = pagerank_lowerbound_graph(q=5, seed=18)
        p = random_vertex_partition(inst.n + 1, 3, seed=0)
        with pytest.raises(GraphError):
            inst.weakly_connected_paths_known(p)
