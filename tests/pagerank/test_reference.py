"""Unit tests for the sequential PageRank references."""

import numpy as np
import pytest

import networkx as nx

import repro
from repro.core.pagerank.reference import pagerank_walk_series, push_step
from repro.errors import AlgorithmError
from repro.graphs.graph import Graph
from oracles import cycle_graph, out_neighbors, pagerank_teleport, to_networkx


class TestPushStep:
    def test_uniform_split_over_out_neighbors(self):
        g = Graph(n=3, edges=[(0, 1), (0, 2)], directed=True)
        y = push_step(g, np.array([1.0, 0.0, 0.0]))
        assert y.tolist() == [0.0, 0.5, 0.5]

    def test_dangling_mass_absorbed(self):
        g = Graph(n=2, edges=[(0, 1)], directed=True)
        y = push_step(g, np.array([0.0, 1.0]))
        assert y.sum() == 0.0

    def test_mass_conserved_without_dangling(self):
        g = cycle_graph(6, directed=True)
        x = np.random.default_rng(0).random(6)
        assert push_step(g, x).sum() == pytest.approx(x.sum())


class TestWalkSeries:
    def test_sums_to_one_without_dangling(self):
        g = cycle_graph(8, directed=True)
        pi = pagerank_walk_series(g, eps=0.2)
        assert pi.sum() == pytest.approx(1.0)

    def test_below_one_with_dangling(self):
        g = Graph(n=3, edges=[(0, 1), (1, 2)], directed=True)
        pi = pagerank_walk_series(g, eps=0.2)
        assert pi.sum() < 1.0

    def test_symmetric_graph_uniform(self):
        g = cycle_graph(10)
        pi = pagerank_walk_series(g, eps=0.3)
        assert np.allclose(pi, 0.1)

    def test_closed_form_two_cycle(self):
        # Directed 2-cycle: pi(v) = (eps/2) * sum_j beta^j = 1/2 each.
        g = Graph(n=2, edges=[(0, 1), (1, 0)], directed=True)
        pi = pagerank_walk_series(g, eps=0.4)
        assert np.allclose(pi, 0.5)

    def test_matches_linear_solver(self):
        # pi^T = (eps/n) 1^T (I - beta P)^{-1} on a random digraph.
        g = repro.gnp_random_graph(30, 0.2, seed=1, directed=True)
        eps, beta = 0.25, 0.75
        outdeg = g.out_degrees().astype(float)
        P = np.zeros((30, 30))
        for v in range(30):
            for w in out_neighbors(g, v):
                P[v, w] = 1.0 / outdeg[v]
        expected = (eps / 30) * np.linalg.solve((np.eye(30) - beta * P).T, np.ones(30))
        pi = pagerank_walk_series(g, eps=eps)
        assert np.allclose(pi, expected, atol=1e-10)

    def test_rejects_bad_eps(self):
        g = cycle_graph(4)
        with pytest.raises(AlgorithmError):
            pagerank_walk_series(g, eps=0.0)


class TestTeleport:
    def test_probability_vector(self):
        g = repro.gnp_random_graph(40, 0.1, seed=2, directed=True)
        pi = pagerank_teleport(g, eps=0.15)
        assert pi.sum() == pytest.approx(1.0)
        assert np.all(pi > 0)

    def test_matches_networkx(self):
        g = repro.gnp_random_graph(40, 0.15, seed=3, directed=True)
        pi = pagerank_teleport(g, eps=0.15)
        nx_pi = nx.pagerank(to_networkx(g), alpha=0.85, tol=1e-12)
        expected = np.array([nx_pi[v] for v in range(40)])
        assert np.allclose(pi, expected, atol=1e-8)

    def test_agrees_with_walk_series_when_no_dangling(self):
        g = cycle_graph(12, directed=True)
        a = pagerank_teleport(g, eps=0.2)
        b = pagerank_walk_series(g, eps=0.2)
        assert np.allclose(a, b, atol=1e-9)

    def test_star_center_dominates(self):
        g = repro.star_graph(20)
        pi = pagerank_teleport(g, eps=0.15)
        assert pi[0] > 5 * pi[1:].max()
