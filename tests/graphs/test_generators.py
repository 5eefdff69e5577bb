"""Unit tests for graph generators."""

import networkx as nx
import numpy as np
import pytest

import repro
from repro.errors import GraphError
from repro.graphs import generators as gen
from oracles import (
    barbell_graph,
    cycle_graph,
    empty_graph,
    grid_graph,
    has_edge,
    max_degree,
    path_graph,
    random_bipartite_graph,
    to_networkx,
)


class TestGnp:
    def test_edge_count_concentrates(self):
        g = gen.gnp_random_graph(200, 0.5, seed=0)
        expected = 0.5 * 200 * 199 / 2
        assert abs(g.m - expected) < 0.1 * expected

    def test_p_zero_and_one(self):
        assert gen.gnp_random_graph(20, 0.0, seed=0).m == 0
        assert gen.gnp_random_graph(20, 1.0, seed=0).m == 20 * 19 // 2

    def test_directed_gnp(self):
        g = gen.gnp_random_graph(50, 0.3, seed=1, directed=True)
        assert g.directed
        expected = 0.3 * 50 * 49
        assert abs(g.m - expected) < 0.25 * expected

    def test_deterministic_given_seed(self):
        a = gen.gnp_random_graph(40, 0.2, seed=5)
        b = gen.gnp_random_graph(40, 0.2, seed=5)
        assert np.array_equal(a.edges, b.edges)

    def test_rejects_bad_p(self):
        with pytest.raises(GraphError):
            gen.gnp_random_graph(10, 1.5)


class TestFixedShapes:
    def test_complete_graph(self):
        g = gen.complete_graph(6)
        assert g.m == 15
        assert max_degree(g) == 5

    def test_complete_graph_directed(self):
        g = gen.complete_graph(4, directed=True)
        assert g.m == 12
        assert np.all(g.out_degrees() == 3)

    def test_star_graph(self):
        g = gen.star_graph(10)
        assert g.m == 9
        assert g.degrees()[0] == 9
        assert np.all(g.degrees()[1:] == 1)

    def test_star_custom_center(self):
        g = gen.star_graph(5, center=3)
        assert g.degrees()[3] == 4

    def test_star_rejects_bad_center(self):
        with pytest.raises(GraphError):
            gen.star_graph(5, center=5)

    def test_path_graph(self):
        g = path_graph(5)
        assert g.m == 4
        assert g.degrees().tolist() == [1, 2, 2, 2, 1]

    def test_path_graph_directed(self):
        g = path_graph(4, directed=True)
        assert g.out_degrees().tolist() == [1, 1, 1, 0]

    def test_cycle_graph(self):
        g = cycle_graph(5)
        assert g.m == 5
        assert np.all(g.degrees() == 2)

    def test_cycle_rejects_small(self):
        with pytest.raises(GraphError):
            cycle_graph(2)

    def test_empty_graph(self):
        g = empty_graph(7)
        assert g.n == 7 and g.m == 0


class TestPlantedTriangles:
    def test_exact_triangle_count_without_noise(self):
        from repro.graphs.triangles_ref import count_triangles

        g = gen.planted_triangles_graph(30, 7, seed=0)
        assert count_triangles(g) == 7
        assert g.m == 21

    def test_zero_triangles(self):
        g = gen.planted_triangles_graph(10, 0)
        assert g.m == 0

    def test_noise_adds_edges(self):
        g0 = gen.planted_triangles_graph(30, 5, seed=1, noise_p=0.0)
        g1 = gen.planted_triangles_graph(30, 5, seed=1, noise_p=0.3)
        assert g1.m > g0.m

    def test_rejects_too_many_triangles(self):
        with pytest.raises(GraphError):
            gen.planted_triangles_graph(8, 3)


class TestHeavyTailedAndRegular:
    def test_chung_lu_has_heavy_head(self):
        g = gen.chung_lu_graph(500, exponent=2.2, avg_degree=6, seed=0)
        deg = g.degrees()
        assert deg.max() > 4 * deg.mean()

    def test_chung_lu_rejects_bad_exponent(self):
        with pytest.raises(GraphError):
            gen.chung_lu_graph(100, exponent=1.0)

    def test_regularish_degrees_bounded(self):
        g = gen.random_regularish_graph(100, 6, seed=0)
        deg = g.degrees()
        assert deg.max() <= 6
        assert deg.mean() > 4.5  # few pairs lost to dedup/self-loops

    def test_regularish_rejects_odd_product(self):
        with pytest.raises(GraphError):
            gen.random_regularish_graph(5, 3)

    def test_regularish_rejects_degree_ge_n(self):
        with pytest.raises(GraphError):
            gen.random_regularish_graph(4, 4)


class TestGridBarbellBipartite:
    def test_grid_shape(self):
        g = grid_graph(4, 5)
        assert g.n == 20
        assert g.m == 4 * 4 + 3 * 5  # horizontal + vertical
        assert max_degree(g) == 4

    def test_grid_degenerate_rows(self):
        g = grid_graph(1, 6)
        assert g.m == 5

    def test_grid_is_bipartite(self):
        g = grid_graph(5, 5)
        assert nx.is_bipartite(to_networkx(g))

    def test_barbell_structure(self):
        g = barbell_graph(5, bridge_length=3)
        assert g.n == 2 * 5 + 2
        assert repro.count_triangles(g) == 2 * 10  # C(5,3) per clique

    def test_barbell_short_bridge(self):
        g = barbell_graph(4, bridge_length=1)
        assert g.n == 8
        assert has_edge(g, 3, 4)

    def test_barbell_connected(self):
        g = barbell_graph(6, bridge_length=4)
        assert nx.is_connected(to_networkx(g))

    def test_random_bipartite_no_triangles(self):
        g = random_bipartite_graph(20, 25, 0.3, seed=0)
        assert repro.count_triangles(g) == 0
        assert nx.is_bipartite(to_networkx(g))

    def test_random_bipartite_edges_cross_sides(self):
        g = random_bipartite_graph(10, 15, 0.5, seed=1)
        for u, v in g.edges:
            assert (u < 10) != (v < 10)
