"""Tests for the Theorem-5 distributed triangle enumeration."""

import numpy as np
import pytest

import repro
from repro.errors import AlgorithmError, PartitionError
from repro.graphs.triangles_ref import enumerate_triangles
from repro.kmachine.partition import random_vertex_partition
from oracles import count_open_triads, cycle_graph, empty_graph, enumerate_open_triads, path_graph


def assert_exact_enumeration(graph, result):
    expected = enumerate_triangles(graph)
    result.assert_no_duplicates()
    assert result.count == expected.shape[0]
    assert np.array_equal(result.triangles, expected)


class TestExactness:
    @pytest.mark.parametrize("k", [2, 8, 27, 30, 64])
    def test_gnp_sparse(self, k):
        g = repro.gnp_random_graph(60, 0.15, seed=1)
        res = repro.enumerate_triangles_distributed(g, k=k, seed=2)
        assert_exact_enumeration(g, res)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gnp_dense(self, seed):
        g = repro.gnp_random_graph(40, 0.5, seed=seed)
        res = repro.enumerate_triangles_distributed(g, k=27, seed=seed + 10)
        assert_exact_enumeration(g, res)

    def test_complete_graph(self):
        g = repro.complete_graph(15)
        res = repro.enumerate_triangles_distributed(g, k=8, seed=3)
        assert_exact_enumeration(g, res)
        assert res.count == 455

    def test_triangle_free(self):
        g = cycle_graph(30)
        res = repro.enumerate_triangles_distributed(g, k=8, seed=4)
        assert res.count == 0

    def test_planted_triangles(self):
        g = repro.planted_triangles_graph(60, 12, seed=5, noise_p=0.05)
        res = repro.enumerate_triangles_distributed(g, k=27, seed=6)
        assert_exact_enumeration(g, res)

    def test_star_no_triangles_with_heavy_hub(self):
        g = repro.star_graph(200)
        res = repro.enumerate_triangles_distributed(g, k=8, seed=7)
        assert res.count == 0

    def test_chung_lu_heavy_tail(self):
        g = repro.chung_lu_graph(150, exponent=2.2, avg_degree=8, seed=8)
        res = repro.enumerate_triangles_distributed(g, k=27, seed=9)
        assert_exact_enumeration(g, res)

    def test_empty_edge_set(self):
        g = empty_graph(20)
        res = repro.enumerate_triangles_distributed(g, k=8, seed=10)
        assert res.count == 0

    def test_without_proxies_still_exact(self):
        g = repro.gnp_random_graph(50, 0.3, seed=11)
        res = repro.enumerate_triangles_distributed(g, k=27, seed=12, use_proxies=False)
        assert_exact_enumeration(g, res)

    def test_low_degree_threshold_still_exact(self):
        # Force the designation-request path for many vertices.
        g = repro.gnp_random_graph(50, 0.3, seed=13)
        res = repro.enumerate_triangles_distributed(g, k=8, seed=14, degree_threshold=4)
        assert_exact_enumeration(g, res)


class TestOutputStructure:
    def test_per_machine_output_sums_to_total(self):
        g = repro.gnp_random_graph(50, 0.4, seed=15)
        res = repro.enumerate_triangles_distributed(g, k=27, seed=16)
        assert res.per_machine_output.sum() == res.count

    def test_only_triplet_machines_output(self):
        g = repro.gnp_random_graph(50, 0.4, seed=17)
        k = 30  # q = 3, so only machines < 27 may output
        res = repro.enumerate_triangles_distributed(g, k=k, seed=18)
        assert np.all(res.per_machine_output[27:] == 0)

    def test_output_roughly_balanced_on_dense_input(self):
        # Corollary 2's premise: output per machine is balanced.
        g = repro.gnp_random_graph(64, 0.5, seed=19)
        res = repro.enumerate_triangles_distributed(g, k=8, seed=20)
        active = res.per_machine_output[: res.num_colors**3]
        assert active.max() < 6 * max(1, active.mean())

    def test_deterministic_given_seed(self):
        g = repro.gnp_random_graph(40, 0.3, seed=21)
        a = repro.enumerate_triangles_distributed(g, k=8, seed=22)
        b = repro.enumerate_triangles_distributed(g, k=8, seed=22)
        assert np.array_equal(a.triangles, b.triangles)
        assert a.rounds == b.rounds

    def test_metrics_consistent(self):
        g = repro.gnp_random_graph(40, 0.3, seed=23)
        res = repro.enumerate_triangles_distributed(g, k=8, seed=24)
        res.metrics.check_conservation()

    def test_rejects_directed(self):
        g = path_graph(5, directed=True)
        with pytest.raises(AlgorithmError):
            repro.enumerate_triangles_distributed(g, k=8)

    def test_rejects_mismatched_partition(self):
        g = cycle_graph(10)
        p = random_vertex_partition(9, 8, seed=0)
        with pytest.raises(PartitionError):
            repro.enumerate_triangles_distributed(g, k=8, partition=p)


class TestCommunicationBehaviour:
    def test_rerouting_volume_is_m_times_q(self):
        # Footnote 15: the proxy-to-triplet phase moves exactly m*k^{1/3}
        # edge copies (local copies included).
        g = repro.gnp_random_graph(60, 0.4, seed=25)
        k = 27
        res = repro.enumerate_triangles_distributed(g, k=k, seed=26)
        phase = next(p for p in res.metrics.phase_log if p.label == "triangles/to-triplets")
        assert phase.messages <= g.m * 3
        assert phase.messages >= g.m * 3 * (1 - 2 / k) - 10  # minus local copies

    def test_rounds_improve_with_k(self):
        g = repro.gnp_random_graph(140, 0.5, seed=27)
        B = 16
        r8 = repro.enumerate_triangles_distributed(g, k=8, seed=28, bandwidth=B).rounds
        r64 = repro.enumerate_triangles_distributed(g, k=64, seed=28, bandwidth=B).rounds
        # Theorem 5: ~ (k'/k)^{5/3} = 32x ideally; demand clearly superlinear.
        assert r8 > 12 * r64

    def test_proxies_help_on_heavy_tailed_graphs(self):
        # Ablation: without proxies the home machine of a heavy vertex
        # pushes all q copies of its edges itself.
        g = repro.star_graph(900)
        # add some triangles so the run isn't degenerate
        extra = np.array([[1, 2], [2, 3], [1, 3]])
        g2 = repro.Graph(n=900, edges=np.concatenate([g.edges, extra]))
        B = 16
        with_p = repro.enumerate_triangles_distributed(
            g2, k=64, seed=29, bandwidth=B, use_proxies=True
        )
        without = repro.enumerate_triangles_distributed(
            g2, k=64, seed=29, bandwidth=B, use_proxies=False
        )
        send_with = max(
            p.max_machine_sent for p in with_p.metrics.phase_log if "to-" in p.label
        )
        send_without = max(
            p.max_machine_sent for p in without.metrics.phase_log if "to-" in p.label
        )
        assert send_with < send_without

    def test_message_total_respects_corollary2_shape(self):
        # Round-optimal runs move Θ(m k^{1/3}) messages — superlinear in m.
        g = repro.gnp_random_graph(80, 0.5, seed=30)
        res = repro.enumerate_triangles_distributed(g, k=27, seed=31)
        assert res.metrics.messages + res.metrics.local_messages >= 3 * g.m


class TestOpenTriads:
    def test_matches_reference_enumeration(self):
        g = repro.gnp_random_graph(30, 0.2, seed=32)
        res = repro.enumerate_triangles_distributed(g, k=27, seed=33, enumerate_triads=True)
        expected = enumerate_open_triads(g)
        got = res.open_triads
        # Compare as sets of (center, sorted pair).
        def canon(arr):
            return {(int(c), *sorted((int(a), int(b)))) for c, a, b in arr}
        assert canon(got) == canon(expected)

    def test_triads_none_when_not_requested(self):
        g = cycle_graph(10)
        res = repro.enumerate_triangles_distributed(g, k=8, seed=34)
        assert res.open_triads is None

    def test_triad_count_matches_closed_form(self):
        g = repro.gnp_random_graph(35, 0.25, seed=35)
        res = repro.enumerate_triangles_distributed(g, k=8, seed=36, enumerate_triads=True)
        assert res.open_triads.shape[0] == count_open_triads(g)
