"""Tests for the edge-list/METIS readers and the npz CSR snapshot format."""

import numpy as np
import pytest

import repro
from repro.errors import WorkloadError
from repro.workloads import (
    build_dataset,
    read_edge_list,
    read_metis,
    read_npz,
    read_snap,
    write_edge_list,
    write_npz,
)


class TestEdgeList:
    def test_round_trip(self, tmp_path):
        g = repro.gnp_random_graph(60, 0.1, seed=7)
        path = tmp_path / "g.tsv"
        write_edge_list(path, g)
        g2 = read_edge_list(path)
        assert g2.n == g.n and np.array_equal(g2.edges, g.edges)

    def test_comments_and_both_directions(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n% more\n0 1\n1 0\n1 2\n2 1\n0 1\n")
        g = read_edge_list(path)
        assert g.n == 3 and g.m == 2  # reversed + repeated rows folded

    def test_self_loops_dropped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 0\n0 1\n")
        assert read_edge_list(path).m == 1

    def test_relabel_sparse_ids(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("10 700\n700 42\n")
        g = read_edge_list(path, relabel=True)
        assert g.n == 3 and g.m == 2

    def test_directed(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 0\n")
        g = read_edge_list(path, directed=True)
        assert g.directed and g.m == 2

    def test_errors(self, tmp_path):
        with pytest.raises(WorkloadError, match="not found"):
            read_edge_list(tmp_path / "missing.tsv")
        bad = tmp_path / "bad.tsv"
        bad.write_text("0\n")
        with pytest.raises(WorkloadError, match="expected 'u v'"):
            read_edge_list(bad)
        bad.write_text("0 x\n")
        with pytest.raises(WorkloadError, match="non-integer"):
            read_edge_list(bad)
        bad.write_text("-1 2\n")
        with pytest.raises(WorkloadError, match="negative"):
            read_edge_list(bad)

    def test_edgelist_workload_family(self, tmp_path):
        path = tmp_path / "g.tsv"
        write_edge_list(path, repro.cycle_graph(5))
        g = build_dataset(f"edgelist:path={path}")
        assert g.n == 5 and g.m == 5
        # File-backed graphs get NO content key: the spec hash covers the
        # path string, not the file bytes, so a content key would let
        # shard caches serve stale data after the file changes.
        assert g.content_key is None

    def test_changed_file_is_not_served_stale_shards(self, tmp_path):
        from repro import runtime

        path = tmp_path / "g.tsv"
        write_edge_list(path, repro.star_graph(6))
        spec = f"edgelist:path={path}"
        r1 = runtime.run("pagerank", dataset=spec, k=2, seed=3, c=2.0)
        write_edge_list(path, repro.path_graph(6))  # same n, same m
        r2 = runtime.run("pagerank", dataset=spec, k=2, seed=3, c=2.0)
        assert r1.distgraph is not r2.distgraph
        assert not np.array_equal(r1.result.estimates, r2.result.estimates)


class TestSnap:
    def test_matches_read_edge_list_semantics(self, tmp_path):
        # Comment headers, tabs, both orientations, repeats, self-loops.
        path = tmp_path / "snap.txt"
        path.write_text(
            "# Directed graph (each unordered pair once)\n"
            "# FromNodeId\tToNodeId\n"
            "0\t1\n1\t0\n1\t2\n2\t2\n0\t1\n% stray\n2\t0\n"
        )
        g = read_snap(path)
        assert g.n == 3 and g.m == 3 and not g.directed

    def test_sparse_ids_densely_relabeled_in_sorted_order(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("10\t700\n700\t42\n")
        g = read_snap(path)
        assert g.n == 3 and g.m == 2
        # ids sorted: 10 -> 0, 42 -> 1, 700 -> 2
        assert np.array_equal(g.edges, [[0, 2], [1, 2]])

    def test_chunked_parse_is_identical(self, tmp_path):
        big = repro.gnp_random_graph(120, 0.1, seed=9)
        path = tmp_path / "snap.txt"
        write_edge_list(path, big)
        whole = read_snap(path)
        chunked = read_snap(path, chunk_rows=7)
        assert chunked.n == whole.n
        assert np.array_equal(chunked.edges, whole.edges)
        assert np.array_equal(chunked.indptr, whole.indptr)
        assert np.array_equal(chunked.indices, whole.indices)

    def test_raw_ids_beyond_int32_survive(self, tmp_path):
        # SNAP downloads can use raw ids past 2**31; the per-chunk packed
        # dedupe key must not overflow and relabeling must stay exact.
        a, b, c = 2**31 + 5, 2**33 + 1, 3
        path = tmp_path / "snap.txt"
        path.write_text(f"{a}\t{b}\n{b}\t{c}\n{b}\t{a}\n")
        g = read_snap(path, chunk_rows=2)
        assert g.n == 3 and g.m == 2
        assert np.array_equal(g.edges, [[0, 2], [1, 2]])  # 3 < a < b

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("0\t1\t1288\n1\t2\t1289\n")
        g = read_snap(path)
        assert g.n == 3 and g.m == 2

    def test_directed(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("0\t1\n1\t0\n")
        g = read_snap(path, directed=True)
        assert g.directed and g.m == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("# only comments\n")
        g = read_snap(path)
        assert g.n == 0 and g.m == 0

    def test_errors(self, tmp_path):
        with pytest.raises(WorkloadError, match="not found"):
            read_snap(tmp_path / "missing.txt")
        bad = tmp_path / "bad.txt"
        bad.write_text("0\tx\n")
        with pytest.raises(WorkloadError, match="malformed edge row"):
            read_snap(bad)
        bad.write_text("-1\t2\n")
        with pytest.raises(WorkloadError, match="negative vertex id"):
            read_snap(bad)
        with pytest.raises(WorkloadError, match="chunk_rows"):
            read_snap(bad, chunk_rows=0)

    def test_snap_workload_family(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("0\t1\n1\t2\n")
        g = build_dataset(f"snap:path={path}")
        assert g.n == 3 and g.m == 2
        assert g.content_key is None  # file-backed: never content-addressed


class TestMetis:
    def test_small_graph(self, tmp_path):
        # Triangle plus a pendant: 0-1, 0-2, 1-2, 2-3 (1-indexed file).
        path = tmp_path / "g.graph"
        path.write_text("% comment\n4 4\n2 3\n1 3\n1 2 4\n3\n")
        g = read_metis(path)
        assert g.n == 4 and g.m == 4
        assert repro.count_triangles(g) == 1

    def test_isolated_vertex(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("3 1\n2\n1\n\n")
        # The blank line for the isolated vertex is stripped by the
        # line filter, so the adjacency-count check fires.
        with pytest.raises(WorkloadError, match="adjacency lines"):
            read_metis(path)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("2 5\n2\n1\n")
        with pytest.raises(WorkloadError, match="m=5"):
            read_metis(path)

    def test_weighted_rejected(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("2 1 1\n2 3\n1 3\n")
        with pytest.raises(WorkloadError, match="weighted"):
            read_metis(path)

    def test_out_of_range_neighbor(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("2 1\n3\n1\n")
        with pytest.raises(WorkloadError, match="out of range"):
            read_metis(path)

    def test_metis_workload_family(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("3 3\n2 3\n1 3\n1 2\n")
        g = build_dataset(f"metis:path={path}")
        assert g.n == 3 and g.m == 3


class TestSnapshot:
    @pytest.mark.parametrize("directed", [False, True])
    def test_round_trip_bit_identical(self, tmp_path, directed):
        g = repro.gnp_random_graph(200, 0.05, seed=3, directed=directed)
        path = tmp_path / "g.npz"
        write_npz(path, g)
        g2 = read_npz(path)
        assert g2.n == g.n and g2.directed == g.directed
        assert np.array_equal(g2.edges, g.edges)
        assert np.array_equal(g2.indptr, g.indptr)
        assert np.array_equal(g2.indices, g.indices)
        assert g2.edges.dtype == np.int64  # widened back from int32 storage

    def test_in_adjacency_still_lazy(self, tmp_path):
        g = repro.gnp_random_graph(50, 0.1, seed=3, directed=True)
        path = tmp_path / "g.npz"
        write_npz(path, g)
        g2 = read_npz(path)
        assert np.array_equal(g2.in_neighbors(3), g.in_neighbors(3))

    def test_missing_and_corrupt(self, tmp_path):
        with pytest.raises(WorkloadError, match="not found"):
            read_npz(tmp_path / "missing.npz")
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"not an npz")
        with pytest.raises(WorkloadError, match="corrupt"):
            read_npz(bad)

    def test_future_version_rejected(self, tmp_path):
        g = repro.cycle_graph(4)
        path = tmp_path / "g.npz"
        np.savez(
            path, version=np.int64(99), n=np.int64(g.n),
            directed=np.bool_(False), edges=g.edges,
            indptr=g.indptr, indices=g.indices,
        )
        with pytest.raises(WorkloadError, match="newer"):
            read_npz(path)


class TestNarrow:
    """The int32 storage optimization must never corrupt wide ids."""

    def test_small_values_narrow_to_int32(self):
        from repro.workloads.io import _narrow

        out = _narrow(np.array([0, 5, 2**31 - 1], dtype=np.int64))
        assert out.dtype == np.int32
        assert np.array_equal(out, [0, 5, 2**31 - 1])

    def test_values_past_int32_round_trip_at_int64(self):
        from repro.workloads.io import _narrow

        wide = np.array([0, 2**31, 2**62], dtype=np.int64)
        out = _narrow(wide)
        assert out.dtype == np.int64
        assert np.array_equal(out, wide)  # exact, no wrap

    def test_negative_values_rejected(self):
        from repro.workloads.io import _narrow

        with pytest.raises(WorkloadError, match="non-negative"):
            _narrow(np.array([-1, 3], dtype=np.int64))

    def test_empty_narrows(self):
        from repro.workloads.io import _narrow

        assert _narrow(np.zeros(0, dtype=np.int64)).dtype == np.int32
