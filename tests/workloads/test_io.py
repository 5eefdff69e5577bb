"""Tests for the edge-list reader and the npz CSR snapshot format."""

import numpy as np
import pytest

import repro
from repro.errors import WorkloadError
from repro.workloads import (
    build_dataset,
    read_edge_list,
    read_npz,
    write_npz,
)
from oracles import cycle_graph, in_neighbors, path_graph


def write_edge_list(path, graph):
    """Write a graph's canonical edge array as a TSV edge list."""
    with open(path, "w") as fh:
        fh.write(f"# repro edge list: n={graph.n} m={graph.m} directed={graph.directed}\n")
        fh.writelines(f"{u}\t{v}\n" for u, v in graph.edges)


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
        with pytest.raises(WorkloadError, match="malformed edge row"):
            read_edge_list(bad)
        bad.write_text("0 x\n")
        with pytest.raises(WorkloadError, match="malformed edge row"):
            read_edge_list(bad)
        bad.write_text("-1 2\n")
        with pytest.raises(WorkloadError, match="negative"):
            read_edge_list(bad)

    def test_edgelist_workload_family(self, tmp_path):
        path = tmp_path / "g.tsv"
        write_edge_list(path, cycle_graph(5))
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
        write_edge_list(path, path_graph(6))  # same n, same m
        r2 = runtime.run("pagerank", dataset=spec, k=2, seed=3, c=2.0)
        assert r1.distgraph is not r2.distgraph
        assert not np.array_equal(r1.result.estimates, r2.result.estimates)


class TestSnap:
    """SNAP-style files: tabs, comment headers, sparse ids, relabel=True."""

    def test_comment_headers_tabs_and_repeats(self, tmp_path):
        # Comment headers, tabs, both orientations, repeats, self-loops.
        path = tmp_path / "snap.txt"
        path.write_text(
            "# Directed graph (each unordered pair once)\n"
            "# FromNodeId\tToNodeId\n"
            "0\t1\n1\t0\n1\t2\n2\t2\n0\t1\n% stray\n2\t0\n"
        )
        g = read_edge_list(path, relabel=True)
        assert g.n == 3 and g.m == 3 and not g.directed

    def test_sparse_ids_densely_relabeled_in_sorted_order(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("10\t700\n700\t42\n")
        g = read_edge_list(path, relabel=True)
        assert g.n == 3 and g.m == 2
        # ids sorted: 10 -> 0, 42 -> 1, 700 -> 2
        assert np.array_equal(g.edges, [[0, 2], [1, 2]])

    def test_chunked_parse_is_identical(self, tmp_path):
        big = repro.gnp_random_graph(120, 0.1, seed=9)
        path = tmp_path / "snap.txt"
        write_edge_list(path, big)
        whole = read_edge_list(path, relabel=True)
        chunked = read_edge_list(path, relabel=True, chunk_rows=7)
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
        g = read_edge_list(path, relabel=True, chunk_rows=2)
        assert g.n == 3 and g.m == 2
        assert np.array_equal(g.edges, [[0, 2], [1, 2]])  # 3 < a < b

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("0\t1\t1288\n1\t2\t1289\n")
        g = read_edge_list(path, relabel=True)
        assert g.n == 3 and g.m == 2

    def test_directed(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("0\t1\n1\t0\n")
        g = read_edge_list(path, directed=True, relabel=True)
        assert g.directed and g.m == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("# only comments\n")
        g = read_edge_list(path, relabel=True)
        assert g.n == 0 and g.m == 0

    def test_errors(self, tmp_path):
        with pytest.raises(WorkloadError, match="not found"):
            read_edge_list(tmp_path / "missing.txt", relabel=True)
        bad = tmp_path / "bad.txt"
        bad.write_text("0\tx\n")
        with pytest.raises(WorkloadError, match="malformed edge row"):
            read_edge_list(bad, relabel=True)
        bad.write_text("-1\t2\n")
        with pytest.raises(WorkloadError, match="negative vertex id"):
            read_edge_list(bad, relabel=True)
        with pytest.raises(WorkloadError, match="chunk_rows"):
            read_edge_list(bad, chunk_rows=0)

    def test_relabel_workload_family(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("10\t700\n700\t42\n")
        g = build_dataset(f"edgelist:path={path},relabel=true")
        assert g.n == 3 and g.m == 2
        assert g.content_key is None  # file-backed: never content-addressed


def _write_rows(path, rows):
    path.write_text("".join(f"{u}\t{v}\n" for u, v in rows))


def _connected_pairs(n, extra, seed):
    """A path through ``0..n-1`` (no isolated ids) plus random pairs."""
    rng = np.random.default_rng(seed)
    chords = rng.integers(0, n, size=(extra, 2))
    return np.concatenate([np.stack([np.arange(n - 1), np.arange(1, n)], axis=1), chords])


class TestReaderModes:
    """Both id modes of ``read_edge_list`` share one parser and one fold."""

    @pytest.mark.parametrize("relabel", [False, True])
    @pytest.mark.parametrize("chunk_rows", [1, 2, 7, 64])
    def test_folds_duplicates_across_chunk_boundaries(self, tmp_path, relabel, chunk_rows):
        g = repro.gnp_random_graph(80, 0.08, seed=11)
        # Both orientations, repeats and self-loops, shuffled so a pair's
        # copies land in different chunks.
        rows = np.concatenate([g.edges, g.edges[:, ::-1], g.edges[:10], [[4, 4], [9, 9]]])
        rows = rows[np.random.default_rng(2).permutation(len(rows))]
        path = tmp_path / "g.tsv"
        _write_rows(path, rows)
        whole = read_edge_list(path, relabel=relabel)
        chunked = read_edge_list(path, relabel=relabel, chunk_rows=chunk_rows)
        assert chunked.m == g.m
        assert chunked.n == whole.n
        assert np.array_equal(chunked.edges, whole.edges)
        if not relabel:
            assert np.array_equal(chunked.edges, g.edges)

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("rename", [lambda v: v + 1000, lambda v: 7 * v + 3,
                                        lambda v: 2**33 + v * 2**20],
                             ids=["shift", "scale", "past-int32"])
    def test_relabel_is_the_sorted_rename_of_raw_ids(self, tmp_path, directed, rename):
        pairs = _connected_pairs(40, 60, seed=5)
        dense, sparse = tmp_path / "dense.tsv", tmp_path / "sparse.tsv"
        _write_rows(dense, pairs)
        _write_rows(sparse, [(rename(int(u)), rename(int(v))) for u, v in pairs])
        raw = read_edge_list(dense, directed=directed)
        for g in (read_edge_list(dense, directed=directed, relabel=True),
                  read_edge_list(sparse, directed=directed, relabel=True, chunk_rows=9)):
            assert g.n == raw.n == 40 and g.directed == directed
            assert np.array_equal(g.edges, raw.edges)

    @pytest.mark.parametrize("relabel", [False, True])
    @pytest.mark.parametrize("text", ["", "\n\n", "# only\n", "% a\n# b\n"],
                             ids=["empty", "blank", "hash", "percent"])
    def test_files_without_rows_are_empty_graphs(self, tmp_path, relabel, text):
        path = tmp_path / "g.txt"
        path.write_text(text)
        g = read_edge_list(path, relabel=relabel)
        assert g.n == 0 and g.m == 0

    @pytest.mark.parametrize("relabel", [False, True])
    @pytest.mark.parametrize("text", ["0  1\n 1\t2 \n", "0 1\r\n1 2\r\n", "0 1\n\n1 2\n"],
                             ids=["mixed-space", "crlf", "blank-line"])
    def test_whitespace_variants_parse_alike(self, tmp_path, relabel, text):
        path = tmp_path / "g.txt"
        path.write_text(text)
        g = read_edge_list(path, relabel=relabel)
        assert g.n == 3 and np.array_equal(g.edges, [[0, 1], [1, 2]])

    @pytest.mark.parametrize("relabel", [False, True])
    @pytest.mark.parametrize("text", ["0\n", "0 x\n", "1.5 2\n", "0 1\n1 2\n2\n",
                                      "0 99999999999999999999\n"],
                             ids=["one-column", "word", "float", "short-late-row", "past-int64"])
    def test_malformed_rows_rejected_in_any_chunk(self, tmp_path, relabel, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(WorkloadError, match="malformed edge row"):
            read_edge_list(path, relabel=relabel, chunk_rows=1)

    @pytest.mark.parametrize("relabel", [False, True])
    @pytest.mark.parametrize("text", ["-1 2\n", "2 -1\n", "0 1\n1 2\n-3 4\n"],
                             ids=["first-column", "second-column", "later-chunk"])
    def test_negative_ids_rejected_in_any_chunk(self, tmp_path, relabel, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(WorkloadError, match="negative vertex id"):
            read_edge_list(path, relabel=relabel, chunk_rows=1)

    @pytest.mark.parametrize("params, n, directed", [
        ("", 10, False),
        (",relabel=true", 2, False),
        (",directed=true", 10, True),
        (",directed=true,relabel=true", 2, True),
    ])
    def test_edgelist_family_passes_both_flags(self, tmp_path, params, n, directed):
        path = tmp_path / "g.tsv"
        path.write_text("9 5\n5 9\n")
        g = build_dataset(f"edgelist:path={path}{params}")
        assert (g.n, g.directed) == (n, directed)
        assert g.m == (2 if directed else 1)

    @pytest.mark.parametrize("value", ["1", "yes"])
    def test_edgelist_family_rejects_non_boolean_relabel(self, tmp_path, value):
        path = tmp_path / "g.tsv"
        path.write_text("0 1\n")
        with pytest.raises(WorkloadError, match="relabel"):
            build_dataset(f"edgelist:path={path},relabel={value}")


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
        assert np.array_equal(in_neighbors(g2, 3), in_neighbors(g, 3))

    def test_missing_and_corrupt(self, tmp_path):
        with pytest.raises(WorkloadError, match="not found"):
            read_npz(tmp_path / "missing.npz")
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"not an npz")
        with pytest.raises(WorkloadError, match="corrupt"):
            read_npz(bad)

    def test_future_version_rejected(self, tmp_path):
        g = cycle_graph(4)
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
