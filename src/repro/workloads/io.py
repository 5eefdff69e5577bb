"""Dataset loaders and the on-disk snapshot formats.

Three ways bits become a :class:`~repro.graphs.graph.Graph`:

* :func:`read_edge_list` — whitespace/TSV edge lists (``u v`` per line,
  ``#`` comments), with optional relabeling of arbitrary integer ids to
  the dense ``0..n-1`` range the simulator requires;
* :func:`read_snap` — the same wire format at SNAP scale: the file is
  parsed in bounded chunks (never read whole), ids are densely
  relabeled, and duplicate/reversed rows are folded, so 1e7+-edge
  downloads stream straight into a canonical graph;
* :func:`read_metis` — the METIS adjacency format (header ``n m``,
  1-indexed neighbor lines);
* :func:`read_npz` / :func:`write_npz` — the snapshot format of the
  on-disk graph cache: canonical edge array plus the prebuilt CSR, so a
  load is a handful of array reads and a trusted
  :meth:`~repro.graphs.graph.Graph.from_canonical` call — no re-sorting,
  no re-validation, bit-identical to the graph that was written.

Snapshots store arrays at the narrowest safe dtype (int32 when all ids
fit, int64 otherwise — never a silent wrap) and are versioned; readers
reject snapshots written by an incompatible future format instead of
misinterpreting them.

This module also owns the **shard snapshot** wire format: the derived
per-machine :class:`~repro.kmachine.distgraph.DistributedGraph` arrays
are flattened into one int64 ``.npy`` blob plus a JSON manifest naming
each section's ``[offset, length]`` slice (:func:`write_shard_blob`,
:func:`read_shard_manifest`, :func:`map_shard_blob`).  A flat ``.npy``
(unlike npz members) can be mapped with ``np.load(mmap_mode="r")``, so
warm starts fault pages in lazily and share them across processes
through the OS page cache.  The cache layer owns paths and atomicity;
this module owns only the bytes.

The file-backed readers are registered as the ``edgelist``, ``snap``,
and ``metis`` workload families (``edgelist:path=graph.tsv``).  They
are *not* cacheable: the spec string cannot content-address bytes owned
by an external file, so they rebuild on every materialization.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

from repro.errors import WorkloadError
from repro.graphs.graph import Graph
from repro.workloads.spec import (
    ParamSpec,
    WorkloadFamily,
    register_workload,
)

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "read_snap",
    "read_metis",
    "read_npz",
    "write_npz",
    "write_shard_blob",
    "read_shard_manifest",
    "map_shard_blob",
    "SNAPSHOT_VERSION",
    "SHARD_SNAPSHOT_VERSION",
    "SnapshotMissingError",
]

#: npz snapshot format version (see module docstring).
SNAPSHOT_VERSION = 1

#: Shard (DistributedGraph) snapshot format version.  Bump whenever the
#: section layout or manifest schema changes; readers treat any other
#: version as a miss-or-error, so stale sidecars are rebuilt, never
#: misread.
SHARD_SNAPSHOT_VERSION = 1


class SnapshotMissingError(WorkloadError, FileNotFoundError):
    """A snapshot path with no file behind it.

    Inherits both: callers holding the :class:`WorkloadError` contract
    see an ordinary workload failure, while the graph cache — where a
    concurrent ``enforce_cap``/``evict`` may delete a snapshot between
    the hit check and the read — catches it as ``FileNotFoundError``
    and treats the read as a plain miss.
    """


def read_edge_list(
    path: "str | Path",
    directed: bool = False,
    relabel: bool = False,
    n: int | None = None,
) -> Graph:
    """Read a whitespace- or tab-separated edge list (``u v`` per line).

    Lines starting with ``#`` or ``%`` are comments.  Duplicate rows (and,
    for undirected graphs, reversed duplicates — the common "both
    directions on disk" convention) and self-loops are dropped.  With
    ``relabel=True`` arbitrary integer ids are densely renumbered in
    sorted order; otherwise ids must already be ``0..n-1`` (``n`` defaults
    to ``max id + 1``).
    """
    path = Path(path)
    if not path.exists():
        raise WorkloadError(f"edge-list file not found: {path}")
    rows = []
    with path.open() as fh:
        for lineno, line in enumerate(fh, 1):
            s = line.strip()
            if not s or s[0] in "#%":
                continue
            parts = s.split()
            if len(parts) < 2:
                raise WorkloadError(f"{path}:{lineno}: expected 'u v', got {s!r}")
            try:
                rows.append((int(parts[0]), int(parts[1])))
            except ValueError:
                raise WorkloadError(
                    f"{path}:{lineno}: non-integer endpoint in {s!r}"
                ) from None
    edges = np.array(rows, dtype=np.int64).reshape(-1, 2)
    if relabel:
        ids, edges = np.unique(edges, return_inverse=True)
        edges = edges.reshape(-1, 2)
        n = ids.size if n is None else n
    if edges.size:
        if edges.min() < 0:
            raise WorkloadError(f"{path}: negative vertex id (use relabel=true?)")
        n = int(edges.max()) + 1 if n is None else n
    elif n is None:
        n = 0
    edges = _drop_duplicate_rows(edges, n, directed)
    return Graph(n=n, edges=edges, directed=directed)


def _drop_duplicate_rows(edges: np.ndarray, n: int, directed: bool) -> np.ndarray:
    """First-occurrence dedupe (+ self-loop drop) matching Graph canon rules."""
    if not edges.size:
        return edges
    edges = edges[edges[:, 0] != edges[:, 1]]
    key_edges = edges if directed else np.sort(edges, axis=1)
    keys = key_edges[:, 0] * np.int64(max(n, 1)) + key_edges[:, 1]
    _, first = np.unique(keys, return_index=True)
    first.sort()
    return edges[first]


#: Rows per parse chunk in :func:`read_snap` — bounds peak text-buffer
#: memory at roughly a few tens of MB regardless of file size.
SNAP_CHUNK_ROWS = 1 << 20


def read_snap(
    path: "str | Path",
    directed: bool = False,
    chunk_rows: int = SNAP_CHUNK_ROWS,
) -> Graph:
    """Read a SNAP-style edge list in bounded chunks (no whole-file read).

    SNAP downloads are ``u<TAB>v`` rows with ``#`` comment headers,
    arbitrary (sparse) integer ids, and — for undirected graphs — often
    both orientations of each edge on disk.  The file is parsed
    ``chunk_rows`` rows at a time through numpy's C tokenizer, ids are
    densely relabeled in sorted order, and duplicate/reversed rows and
    self-loops are folded, matching :func:`read_edge_list` semantics at
    1e7+-edge scale.  Extra columns (timestamps, weights) are ignored.
    """
    path = Path(path)
    if not path.exists():
        raise WorkloadError(f"SNAP edge-list file not found: {path}")
    if chunk_rows <= 0:
        raise WorkloadError(f"chunk_rows must be positive, got {chunk_rows}")
    chunks: list[np.ndarray] = []
    with path.open() as fh:
        while True:
            try:
                with warnings.catch_warnings():
                    # loadtxt warns on comment-only/empty input and on
                    # comment lines not counting toward max_rows — both
                    # are exactly the behaviour we want.
                    warnings.filterwarnings(
                        "ignore", message=".*no data.*",
                        category=UserWarning,
                    )
                    block = np.loadtxt(
                        fh,
                        dtype=np.int64,
                        comments=("#", "%"),
                        usecols=(0, 1),
                        max_rows=chunk_rows,
                        ndmin=2,
                    )
            except ValueError as exc:
                raise WorkloadError(f"{path}: malformed edge row: {exc}") from exc
            if block.shape[0] == 0:
                break
            # Fold within the chunk early so a duplicate-heavy file
            # (both orientations on disk) never holds all raw rows.
            if block.min() < 0:
                raise WorkloadError(f"{path}: negative vertex id")
            chunks.append(_chunk_unique_rows(block, directed))
            if block.shape[0] < chunk_rows:
                break
    if not chunks:
        return Graph(n=0, edges=np.zeros((0, 2), dtype=np.int64), directed=directed)
    edges = np.concatenate(chunks)
    ids, edges = np.unique(edges, return_inverse=True)
    edges = edges.reshape(-1, 2)
    n = int(ids.size)
    edges = _drop_duplicate_rows(edges, n, directed)
    return Graph(n=n, edges=edges, directed=directed)


def _chunk_unique_rows(block: np.ndarray, directed: bool) -> np.ndarray:
    """Per-chunk fold: drop self-loops, keep one row per (unordered) pair.

    Row order within a chunk is irrelevant — the final
    :func:`_drop_duplicate_rows` pass (and ``Graph`` canonicalization)
    runs on the dense relabeled ids.
    """
    block = block[block[:, 0] != block[:, 1]]
    if not block.size:
        return block
    keyed = block if directed else np.sort(block, axis=1)
    hi = int(keyed.max())
    if hi < np.iinfo(np.int32).max:
        # Packed (u * span + v) keys cannot overflow int64 here.
        keys = keyed[:, 0] * np.int64(hi + 1) + keyed[:, 1]
        return keyed[np.unique(keys, return_index=True)[1]]
    return np.unique(keyed, axis=0)


def write_edge_list(path: "str | Path", graph: Graph) -> None:
    """Write a graph's canonical edge array as a TSV edge list."""
    path = Path(path)
    with path.open("w") as fh:
        fh.write(f"# repro edge list: n={graph.n} m={graph.m} "
                 f"directed={graph.directed}\n")
        for u, v in graph.edges:
            fh.write(f"{u}\t{v}\n")


def read_metis(path: "str | Path") -> Graph:
    """Read a METIS adjacency file (undirected; no weights).

    Format: a header line ``n m [fmt]`` followed by ``n`` lines, line
    ``i`` listing the (1-indexed) neighbors of vertex ``i``.  Only the
    unweighted format (``fmt`` absent or ``0``/``00``/``000``) is
    supported.  Each edge must appear in both endpoint lines (the METIS
    contract); the duplicate listing is folded into one undirected edge.
    """
    path = Path(path)
    if not path.exists():
        raise WorkloadError(f"METIS file not found: {path}")
    lines = [
        ln.strip() for ln in path.read_text().splitlines()
        if ln.strip() and not ln.lstrip().startswith("%")
    ]
    if not lines:
        raise WorkloadError(f"{path}: empty METIS file")
    header = lines[0].split()
    if len(header) < 2:
        raise WorkloadError(f"{path}: METIS header must be 'n m [fmt]'")
    n, m = int(header[0]), int(header[1])
    if len(header) > 2 and int(header[2]) != 0:
        raise WorkloadError(f"{path}: weighted METIS format is not supported")
    if len(lines) - 1 != n:
        raise WorkloadError(
            f"{path}: header says n={n} but file has {len(lines) - 1} "
            f"adjacency lines"
        )
    srcs, dsts = [], []
    for i, line in enumerate(lines[1:]):
        try:
            nbrs = np.array(line.split(), dtype=np.int64)
        except ValueError:
            raise WorkloadError(
                f"{path}: non-integer neighbor id on line {i + 2}"
            ) from None
        if nbrs.size:
            if nbrs.min() < 1 or nbrs.max() > n:
                raise WorkloadError(f"{path}: neighbor id out of range on line {i + 2}")
            srcs.append(np.full(nbrs.size, i, dtype=np.int64))
            dsts.append(nbrs - 1)
    if not srcs:
        return Graph(n=n, edges=np.zeros((0, 2), dtype=np.int64), directed=False)
    u = np.concatenate(srcs)
    v = np.concatenate(dsts)
    edges = _drop_duplicate_rows(np.column_stack([u, v]), n, directed=False)
    g = Graph(n=n, edges=edges, directed=False)
    if g.m != m:
        raise WorkloadError(
            f"{path}: header says m={m} but adjacency lines define {g.m} edges"
        )
    return g


def _narrow(arr: np.ndarray) -> np.ndarray:
    """Store ids as int32 when every value fits (halves snapshot size).

    Ids that exceed the int32 range round-trip at int64 — a graph with
    >= 2**31 edge endpoints keeps its exact values.  Anything a signed
    64-bit id cannot represent (or a negative id, which no canonical
    graph array contains) raises :class:`WorkloadError` at save time
    instead of wrapping silently in ``astype``.
    """
    arr = np.asarray(arr)
    if not arr.size:
        return arr.astype(np.int32)
    lo, hi = int(arr.min()), int(arr.max())
    if lo < 0 or hi > np.iinfo(np.int64).max:
        raise WorkloadError(
            f"snapshot ids must be non-negative int64, got range [{lo}, {hi}]"
        )
    if hi > np.iinfo(np.int32).max:
        return np.ascontiguousarray(arr, dtype=np.int64)
    return arr.astype(np.int32)


def write_npz(path: "str | Path", graph: Graph) -> None:
    """Write a CSR snapshot (uncompressed npz; see module docstring)."""
    path = Path(path)
    with path.open("wb") as fh:
        np.savez(
            fh,
            version=np.int64(SNAPSHOT_VERSION),
            n=np.int64(graph.n),
            directed=np.bool_(graph.directed),
            edges=_narrow(graph.edges),
            indptr=graph.indptr,
            indices=_narrow(graph.indices),
        )


def read_npz(path: "str | Path") -> Graph:
    """Read a CSR snapshot written by :func:`write_npz`.

    Reconstruction goes through the trusted
    :meth:`Graph.from_canonical <repro.graphs.graph.Graph.from_canonical>`
    fast path — the snapshot's canonical edge array and prebuilt CSR are
    adopted as-is, so loading is I/O-bound and the result is bit-identical
    to the graph that was written.
    """
    path = Path(path)
    if not path.exists():
        raise SnapshotMissingError(f"snapshot not found: {path}")
    try:
        with np.load(path) as data:
            version = int(data["version"])
            if version > SNAPSHOT_VERSION:
                raise WorkloadError(
                    f"{path}: snapshot format v{version} is newer than this "
                    f"reader (v{SNAPSHOT_VERSION})"
                )
            return Graph.from_canonical(
                n=int(data["n"]),
                edges=data["edges"],
                directed=bool(data["directed"]),
                indptr=data["indptr"],
                indices=data["indices"],
            )
    except WorkloadError:
        raise
    except FileNotFoundError as exc:
        # Deleted between the existence check and the open (a concurrent
        # cache eviction): missing, not corrupt.
        raise SnapshotMissingError(f"snapshot not found: {path}") from exc
    except Exception as exc:
        raise WorkloadError(f"corrupt snapshot {path}: {exc}") from exc


# ----------------------------------------------------------------------
# Shard snapshot wire format: one flat int64 .npy blob + JSON manifest.

def write_shard_blob(
    data_path: "str | Path",
    manifest_path: "str | Path",
    sections: "dict[str, np.ndarray]",
    meta: dict,
) -> int:
    """Write named int64 sections as one flat ``.npy`` plus a manifest.

    The blob is a single 1-D int64 ``.npy`` written incrementally
    (header first, then each section's bytes — no concatenated copy of
    a multi-hundred-MB snapshot).  The manifest records the format
    version, a ``sections`` table of ``name -> [offset, length]``
    slices into the blob, and the caller's ``meta`` identity fields.
    Returns the total number of int64 words written.  Callers own
    atomicity (tmp + rename) and path layout.
    """
    flats: list[tuple[str, np.ndarray]] = []
    offset = 0
    table: dict[str, list[int]] = {}
    for name, arr in sections.items():
        flat = np.ascontiguousarray(arr, dtype=np.int64).ravel()
        table[name] = [offset, int(flat.size)]
        offset += int(flat.size)
        flats.append((name, flat))
    header = {"descr": "<i8", "fortran_order": False, "shape": (offset,)}
    with open(data_path, "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, header)
        for _, flat in flats:
            flat.tofile(fh)
        fh.flush()
    manifest = {
        "version": SHARD_SNAPSHOT_VERSION,
        "sections": table,
        "words": offset,
        **meta,
    }
    Path(manifest_path).write_text(json.dumps(manifest, sort_keys=True) + "\n")
    return offset


def read_shard_manifest(manifest_path: "str | Path") -> dict:
    """Read and version-check a shard snapshot manifest.

    Missing file -> :class:`SnapshotMissingError` (a plain cache miss —
    a concurrent eviction may delete sidecars at any time).  A manifest
    written by a *different* format version is also a miss, not an
    error: the caller rebuilds and re-stores at the current version.
    Corrupt JSON raises :class:`WorkloadError`.
    """
    manifest_path = Path(manifest_path)
    try:
        raw = manifest_path.read_text()
    except FileNotFoundError as exc:
        raise SnapshotMissingError(
            f"shard manifest not found: {manifest_path}"
        ) from exc
    try:
        manifest = json.loads(raw)
        version = int(manifest["version"])
        sections = manifest["sections"]
        assert isinstance(sections, dict)
    except Exception as exc:
        raise WorkloadError(
            f"corrupt shard manifest {manifest_path}: {exc}"
        ) from exc
    if version != SHARD_SNAPSHOT_VERSION:
        raise SnapshotMissingError(
            f"{manifest_path}: shard snapshot format v{version} != "
            f"v{SHARD_SNAPSHOT_VERSION}; treating as a miss"
        )
    return manifest


def map_shard_blob(
    data_path: "str | Path", manifest: dict
) -> "dict[str, np.ndarray]":
    """Map a shard blob read-only; return per-section mmap'd views.

    The views alias one ``np.load(mmap_mode="r")`` mapping: pages fault
    in lazily on first touch, the OS page cache shares them across
    processes, and writes raise (the arrays are genuinely read-only).
    Missing blob -> :class:`SnapshotMissingError`; a blob whose shape
    or dtype disagrees with the manifest -> :class:`WorkloadError`.
    """
    data_path = Path(data_path)
    try:
        blob = np.load(data_path, mmap_mode="r")
    except FileNotFoundError as exc:
        raise SnapshotMissingError(f"shard blob not found: {data_path}") from exc
    except Exception as exc:
        raise WorkloadError(f"corrupt shard blob {data_path}: {exc}") from exc
    words = int(manifest.get("words", -1))
    if blob.ndim != 1 or blob.dtype != np.int64 or blob.size != words:
        raise WorkloadError(
            f"corrupt shard blob {data_path}: expected {words} int64 words, "
            f"got shape {blob.shape} dtype {blob.dtype}"
        )
    views: dict[str, np.ndarray] = {}
    for name, (offset, length) in manifest["sections"].items():
        if offset < 0 or length < 0 or offset + length > blob.size:
            raise WorkloadError(
                f"corrupt shard manifest section {name!r} for {data_path}"
            )
        views[name] = blob[offset:offset + length]
    return views


# ----------------------------------------------------------------------
# File-backed workload families (not cacheable; the file owns the bytes).

def _edgelist_builder(path: str, directed: bool, relabel: bool) -> Graph:
    return read_edge_list(path, directed=directed, relabel=relabel)


def _snap_builder(path: str, directed: bool) -> Graph:
    return read_snap(path, directed=directed)


def _metis_builder(path: str) -> Graph:
    return read_metis(path)


_REGISTERED = False


def register_io_workloads() -> None:
    """Register the file-backed workload families (idempotent)."""
    global _REGISTERED
    if _REGISTERED:
        return
    _REGISTERED = True
    register_workload(WorkloadFamily(
        name="edgelist",
        title="edge-list/TSV file (u v per line)",
        builder=_edgelist_builder,
        params=(ParamSpec("path", str, required=True),
                ParamSpec("directed", bool, False),
                ParamSpec("relabel", bool, False)),
        cacheable=False,
    ))
    register_workload(WorkloadFamily(
        name="snap",
        title="SNAP edge-list file (chunked parse, dense relabel)",
        builder=_snap_builder,
        params=(ParamSpec("path", str, required=True),
                ParamSpec("directed", bool, False)),
        cacheable=False,
    ))
    register_workload(WorkloadFamily(
        name="metis",
        title="METIS adjacency file (unweighted)",
        builder=_metis_builder,
        params=(ParamSpec("path", str, required=True),),
        cacheable=False,
    ))
