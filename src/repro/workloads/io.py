"""Dataset loaders and the on-disk snapshot formats.

Two ways bits become a :class:`~repro.graphs.graph.Graph`:

* :func:`read_edge_list` — whitespace/TSV edge lists (``u v`` per line,
  ``#`` comments; SNAP downloads included), parsed in bounded chunks so
  1e7+-edge files stream straight into a canonical graph, with optional
  dense relabeling of arbitrary integer ids to the ``0..n-1`` range the
  simulator requires;
* :func:`read_npz` / :func:`write_npz` — the snapshot format of the
  on-disk graph cache: canonical edge array plus the prebuilt CSR, so a
  load is a handful of array reads and a trusted
  :meth:`~repro.graphs.graph.Graph.from_canonical` call — no re-sorting,
  no re-validation, bit-identical to the graph that was written.

Snapshots store arrays at the narrowest safe dtype (int32 when all ids
fit, int64 otherwise — never a silent wrap) and are versioned; readers
reject snapshots written by an incompatible future format instead of
misinterpreting them.

The CSR snapshot is the only on-disk format: the per-machine shards of
a :class:`~repro.kmachine.distgraph.DistributedGraph` are derived from
it in memory, per placement, and never written.  The cache layer owns
paths and atomicity; this module owns only the bytes.

The edge-list reader is registered as the ``edgelist`` workload family
(``edgelist:path=graph.tsv``, or
``edgelist:path=soc-LiveJournal1.txt,relabel=true`` for a SNAP file).  It
is *not* cacheable: the spec string cannot content-address bytes owned
by an external file, so it rebuilds on every materialization.
"""

from __future__ import annotations

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
    "read_npz",
    "write_npz",
    "SNAPSHOT_VERSION",
    "SnapshotMissingError",
]

#: npz snapshot format version (see module docstring).
SNAPSHOT_VERSION = 1


class SnapshotMissingError(WorkloadError, FileNotFoundError):
    """A snapshot path with no file behind it.

    Inherits both: callers holding the :class:`WorkloadError` contract
    see an ordinary workload failure, while the graph cache — where a
    concurrent ``enforce_cap``/``evict`` may delete a snapshot between
    the hit check and the read — catches it as ``FileNotFoundError``
    and treats the read as a plain miss.
    """


#: Rows per parse chunk in :func:`read_edge_list` — bounds peak
#: text-buffer memory at roughly a few tens of MB regardless of file size.
EDGE_LIST_CHUNK_ROWS = 1 << 20


def read_edge_list(
    path: "str | Path",
    directed: bool = False,
    relabel: bool = False,
    chunk_rows: int = EDGE_LIST_CHUNK_ROWS,
) -> Graph:
    """Read a whitespace- or tab-separated edge list (``u v`` per line).

    Lines starting with ``#`` or ``%`` are comments; extra columns
    (timestamps, weights) are ignored.  Duplicate rows (and, for
    undirected graphs, reversed duplicates — the common "both directions
    on disk" convention of SNAP downloads) and self-loops are dropped.
    The file is parsed ``chunk_rows`` rows at a time through numpy's C
    tokenizer and folded per chunk, so it is never held whole.  With
    ``relabel=True`` arbitrary non-negative integer ids (int64, past the
    int32 range too) are densely renumbered in sorted order; otherwise
    ids are kept and ``n = max id + 1``.
    """
    path = Path(path)
    if not path.exists():
        raise WorkloadError(f"edge-list file not found: {path}")
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
            if block.min() < 0:
                raise WorkloadError(f"{path}: negative vertex id")
            # Fold within the chunk early so a duplicate-heavy file
            # (both orientations on disk) never holds all raw rows.
            chunks.append(_unique_rows(block, directed))
            if block.shape[0] < chunk_rows:
                break
    edges = np.concatenate(chunks) if chunks else np.zeros((0, 2), dtype=np.int64)
    if relabel:
        ids, edges = np.unique(edges, return_inverse=True)
        edges = edges.reshape(-1, 2)
        n = int(ids.size)
    else:
        n = int(edges.max()) + 1 if edges.size else 0
    return Graph(n=n, edges=_unique_rows(edges, directed), directed=directed)


def _unique_rows(block: np.ndarray, directed: bool) -> np.ndarray:
    """Drop self-loops and keep one row per (unordered, if undirected) pair.

    Row order is irrelevant: ``Graph`` canonicalizes the edge array.
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
# File-backed workload families (not cacheable; the file owns the bytes).

def _edgelist_builder(path: str, directed: bool, relabel: bool) -> Graph:
    return read_edge_list(path, directed=directed, relabel=relabel)


_REGISTERED = False


def register_io_workloads() -> None:
    """Register the file-backed ``edgelist`` workload family (idempotent)."""
    global _REGISTERED
    if _REGISTERED:
        return
    _REGISTERED = True
    register_workload(WorkloadFamily(
        name="edgelist",
        title="edge-list/TSV/SNAP file (u v per line; relabel=true for sparse ids)",
        builder=_edgelist_builder,
        params=(ParamSpec("path", str, required=True),
                ParamSpec("directed", bool, False),
                ParamSpec("relabel", bool, False)),
        cacheable=False,
    ))
