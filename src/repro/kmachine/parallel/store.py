"""Shared-memory publication of :class:`DistributedGraph` state for workers.

The :class:`~repro.kmachine.parallel.engine.ProcessEngine` runs per-machine
superstep kernels in worker processes.  Those kernels read the same local
state every driver reads — the CSR arrays, the partition's ``home`` map,
the cached ``nbr_home`` column, and the per-machine hosted-vertex lists —
which together are ``O(n + m)`` integers.  Shipping them over a pipe per
superstep would drown any speedup, so :class:`SharedGraphStore` publishes
them **once per (graph, partition)** into a single
:mod:`multiprocessing.shared_memory` segment, and every worker attaches a
:class:`SharedGraphView` — zero-copy ``np.ndarray`` views over the mapped
buffer exposing the same read surface as the :class:`DistributedGraph`
the inline engines hand to kernels.

Lifecycle
---------
The creating process owns the segment: :meth:`SharedGraphStore.close`
unmaps and (by default) unlinks it.  Stores are owned by the
:class:`~repro.kmachine.parallel.pool.WorkerPool` that published them
(so warm pools keep hot graphs mapped across runs) and are closed on
pool destruction — including on the error path when a worker dies
mid-superstep, so a crashed run never leaks segments.  Workers call
:meth:`SharedGraphView.detach` on shutdown; attachments suppress
resource-tracker registration so the creating process's unlink is the
single authoritative cleanup (see
:func:`~repro.kmachine.parallel.shipping.attach_untracked`).
"""

from __future__ import annotations

import os
from multiprocessing import shared_memory

import numpy as np

from repro.errors import ModelError
from repro.kmachine.distgraph import DistributedGraph, HomeGroupedNeighbors
from repro.kmachine.parallel.shipping import attach_untracked

__all__ = ["SharedGraphStore", "SharedGraphView"]


class _CsrView:
    """The slice of the :class:`~repro.graphs.graph.Graph` API kernels read."""

    __slots__ = ("n", "indptr", "indices")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.n = n
        self.indptr = indptr
        self.indices = indices


class SharedGraphView(HomeGroupedNeighbors):
    """Zero-copy worker-side view of a published :class:`SharedGraphStore`.

    Exposes the read surface superstep kernels use on the inline engines'
    :class:`DistributedGraph` context: :attr:`graph` (``.indptr`` /
    ``.indices``), :attr:`home`, :attr:`nbr_home`, :attr:`parts`,
    :attr:`k`, :attr:`n`, and — with the same definitions as
    ``DistributedGraph`` — :attr:`home_groups` and :attr:`local_index`.
    Neither table is published: a worker
    builds each from the attached arrays the first time a kernel reads
    it (only PageRank does), into private memory, so the segment layout
    is the same for every family.
    """

    def __init__(self, shm: shared_memory.SharedMemory, meta: dict) -> None:
        self._shm = shm
        self._home_groups = None
        self._local_index = None
        self.key: str = meta["key"]
        self.k: int = meta["k"]
        self.n: int = meta["n"]
        arrays = {}
        for name, offset, length, dtype in meta["fields"]:
            arrays[name] = np.ndarray(
                (length,), dtype=np.dtype(dtype), buffer=shm.buf, offset=offset
            )
        self.home = arrays["home"]
        self.nbr_home = arrays["nbr_home"]
        self.graph = _CsrView(self.n, arrays["indptr"], arrays["indices"])
        offsets = arrays["parts_offsets"]
        flat = arrays["parts_flat"]
        #: Per-machine hosted-vertex arrays (views, index = machine).
        self.parts = [
            flat[int(offsets[i]) : int(offsets[i + 1])] for i in range(self.k)
        ]

    @classmethod
    def attach(cls, meta: dict) -> "SharedGraphView":
        """Attach to a published store by its metadata (worker side).

        Attachments suppress resource-tracker registration (see
        :func:`~repro.kmachine.parallel.shipping.attach_untracked`):
        only the creating process owns the segment's cleanup, so an
        attaching worker's registration would be cancelled by the
        creator's unlink (or vice versa), producing spurious "leaked
        shared_memory" noise at shutdown.
        """
        return cls(attach_untracked(meta["key"]), meta)

    def detach(self) -> None:
        """Unmap the segment; the view's arrays must not be used afterwards."""
        # Drop the ndarray views before closing the mmap, else close() raises
        # BufferError on the exported buffer.
        self.parts = []
        self._home_groups = self._local_index = None
        self.home = self.nbr_home = None  # type: ignore[assignment]
        self.graph = None  # type: ignore[assignment]
        self._shm.close()


class SharedGraphStore:
    """Publish one ``(graph, partition)``'s shard state into shared memory.

    Parameters
    ----------
    distgraph:
        The :class:`DistributedGraph` to publish.  The arrays are copied
        into one shared segment at construction; the store does not keep
        the distgraph alive.
    """

    def __init__(self, distgraph: DistributedGraph) -> None:
        g = distgraph.graph
        parts = distgraph.parts
        sizes = np.array([p.size for p in parts], dtype=np.int64)
        parts_offsets = np.zeros(distgraph.k + 1, dtype=np.int64)
        np.cumsum(sizes, out=parts_offsets[1:])
        parts_flat = (
            np.concatenate(parts) if parts_offsets[-1] else np.zeros(0, dtype=np.int64)
        )
        arrays = {
            "indptr": g.indptr,
            "indices": g.indices,
            "home": distgraph.home,
            "nbr_home": distgraph.nbr_home,
            "parts_flat": parts_flat,
            "parts_offsets": parts_offsets,
        }
        arrays = {
            name: np.ascontiguousarray(arr, dtype=np.int64)
            for name, arr in arrays.items()
        }
        total = sum(arr.nbytes for arr in arrays.values())
        self._shm = shared_memory.SharedMemory(create=True, size=max(8, total))
        fields = []
        offset = 0
        for name, arr in arrays.items():
            dst = np.ndarray(arr.shape, dtype=arr.dtype, buffer=self._shm.buf, offset=offset)
            np.copyto(dst, arr)
            fields.append((name, offset, int(arr.size), arr.dtype.str))
            offset += arr.nbytes
        self._meta = {
            "key": self._shm.name,
            "pid": os.getpid(),
            "k": distgraph.k,
            "n": distgraph.n,
            "fields": fields,
        }
        self._closed = False

    @property
    def key(self) -> str:
        """Unique store id (the shared segment's name)."""
        return self._meta["key"]

    def meta(self) -> dict:
        """Attachment metadata for :meth:`SharedGraphView.attach`."""
        if self._closed:
            raise ModelError("shared graph store is closed")
        return self._meta

    def close(self, unlink: bool = True) -> None:
        """Unmap and (by default) destroy the segment.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._shm.close()
        if unlink:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __del__(self) -> None:  # pragma: no cover - gc-order dependent
        try:
            self.close()
        except Exception:
            pass
