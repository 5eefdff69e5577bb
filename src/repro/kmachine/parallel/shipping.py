"""Shared-memory shipment of per-superstep payloads and kernel results.

The :class:`~repro.kmachine.parallel.engine.ProcessEngine` moves two
kinds of data between the parent and its shard workers every superstep:
per-machine kernel *payloads* (parent -> worker) and kernel *results* —
typically columnar outbox fragments that the parent assembles into
:class:`~repro.kmachine.engine.MessageBatch` streams (worker -> parent).
Pickling large NumPy arrays over a pipe pays for itself three times: the
pickle buffer copy, the 64 KiB-chunked pipe writes, and the reassembly
on the other side.  For large phases this module ships the arrays
through one *per-shipment* :mod:`multiprocessing.shared_memory` segment
instead: the sender writes each array into the segment with a single
``memcpy`` and pipes only a small descriptor (segment name + field
table); the receiver maps the segment, copies the fields out, and
unlinks it.  Small shipments stay on the pipe — the descriptor overhead
only wins once the arrays are big (see :data:`SHM_MIN_BYTES`).

Wire format
-----------
:func:`ship` returns one of two tuples, both picklable and cheap:

``("inline", obj)``
    The object as-is; the pipe carries it (small-phase fallback).
``("shm", packed, name, fields)``
    ``packed`` is ``obj`` with every shipped array replaced by an
    :class:`_ArrayRef` placeholder; ``fields[i]`` is the ``(offset,
    shape, dtype-str)`` of placeholder ``i`` inside segment ``name``.

:func:`receive` inverts either form.  For the ``"shm"`` form the
*receiver* owns the segment's lifetime: it copies the fields out,
closes its mapping, and unlinks the name — so a shipment lives exactly
from :func:`ship` to :func:`receive` and a crashed receiver leaks at
most the shipments in flight.  Both ends suppress resource-tracker
registration (see :func:`create_untracked`): creator and receiver are
*different processes*, so tracker-based cleanup would double-unlink and
spam "leaked shared_memory" warnings at shutdown.

Only plain (unstructured, non-object) ndarrays travel through the
segment; anything else — scalars, ``None``, structured arrays, nested
dicts/lists/tuples — stays in ``packed`` and rides the pipe.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np

__all__ = [
    "SHM_MIN_BYTES",
    "ship",
    "receive",
    "discard",
    "create_untracked",
    "attach_untracked",
    "unlink_untracked",
]

#: Total array bytes below which a shipment stays on the pipe: 64 KiB,
#: one pipe buffer.
SHM_MIN_BYTES = 1 << 16

#: Segment offsets are aligned so every field starts on a boundary NumPy
#: is always happy to view any dtype at.
_ALIGN = 16


def _untracked(**kwargs) -> shared_memory.SharedMemory:
    """A SharedMemory with resource-tracker registration suppressed.

    Before Python 3.13 (``track=False``) both creating and attaching
    register the segment with the per-process-tree resource tracker.
    Shipping segments are created in one process and unlinked in
    another, and graph-store segments are unlinked by their creating
    engine, so exactly one side may own cleanup — registration is
    suppressed and the owner unlinks explicitly.
    """
    try:
        return shared_memory.SharedMemory(track=False, **kwargs)
    except TypeError:  # pragma: no cover - exercised on < 3.13
        pass
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kw: None
    try:
        return shared_memory.SharedMemory(**kwargs)
    finally:
        resource_tracker.register = original


def create_untracked(size: int) -> shared_memory.SharedMemory:
    """Create a segment whose unlink is owned explicitly, not by the tracker."""
    return _untracked(create=True, size=max(1, int(size)))


def attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to a segment without registering it with the resource tracker."""
    return _untracked(name=name)


def unlink_untracked(shm: shared_memory.SharedMemory) -> None:
    """Unlink a segment the tracker never knew about.

    Mirror of :func:`create_untracked` / :func:`attach_untracked`:
    before Python 3.13, ``SharedMemory.unlink`` unconditionally
    *unregisters* the name — which the tracker (shared by the whole fork
    tree) never saw for an untracked segment, so it would log a spurious
    ``KeyError`` traceback.  Suppress the unregistration to match the
    suppressed registration; on 3.13+ ``track=False`` handles both ends
    itself.
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.unregister
    resource_tracker.unregister = lambda *args, **kw: None
    try:
        shm.unlink()
    finally:
        resource_tracker.unregister = original


class _ArrayRef:
    """Placeholder left in a packed structure for a segment-shipped array."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index


def _shippable(arr: np.ndarray) -> bool:
    return arr.dtype != object and arr.dtype.names is None


def _pack(obj, arrays: list[np.ndarray]):
    """Replace every shippable ndarray in ``obj`` with an :class:`_ArrayRef`."""
    if isinstance(obj, np.ndarray) and _shippable(obj):
        arrays.append(obj)
        return _ArrayRef(len(arrays) - 1)
    if isinstance(obj, dict):
        return {key: _pack(value, arrays) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        packed = [_pack(value, arrays) for value in obj]
        return packed if isinstance(obj, list) else tuple(packed)
    return obj


def _shipped_bytes(obj) -> int:
    """Total bytes the segment would carry — a pack-free pre-walk."""
    if isinstance(obj, np.ndarray) and _shippable(obj):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_shipped_bytes(value) for value in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_shipped_bytes(value) for value in obj)
    return 0


def _unpack(obj, arrays: list[np.ndarray]):
    if isinstance(obj, _ArrayRef):
        return arrays[obj.index]
    if isinstance(obj, dict):
        return {key: _unpack(value, arrays) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_unpack(value, arrays) for value in obj]
    if isinstance(obj, tuple):
        return tuple(_unpack(value, arrays) for value in obj)
    return obj


def ship(obj, threshold: int | None = None):
    """Encode ``obj`` for the pipe, spilling large arrays to shared memory.

    ``threshold`` overrides :data:`SHM_MIN_BYTES` (tests force the shm
    path with 0).  The caller pipes the returned tuple verbatim; the
    other end decodes it with :func:`receive`, which owns the segment's
    unlink.  If the tuple is never delivered, the caller should pass it
    to :func:`discard` to release the segment.
    """
    threshold = SHM_MIN_BYTES if threshold is None else threshold
    # Cheap pre-walk first: the common case (small superstep) must not
    # pay for rebuilding the nested structure it will never use.
    if _shipped_bytes(obj) < threshold:
        return ("inline", obj)
    arrays: list[np.ndarray] = []
    packed = _pack(obj, arrays)
    if not arrays:
        return ("inline", obj)
    fields = []
    offset = 0
    for arr in arrays:
        offset = -(-offset // _ALIGN) * _ALIGN
        fields.append((offset, arr.shape, arr.dtype.str))
        offset += arr.nbytes
    shm = create_untracked(offset)
    try:
        for arr, (off, _, _) in zip(arrays, fields):
            dst = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf, offset=off)
            np.copyto(dst, arr)
    finally:
        shm.close()
    return ("shm", packed, shm.name, fields)


def receive(wire):
    """Decode a :func:`ship` tuple, consuming (and unlinking) its segment."""
    if wire[0] == "inline":
        return wire[1]
    _, packed, name, fields = wire
    shm = attach_untracked(name)
    try:
        arrays = [
            np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=off).copy()
            for off, shape, dtype in fields
        ]
    finally:
        shm.close()
        try:
            unlink_untracked(shm)
        except FileNotFoundError:  # pragma: no cover - already reclaimed
            pass
    return _unpack(packed, arrays)


def discard(wire) -> None:
    """Release a shipped-but-undeliverable tuple's segment (idempotent)."""
    if wire[0] != "shm":
        return
    try:
        shm = attach_untracked(wire[2])
    except FileNotFoundError:
        return
    shm.close()
    try:
        unlink_untracked(shm)
    except FileNotFoundError:  # pragma: no cover
        pass
