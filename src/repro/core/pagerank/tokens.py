"""Vectorized random-walk token kinematics for Algorithm 1.

Token state is a per-vertex integer count; all sampling is numpy-
vectorized per machine per iteration (the HPC guides' "vectorize the hot
loop"): termination is a batched binomial, light-vertex moves expand
counts into per-token uniform neighbor picks, heavy-vertex moves sample a
multinomial over destination *machines* weighted by the vertex's neighbor
distribution (Algorithm 1, line 23) and the receiving machine re-samples
concrete neighbors (lines 31-36).

The heavy path is batched: :func:`move_heavy_tokens` and
:func:`receive_heavy_tokens` handle a machine's whole batch and are what
the superstep kernels call.  They consume the generator *draw for draw*
like one call per vertex / per β row in row order (the per-row oracle
lives in ``tests/pagerank/test_tokens.py``, compared on outputs and
``bit_generator.state``), under one batching rule:

    a broadcast ``rng.multinomial(counts, pvals)`` runs its rows in
    order through the scalar routine, so it is draw-identical to one
    call per row when each row is that row's ``pvals`` behind *leading*
    zeros; *trailing* zeros are not draw-free.

NumPy's multinomial draws one binomial per entry but the last, which
takes the remainder without drawing.  A leading entry of 0 is a
``binomial(p=0)``, which returns 0 without touching the bit generator
and leaves the remaining mass at exactly 1; a trailing 0 would turn the
row's last real entry into a drawn binomial.  The sending side (every
row is a distribution over the ``k`` machines) is therefore one call.
The receiving side's rows have one entry per locally-hosted neighbor,
so their widths differ: each block of :data:`_BLOCK` consecutive rows
is one call with every row right-aligned to the block's widest (a
width-1 row stays draw-free, its only entry being the remainder).  A
row wider than :data:`_WIDE` is a call of its own: padding a whole
block to its width would cost more than the call.

Neither side scans adjacency rows.  Both read the graph through its
home-grouped table ``(start, nbrs)`` (``ctx.home_groups``, built once
per graph by :func:`~repro.kmachine.distgraph.group_neighbors_by_home`):
the neighbors of ``u`` hosted on machine ``j`` are
``nbrs[start[u*k + j] : start[u*k + j + 1]]``, in CSR order.  The sending
side's per-machine counts are ``np.diff(start[u*k : u*k + k + 1])``; the
receiving side's row widths and local neighbors are one offset pair per
row.  CSR order inside a group is what keeps the draws identical: it
decides which neighbor each multinomial entry maps to.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AlgorithmError

__all__ = [
    "terminate_tokens",
    "move_light_tokens",
    "move_heavy_tokens",
    "receive_heavy_tokens",
]

_EMPTY = np.zeros(0, dtype=np.int64)

# Receiving-side blocking: at most _BLOCK consecutive rows per broadcast
# multinomial, and a row wider than _WIDE is a call of its own.  Every
# padded cell costs NumPy a few ns (checks, then a draw-free binomial),
# so one wide row would pad a whole block for more than a call costs.
_BLOCK = 256
_WIDE = 64


def terminate_tokens(
    counts: np.ndarray, eps: float, rng: np.random.Generator
) -> np.ndarray:
    """Terminate each token independently with probability ``eps``.

    Returns the surviving counts (Algorithm 1, lines 5-6).
    """
    counts = np.asarray(counts)
    if counts.size == 0:
        return counts.copy()
    terminated = rng.binomial(counts, eps)
    return counts - terminated


def move_light_tokens(
    vertices: np.ndarray,
    counts: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Move every token of the given light vertices to a uniform out-neighbor.

    Returns ``(dest_vertices, dest_counts)`` aggregated per destination —
    the array ``α`` of Algorithm 1 (lines 8-14): counts are summed across
    *all* light source vertices of the machine, which is the aggregation
    that avoids per-edge congestion.

    Vertices with out-degree 0 absorb their tokens (they terminate).
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if vertices.size == 0 or counts.sum() == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    deg = indptr[vertices + 1] - indptr[vertices]
    live = (deg > 0) & (counts > 0)
    vertices, counts, deg = vertices[live], counts[live], deg[live]
    if vertices.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    # One row per token: repeat each vertex by its token count, then pick a
    # uniform neighbor index within its adjacency slice.
    deg_rep = np.repeat(deg, counts)
    offsets = rng.integers(0, deg_rep)
    dests = indices[np.repeat(indptr[vertices], counts) + offsets]
    agg = np.bincount(dests)
    dest_vertices = np.flatnonzero(agg)
    return dest_vertices.astype(np.int64), agg[dest_vertices].astype(np.int64)


def move_heavy_tokens(
    vertices: np.ndarray,
    counts: np.ndarray,
    home_groups: tuple[np.ndarray, np.ndarray],
    k: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample destination machines for one machine's heavy vertices.

    Algorithm 1, line 23: each token of heavy vertex ``u`` picks machine
    ``j`` with probability ``n_{j,u} / d_u`` (the fraction of ``u``'s
    neighbors hosted at ``j``, read off the home-grouped table
    ``home_groups = (start, nbrs)``; see the module docstring).

    Returns the non-zero β entries as ``(src_vertices, machines, counts)``
    in emission order (vertex order, then ascending machine).  Draws
    exactly what one ``rng.multinomial`` call per vertex would:
    one broadcast multinomial whose rows all have width ``k``.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    start, _ = home_groups
    bounds = start[vertices[:, None] * k + np.arange(k + 1)]
    deg = bounds[:, k] - bounds[:, 0]
    live = (deg > 0) & (counts > 0)
    if not live.any():
        return _EMPTY, _EMPTY, _EMPTY
    vertices = vertices[live]
    per_machine = np.diff(bounds[live], axis=1)
    pvals = per_machine / deg[live, None].astype(np.float64)
    beta = rng.multinomial(counts[live], pvals)
    src, machines = np.nonzero(beta)
    return vertices[src], machines, beta[src, machines]


def _no_local_neighbors(vertex: int, machine: int | None) -> AlgorithmError:
    where = "a machine" if machine is None else f"machine {machine}"
    return AlgorithmError(
        f"{where} received tokens for vertex {vertex} but hosts none of its neighbors"
    )


def receive_heavy_tokens(
    vertices: np.ndarray,
    counts: np.ndarray,
    machine: int,
    home_groups: tuple[np.ndarray, np.ndarray],
    k: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Receiving side of heavy messages (Algorithm 1, lines 31-36).

    ``machine`` delivers each token of a β row to a uniform vertex among
    the locally-hosted neighbors of the row's heavy source, read off the
    home-grouped table ``home_groups = (start, nbrs)`` (see the module
    docstring).

    ``vertices``/``counts`` are the β rows ``machine`` re-samples, in
    order.  Returns the concatenated per-row ``(dest_vertices,
    dest_counts)``; draws exactly what one multinomial per row would.
    Consecutive rows share one broadcast call per block (at most
    :data:`_BLOCK` rows, a row wider than :data:`_WIDE` alone), each
    row's uniform ``1/s`` entries right-aligned behind leading zeros,
    which draw nothing; a width-1 row draws nothing either way.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if vertices.size == 0:
        return _EMPTY, _EMPTY
    start, nbrs = home_groups
    slot = vertices * k + machine
    lo = start[slot]
    sizes = start[slot + 1] - lo
    if not sizes.all():
        raise _no_local_neighbors(int(vertices[np.argmin(sizes)]), machine)
    ends = np.cumsum(sizes)
    begins = ends - sizes
    total = int(ends[-1])
    local = nbrs[np.arange(total) + np.repeat(lo - begins, sizes)]
    n = sizes.size
    wide = np.flatnonzero(sizes > _WIDE)
    firsts = np.union1d(np.arange(0, n, _BLOCK), np.concatenate([wide, wide + 1]))
    firsts = firsts[firsts < n]
    rows = np.diff(firsts, append=n)
    width = np.maximum.reduceat(sizes, firsts)
    # Row i, the q-th of its block, fills the last s_i cells of row q of
    # the block's (rows, width) pvals: its entries sit at flat cells
    # (q + 1) * width - s_i + r, i.e. each entry's index plus a per-row shift.
    row_end = np.repeat(width * (1 - firsts), rows) + np.repeat(width, rows) * np.arange(n)
    pos = np.arange(total) + np.repeat(row_end - ends, sizes)
    uniform = np.repeat(1.0 / sizes, sizes)
    picks = np.empty(total, dtype=np.int64)
    row_at = np.append(firsts, n).tolist()
    entry_at = np.append(begins[firsts], total).tolist()
    for a, b, e0, e1, w in zip(row_at, row_at[1:], entry_at, entry_at[1:], width.tolist()):
        if b - a == 1:  # no padding: the per-row call itself
            picks[e0:e1] = rng.multinomial(counts[a], uniform[e0:e1])
            continue
        cells = pos[e0:e1]
        pvals = np.zeros((b - a) * w)
        pvals[cells] = uniform[e0:e1]
        picks[e0:e1] = rng.multinomial(counts[a:b], pvals.reshape(b - a, w)).reshape(-1)[cells]
    landed = picks > 0
    return local[landed], picks[landed]
