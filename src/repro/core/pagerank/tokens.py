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

    a broadcast ``rng.multinomial(counts, pvals)`` is draw-identical to
    sequential calls only when every row has the same ``len(pvals)``.

NumPy runs the rows of a broadcast call sequentially through the same
C routine as a scalar call, so the sending side (every row is a
distribution over the ``k`` machines) is one call.  The receiving
side's rows have one entry per locally-hosted neighbor, so their widths
differ; zero-padding them to a common width costs extra draws (the last
real entry stops being the draw-free remainder), so that side keeps one
call per row and vectorizes everything around it.

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

# Uniform pvals for the common narrow receive rows, indexed by width (a
# row has at least two entries when it draws), so the per-row loop does
# not allocate them; wider rows build their own.
_UNIFORM = (None, None, *(np.full(s, 1.0 / s) for s in range(2, 65)))


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
    Only ``rng.multinomial`` itself runs per row (widths differ, see the
    module docstring), and not at all for a row with a single local
    neighbor: a one-entry multinomial draws nothing.
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
    local = nbrs[np.arange(int(ends[-1])) + np.repeat(lo - (ends - sizes), sizes)]
    multi = sizes > 1
    tabled = len(_UNIFORM)
    drawn = [
        rng.multinomial(c, _UNIFORM[s] if s < tabled else np.full(s, 1.0 / s))
        for s, c in zip(sizes[multi].tolist(), counts[multi].tolist())
    ]
    picks = np.empty(local.size, dtype=np.int64)
    in_multi = np.repeat(multi, sizes)
    picks[~in_multi] = counts[~multi]
    if drawn:
        picks[in_multi] = np.concatenate(drawn)
    landed = picks > 0
    return local[landed], picks[landed]
