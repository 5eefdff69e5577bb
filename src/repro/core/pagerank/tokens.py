"""Vectorized random-walk token kinematics for Algorithm 1.

Token state is a per-vertex integer count; all sampling is numpy-
vectorized per group of machines per iteration (the HPC guides'
"vectorize the hot loop"): termination is a batched binomial, light-vertex
moves expand counts into per-token uniform neighbor picks, heavy-vertex
moves sample a multinomial over destination *machines* weighted by the
vertex's neighbor distribution (Algorithm 1, line 23) and the receiving
machine re-samples concrete neighbors (lines 31-36).

Every function takes a *machine column* — the machine that owns each
input row, its rows contiguous (the superstep kernels pass a group's
rows machine-major) — and ``rngs``, where ``rngs[j]`` is machine ``j``'s
private generator.  Deterministic work runs once over all rows; every
RNG call covers one machine's contiguous run of rows and draws from that
machine's generator, so each machine consumes exactly the draws it
would running alone, in the same order, however machines are grouped.

They consume each generator *draw for draw* like one call per vertex /
per β row in row order (the per-row oracle lives in
``tests/pagerank/test_tokens.py``, compared on outputs and every
machine's ``bit_generator.state``), under one batching rule:

    a broadcast ``rng.multinomial(counts, pvals)`` runs its rows in
    order through the scalar routine, so it is draw-identical to one
    call per row when each row is that row's ``pvals`` behind *leading*
    zeros; *trailing* zeros are not draw-free.

NumPy's multinomial draws one binomial per entry but the last, which
takes the remainder without drawing.  A leading entry of 0 is a
``binomial(p=0)``, which returns 0 without touching the bit generator
and leaves the remaining mass at exactly 1; a trailing 0 would turn the
row's last real entry into a drawn binomial.  The sending side (every
row is a distribution over the ``k`` machines) is therefore one call per
machine.  The receiving side's rows have one entry per locally-hosted
neighbor, so their widths differ: each block of at most :data:`_BLOCK`
consecutive rows of one machine is one call with every row right-aligned
to the block's widest (a width-1 row stays draw-free, its only entry
being the remainder).  A block never spans two machines, and a row
wider than :data:`_WIDE` is a call of its own: padding a whole block to
its width would cost more than the call.

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


def _runs(machine: np.ndarray) -> list[tuple[int, int, int]]:
    """``(machine, lo, hi)`` per run of equal entries of a machine column."""
    if machine.size == 0:
        return []
    cuts = np.flatnonzero(machine[1:] != machine[:-1]) + 1
    lo = np.concatenate(([0], cuts))
    hi = np.concatenate((cuts, [machine.size]))
    return list(zip(machine[lo].tolist(), lo.tolist(), hi.tolist()))


def terminate_tokens(
    counts: np.ndarray, eps: float, machine: np.ndarray, rngs
) -> np.ndarray:
    """Terminate each token independently with probability ``eps``.

    Returns the surviving counts (Algorithm 1, lines 5-6): one batched
    binomial per machine's run of rows.
    """
    counts = np.asarray(counts)
    out = counts.copy()
    for m, lo, hi in _runs(np.asarray(machine)):
        out[lo:hi] -= rngs[m].binomial(counts[lo:hi], eps)
    return out


def move_light_tokens(
    vertices: np.ndarray,
    counts: np.ndarray,
    machine: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    rngs,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Move every token of the given light vertices to a uniform out-neighbor.

    Returns ``(machines, dest_vertices, dest_counts)`` aggregated per
    machine and destination — the arrays ``α`` of Algorithm 1 (lines
    8-14): each machine's counts are summed across *all* of its light
    source vertices, which is the aggregation that avoids per-edge
    congestion.  Rows are machine-major, destinations ascending.

    Vertices with out-degree 0 absorb their tokens (they terminate).
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    machine = np.asarray(machine, dtype=np.int64)
    deg = indptr[vertices + 1] - indptr[vertices]
    live = (deg > 0) & (counts > 0)
    if not live.any():
        return _EMPTY, _EMPTY, _EMPTY
    vertices, counts, deg = vertices[live], counts[live], deg[live]
    # One row per token: repeat each vertex by its token count, then pick a
    # uniform neighbor index within its adjacency slice, one call per machine.
    deg_rep = np.repeat(deg, counts)
    offsets = np.empty(deg_rep.size, dtype=np.int64)
    runs = _runs(machine[live])
    run_machine = np.array([m for m, _, _ in runs], dtype=np.int64)
    ends = np.cumsum(counts)[[hi - 1 for _, _, hi in runs]]
    bounds = [0] + ends.tolist()
    for m, lo, hi in zip(run_machine.tolist(), bounds, bounds[1:]):
        offsets[lo:hi] = rngs[m].integers(0, deg_rep[lo:hi])
    dests = indices[np.repeat(indptr[vertices], counts) + offsets]
    # Aggregate per (machine run, destination) with one segment count.
    n = indptr.size - 1
    run_base = np.arange(0, n * len(runs), n)
    agg = np.bincount(dests + np.repeat(run_base, np.diff(bounds)))
    key = np.flatnonzero(agg)
    return run_machine[key // n], key % n, agg[key]


def move_heavy_tokens(
    vertices: np.ndarray,
    counts: np.ndarray,
    machine: np.ndarray,
    home_groups: tuple[np.ndarray, np.ndarray],
    k: int,
    rngs,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sample destination machines for heavy vertices' tokens.

    Algorithm 1, line 23: each token of heavy vertex ``u`` picks machine
    ``j`` with probability ``n_{j,u} / d_u`` (the fraction of ``u``'s
    neighbors hosted at ``j``, read off the home-grouped table
    ``home_groups = (start, nbrs)``; see the module docstring).

    Returns the non-zero β entries as ``(machines, src_vertices,
    dest_machines, counts)`` in emission order (row order, then ascending
    destination), ``machines`` being each row's sender.  Draws exactly
    what one ``rng.multinomial`` call per vertex would: one broadcast
    multinomial per machine whose rows all have width ``k``.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    machine = np.asarray(machine, dtype=np.int64)
    start, _ = home_groups
    bounds = start[vertices[:, None] * k + np.arange(k + 1)]
    deg = bounds[:, k] - bounds[:, 0]
    live = (deg > 0) & (counts > 0)
    if not live.any():
        return _EMPTY, _EMPTY, _EMPTY, _EMPTY
    vertices, counts, machine = vertices[live], counts[live], machine[live]
    per_machine = np.diff(bounds[live], axis=1)
    pvals = per_machine / deg[live, None].astype(np.float64)
    beta = np.empty((vertices.size, k), dtype=np.int64)
    for m, lo, hi in _runs(machine):
        beta[lo:hi] = rngs[m].multinomial(counts[lo:hi], pvals[lo:hi])
    src, dest = np.nonzero(beta)
    return machine[src], vertices[src], dest, beta[src, dest]


def _no_local_neighbors(vertex: int, machine: int | None) -> AlgorithmError:
    where = "a machine" if machine is None else f"machine {machine}"
    return AlgorithmError(
        f"{where} received tokens for vertex {vertex} but hosts none of its neighbors"
    )


def receive_heavy_tokens(
    vertices: np.ndarray,
    counts: np.ndarray,
    machine: np.ndarray,
    home_groups: tuple[np.ndarray, np.ndarray],
    k: int,
    rngs,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Receiving side of heavy messages (Algorithm 1, lines 31-36).

    Row ``i`` is a β row that machine ``machine[i]`` re-samples: it
    delivers each token to a uniform vertex among the locally-hosted
    neighbors of the row's heavy source ``vertices[i]``, read off the
    home-grouped table ``home_groups = (start, nbrs)`` (see the module
    docstring).

    Returns the concatenated per-row ``(machines, dest_vertices,
    dest_counts)``; each machine draws exactly what one multinomial per
    row of its own would.  Consecutive rows of one machine share one
    broadcast call per block (at most :data:`_BLOCK` rows, a row wider
    than :data:`_WIDE` alone), each row's uniform ``1/s`` entries
    right-aligned behind leading zeros, which draw nothing; a width-1
    row draws nothing either way.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    machine = np.asarray(machine, dtype=np.int64)
    if vertices.size == 0:
        return _EMPTY, _EMPTY, _EMPTY
    start, nbrs = home_groups
    slot = vertices * k + machine
    lo = start[slot]
    sizes = start[slot + 1] - lo
    if not sizes.all():
        bad = int(np.argmin(sizes))
        raise _no_local_neighbors(int(vertices[bad]), int(machine[bad]))
    ends = np.cumsum(sizes)
    begins = ends - sizes
    total = int(ends[-1])
    local = nbrs[np.arange(total) + np.repeat(lo - begins, sizes)]
    n = sizes.size
    # Blocks start every _BLOCK rows of each machine's run, and around
    # every wide row; so a block never spans two machines.
    runs = _runs(machine)
    first = np.zeros(n, dtype=bool)
    for _, a, b in runs:
        first[a:b:_BLOCK] = True
    wide = np.flatnonzero(sizes > _WIDE)
    first[wide] = True
    first[wide[wide + 1 < n] + 1] = True
    firsts = np.flatnonzero(first)
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
    owners = machine[firsts].tolist()
    for a, b, e0, e1, w, m in zip(row_at, row_at[1:], entry_at, entry_at[1:],
                                  width.tolist(), owners):
        rng = rngs[m]
        if b - a == 1:  # no padding: the per-row call itself
            picks[e0:e1] = rng.multinomial(counts[a], uniform[e0:e1])
            continue
        cells = pos[e0:e1]
        pvals = np.zeros((b - a) * w)
        pvals[cells] = uniform[e0:e1]
        picks[e0:e1] = rng.multinomial(counts[a:b], pvals.reshape(b - a, w)).reshape(-1)[cells]
    landed = np.flatnonzero(picks)
    # Entries are machine-major like the rows: each run's landed picks
    # are one slice of ``landed``.
    per_run = np.diff(np.searchsorted(landed, [begins[a] for _, a, _ in runs] + [total]))
    return np.repeat([m for m, _, _ in runs], per_run), local[landed], picks[landed]
