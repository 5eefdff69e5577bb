"""Scalable workload generators: vectorized samplers that build CSR graphs
for ``n >= 10^6`` in seconds.

Unlike the exact small-graph generators in :mod:`repro.graphs.generators`
(which enumerate all vertex pairs and therefore need ``O(n^2)`` work and
memory), every sampler here draws edges directly — R-MAT quadrant
recursion, per-block binomial counts for the SBM, grid-bucketed candidate
pairs for the geometric family, ring-lattice rewiring for the small-world
family — so the cost is ``O(m)`` up to deduplication.  All of them feed a
single canonicalization path (:func:`_dedupe_canonical`) and construct the
:class:`~repro.graphs.graph.Graph` from a plain edge array; no Python
loop ever touches an individual edge.

Sampling caveats (standard for fast samplers, and documented per family):
duplicate draws are discarded, so realized edge counts can fall slightly
below the requested average degree; the SBM and G(n, p) families draw the
edge *count* from the exact binomial but place edges by sampling with
replacement and deduplicating.

Every family takes an integer ``seed`` (dataset specs are fully
deterministic; there is no ``None``-seed spelling), and every sampler is
registered as a :class:`~repro.workloads.spec.WorkloadFamily` at import
time, next to thin adapters for the legacy quadratic generators
(``gnp``, ``chung-lu``, ``planted-triangles``).
"""

from __future__ import annotations

import math

import numpy as np

from repro._util import as_rng, check_positive_int
from repro.errors import WorkloadError
from repro.graphs import generators as _legacy
from repro.graphs.graph import Graph
from repro.workloads.spec import (
    ParamSpec,
    WorkloadFamily,
    register_workload,
)

__all__ = [
    "rmat_graph",
    "sbm_graph",
    "geometric_graph",
    "smallworld_graph",
    "register_builtin_workloads",
]

#: n above which the legacy all-pairs generators are refused (their
#: ``O(n^2)`` memory would dwarf the machine before producing a graph).
_QUADRATIC_LIMIT = 20_000


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """In-place sort + adjacent-inequality dedupe of a fresh key array.

    Produces exactly ``np.unique(keys)`` (sorted distinct values) but
    through the sort path unconditionally — ``np.unique``'s hash path
    is an order of magnitude slower on large int64 key arrays.
    """
    keys.sort()
    if keys.size < 2:
        return keys
    mask = np.empty(keys.size, dtype=bool)
    mask[0] = True
    np.not_equal(keys[1:], keys[:-1], out=mask[1:])
    return keys[mask]


def _draws_to_graph(u: np.ndarray, v: np.ndarray, n: int) -> Graph:
    """Canonicalize undirected endpoint draws into a Graph.

    Drops self-loops, folds duplicates, and sorts — deduping the packed
    ``(min, max)`` keys produces the canonical edge order directly, so
    construction takes the trusted :meth:`Graph.from_canonical_edges`
    fast path.
    """
    keep = u != v
    keys = (
        np.minimum(u[keep], v[keep]) * np.int64(n)
        + np.maximum(u[keep], v[keep])
    )
    return _keys_to_graph(_sorted_unique(keys), n)


def _in_sorted(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Membership mask of ``needles`` in the sorted array ``haystack``."""
    if not haystack.size:
        return np.zeros(needles.size, dtype=bool)
    idx = np.searchsorted(haystack, needles)
    idx[idx == haystack.size] = haystack.size - 1
    return haystack[idx] == needles


def _sample_unique_keys(draw, n: int, target: int, oversample: float) -> np.ndarray:
    """Accumulate ``target`` distinct canonical edge keys from a sampler.

    ``draw(size) -> (u, v)`` produces endpoint draws; self-loops and
    duplicates (within a batch and against earlier batches) are rejected,
    keeping the *first* occurrence so the result is a pure function of
    the RNG stream.  Each round oversamples the remaining need by
    ``oversample``; the loop is capped, so near-complete targets may
    return slightly fewer keys.  The returned key array is **sorted** —
    decoding it yields edges in canonical order, ready for
    :meth:`Graph.from_canonical_edges`.
    """
    chunks: list[np.ndarray] = []
    seen = np.zeros(0, dtype=np.int64)
    total = 0
    for _ in range(64):
        if total >= target:
            break
        batch = max(1024, int(oversample * (target - total)) + 64)
        u, v = draw(batch)
        keep = (u < n) & (v < n) & (u != v)
        keys = (
            np.minimum(u[keep], v[keep]) * np.int64(n)
            + np.maximum(u[keep], v[keep])
        )
        _, first = np.unique(keys, return_index=True)
        first.sort()
        keys = keys[first]
        if seen.size:
            keys = keys[~_in_sorted(seen, keys)]
        keys = keys[: target - total]
        chunks.append(keys)
        total += keys.size
        if total < target:
            seen = np.concatenate([seen, keys])
            seen.sort()
    out = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
    out.sort()
    return out


def _keys_to_graph(keys: np.ndarray, n: int) -> Graph:
    """Decode sorted canonical keys into a Graph via the trusted path."""
    edges = np.column_stack([keys // n, keys % n])
    return Graph.from_canonical_edges(n, edges, directed=False)


def rmat_graph(
    n: int,
    avg_deg: float = 16.0,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int | np.random.Generator | None = None,
) -> Graph:
    """Recursive-matrix (R-MAT / Graph500-style) heavy-tailed graph.

    Each edge picks one of four adjacency-matrix quadrants per bit level
    with probabilities ``(a, b, c, 1-a-b-c)``; all ``ceil(log2 n)`` levels
    are drawn as whole vectors, so sampling is ``O(m log n)`` with no
    Python loop over edges.  Draws landing on self-loops, out-of-range
    ids (when ``n`` is not a power of two), or already-sampled pairs are
    rejected and resampled, so the realized edge count reaches the target
    ``round(n * avg_deg / 2)`` except on near-complete inputs.
    """
    check_positive_int(n, "n")
    if n < 2:
        raise WorkloadError("rmat needs n >= 2")
    if min(a, b, c) < 0 or a + b + c >= 1.0:
        raise WorkloadError(
            f"quadrant probabilities must be non-negative with a+b+c < 1, "
            f"got a={a}, b={b}, c={c}"
        )
    if avg_deg <= 0:
        raise WorkloadError(f"avg_deg must be positive, got {avg_deg}")
    scale = max(1, math.ceil(math.log2(n)))
    max_edges = n * (n - 1) // 2
    target = min(int(round(n * avg_deg / 2.0)), max_edges)
    # Thresholds as float32: half the memory traffic of the level loop,
    # plenty of resolution for quadrant probabilities.
    t_a, t_ab, t_abc = np.float32(a), np.float32(a + b), np.float32(a + b + c)

    rng = as_rng(seed)

    def draw(batch: int) -> tuple[np.ndarray, np.ndarray]:
        u = np.zeros(batch, dtype=np.int64)
        v = np.zeros(batch, dtype=np.int64)
        for _level in range(scale):
            r = rng.random(batch, dtype=np.float32)
            # Quadrants (a | b / c | d): b and d set the column bit,
            # c and d set the row bit.
            u <<= 1
            u |= r >= t_ab
            v <<= 1
            v |= ((r >= t_a) & (r < t_ab)) | (r >= t_abc)
        return u, v

    keys = _sample_unique_keys(draw, n, target, oversample=1.1)
    return _keys_to_graph(keys, n)


def sbm_graph(
    n: int,
    blocks: int = 8,
    avg_deg: float = 16.0,
    mix: float = 0.1,
    seed: int | np.random.Generator | None = None,
) -> Graph:
    """Stochastic block model with ``blocks`` near-equal communities.

    ``mix`` is the fraction of the total expected edge mass placed on
    cross-block pairs (``0`` = disconnected communities, ``1`` = no
    within-block preference); within each regime the edge probability is
    uniform, chosen so the expected average degree is ``avg_deg``.  Edge
    counts per block pair are exact binomials; endpoint placement samples
    with replacement and deduplicates.
    """
    check_positive_int(n, "n")
    check_positive_int(blocks, "blocks")
    if blocks > n:
        raise WorkloadError(f"need blocks <= n, got blocks={blocks}, n={n}")
    if not (0.0 <= mix <= 1.0):
        raise WorkloadError(f"mix must lie in [0, 1], got {mix}")
    if avg_deg <= 0:
        raise WorkloadError(f"avg_deg must be positive, got {avg_deg}")
    rng = as_rng(seed)
    sizes = np.full(blocks, n // blocks, dtype=np.int64)
    sizes[: n % blocks] += 1
    offsets = np.zeros(blocks + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    pairs_within = int((sizes * (sizes - 1) // 2).sum())
    pairs_cross = n * (n - 1) // 2 - pairs_within
    m_target = n * avg_deg / 2.0
    p_in = min(1.0, (1.0 - mix) * m_target / pairs_within) if pairs_within else 0.0
    p_out = min(1.0, mix * m_target / pairs_cross) if pairs_cross else 0.0
    parts: list[tuple[np.ndarray, np.ndarray]] = []
    for i in range(blocks):
        for j in range(i, blocks):
            if i == j:
                p, pairs = p_in, int(sizes[i]) * (int(sizes[i]) - 1) // 2
            else:
                p, pairs = p_out, int(sizes[i]) * int(sizes[j])
            if p <= 0.0 or pairs == 0:
                continue
            count = int(rng.binomial(pairs, p))
            if count == 0:
                continue
            u = offsets[i] + rng.integers(0, sizes[i], size=count)
            v = offsets[j] + rng.integers(0, sizes[j], size=count)
            parts.append((u, v))
    if not parts:
        return Graph(n=n, edges=np.zeros((0, 2), dtype=np.int64), directed=False)
    u = np.concatenate([p[0] for p in parts])
    v = np.concatenate([p[1] for p in parts])
    return _draws_to_graph(u, v, n)


def geometric_graph(
    n: int,
    avg_deg: float = 16.0,
    seed: int | np.random.Generator | None = None,
) -> Graph:
    """Random geometric graph on the unit square.

    ``n`` points are dropped i.u.r.; vertices within Euclidean distance
    ``r = sqrt(avg_deg / (pi * n))`` are adjacent (boundary effects make
    the realized average degree slightly lower).  Candidate pairs come
    from a uniform grid with cell side ``>= r``: only the five forward
    cell offsets are scanned, each expanded with a grouped-arange gather,
    so the cost is ``O(n + m)`` instead of ``O(n^2)``.
    """
    check_positive_int(n, "n")
    if avg_deg <= 0:
        raise WorkloadError(f"avg_deg must be positive, got {avg_deg}")
    rng = as_rng(seed)
    r = math.sqrt(min(avg_deg, float(n)) / (math.pi * n))
    pts = rng.random((n, 2))
    ncell = max(1, int(1.0 / r))
    ix = np.minimum((pts[:, 0] * ncell).astype(np.int64), ncell - 1)
    iy = np.minimum((pts[:, 1] * ncell).astype(np.int64), ncell - 1)
    cid = ix * ncell + iy
    order = np.argsort(cid, kind="stable")
    pts_s, ix_s, iy_s = pts[order], ix[order], iy[order]
    counts = np.bincount(cid, minlength=ncell * ncell)
    indptr = np.zeros(ncell * ncell + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    pos = np.arange(n, dtype=np.int64)
    r2 = r * r
    parts: list[np.ndarray] = []
    # Forward-only offsets visit each unordered cell pair exactly once.
    for dx, dy in ((0, 0), (1, 0), (0, 1), (1, 1), (1, -1)):
        if dx == 0 and dy == 0:
            starts = pos + 1
            cnts = indptr[cid[order] + 1] - starts
        else:
            cx, cy = ix_s + dx, iy_s + dy
            valid = (cx < ncell) & (cy >= 0) & (cy < ncell)
            c2 = np.where(valid, cx * ncell + cy, 0)
            starts = indptr[c2]
            cnts = np.where(valid, indptr[c2 + 1] - starts, 0)
        total = int(cnts.sum())
        if total == 0:
            continue
        cum = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(cnts, out=cum[1:])
        within = np.arange(total, dtype=np.int64) - np.repeat(cum[:-1], cnts)
        left = np.repeat(pos, cnts)
        right = np.repeat(starts, cnts) + within
        d = pts_s[left] - pts_s[right]
        close = (d * d).sum(axis=1) <= r2
        parts.append(np.column_stack([order[left[close]], order[right[close]]]))
    if not parts:
        return Graph(n=n, edges=np.zeros((0, 2), dtype=np.int64), directed=False)
    raw = np.concatenate(parts)
    return _draws_to_graph(raw[:, 0], raw[:, 1], n)


def smallworld_graph(
    n: int,
    nbrs: int = 8,
    rewire: float = 0.1,
    seed: int | np.random.Generator | None = None,
) -> Graph:
    """Watts–Strogatz-style small world: ring lattice plus rewiring.

    Starts from the ring lattice where every vertex is adjacent to its
    ``nbrs`` nearest neighbors (``nbrs`` even); each lattice edge has its
    far endpoint redrawn uniformly with probability ``rewire``.  Rewired
    draws creating self-loops or duplicates are dropped rather than
    retried (a slight edge-count loss at high ``rewire``), keeping the
    whole construction loop-free.
    """
    check_positive_int(n, "n")
    check_positive_int(nbrs, "nbrs")
    if nbrs % 2 != 0 or nbrs >= n:
        raise WorkloadError(f"nbrs must be even and < n, got nbrs={nbrs}, n={n}")
    if not (0.0 <= rewire <= 1.0):
        raise WorkloadError(f"rewire must lie in [0, 1], got {rewire}")
    rng = as_rng(seed)
    base = np.arange(n, dtype=np.int64)
    u = np.concatenate([base for _ in range(nbrs // 2)])
    v = np.concatenate([(base + d) % n for d in range(1, nbrs // 2 + 1)])
    flip = rng.random(u.size) < rewire
    v = v.copy()
    v[flip] = rng.integers(0, n, size=int(flip.sum()))
    return _draws_to_graph(u, v, n)


# ----------------------------------------------------------------------
# Adapters around the legacy exact (quadratic) generators.

def _check_quadratic(n: int, family: str) -> None:
    if n > _QUADRATIC_LIMIT:
        raise WorkloadError(
            f"family {family!r} enumerates all vertex pairs and is limited "
            f"to n <= {_QUADRATIC_LIMIT}; use rmat/sbm/geometric/smallworld "
            f"for large graphs"
        )


def _gnp_builder(n: int, avg_deg: float, seed: int) -> Graph:
    """G(n, p) at ``p = avg_deg / (n - 1)``.

    Exact all-pairs sampling (the legacy generator) up to the quadratic
    limit; above it, the edge count is drawn from the exact binomial and
    placed by uniform pair sampling with deduplication and top-up.
    """
    check_positive_int(n, "n")
    if avg_deg < 0:
        raise WorkloadError(f"avg_deg must be non-negative, got {avg_deg}")
    p = min(1.0, avg_deg / max(1, n - 1))
    if n <= _QUADRATIC_LIMIT:
        return _legacy.gnp_random_graph(n, p, seed=seed)
    rng = as_rng(seed)
    max_edges = n * (n - 1) // 2
    target = int(rng.binomial(max_edges, p))

    def draw(batch: int) -> tuple[np.ndarray, np.ndarray]:
        return rng.integers(0, n, size=batch), rng.integers(0, n, size=batch)

    keys = _sample_unique_keys(draw, n, target, oversample=1.1)
    return _keys_to_graph(keys, n)


def _chung_lu_builder(n: int, exponent: float, avg_deg: float, seed: int) -> Graph:
    _check_quadratic(n, "chung-lu")
    return _legacy.chung_lu_graph(n, exponent=exponent, avg_degree=avg_deg, seed=seed)


def _planted_triangles_builder(
    n: int, triangles: int, noise_p: float, seed: int
) -> Graph:
    if noise_p > 0:
        _check_quadratic(n, "planted-triangles")
    return _legacy.planted_triangles_graph(
        n, num_triangles=triangles, seed=seed, noise_p=noise_p
    )


_REGISTERED = False


def register_builtin_workloads() -> None:
    """Register the built-in workload families (idempotent)."""
    global _REGISTERED
    if _REGISTERED:
        return
    _REGISTERED = True
    seed = ParamSpec("seed", int, default=0, minimum=0)
    n = ParamSpec("n", int, required=True, minimum=1)
    register_workload(WorkloadFamily(
        name="rmat",
        title="R-MAT heavy-tailed graph (Graph500-style quadrant recursion)",
        builder=rmat_graph,
        params=(n, ParamSpec("avg_deg", float, 16.0), ParamSpec("a", float, 0.57),
                ParamSpec("b", float, 0.19), ParamSpec("c", float, 0.19), seed),
    ))
    register_workload(WorkloadFamily(
        name="sbm",
        title="stochastic block model (near-equal communities)",
        builder=sbm_graph,
        params=(n, ParamSpec("blocks", int, 8), ParamSpec("avg_deg", float, 16.0),
                ParamSpec("mix", float, 0.1), seed),
    ))
    register_workload(WorkloadFamily(
        name="geometric",
        title="random geometric graph on the unit square (grid-bucketed)",
        builder=geometric_graph,
        params=(n, ParamSpec("avg_deg", float, 16.0), seed),
    ))
    register_workload(WorkloadFamily(
        name="smallworld",
        title="Watts-Strogatz small world (ring lattice + rewiring)",
        builder=smallworld_graph,
        params=(n, ParamSpec("nbrs", int, 8), ParamSpec("rewire", float, 0.1), seed),
    ))
    register_workload(WorkloadFamily(
        name="gnp",
        title="Erdos-Renyi G(n, p) at p = avg_deg/(n-1)",
        builder=_gnp_builder,
        params=(n, ParamSpec("avg_deg", float, 8.0), seed),
    ))
    register_workload(WorkloadFamily(
        name="chung-lu",
        title="Chung-Lu power-law graph (legacy exact sampler)",
        builder=_chung_lu_builder,
        params=(n, ParamSpec("exponent", float, 2.5),
                ParamSpec("avg_deg", float, 8.0), seed),
    ))
    register_workload(WorkloadFamily(
        name="planted-triangles",
        title="vertex-disjoint planted triangles plus optional G(n, p) noise",
        builder=_planted_triangles_builder,
        params=(n, ParamSpec("triangles", int, required=True),
                ParamSpec("noise_p", float, 0.0), seed),
    ))
