"""Scalable workload generators: vectorized samplers that build CSR graphs
for ``n >= 10^6`` in seconds.

Unlike the exact small-graph generators in :mod:`repro.graphs.generators`
(which enumerate all vertex pairs and therefore need ``O(n^2)`` work and
memory), the samplers here draw edges directly — R-MAT quadrant
recursion, and uniform pair draws for ``gnp`` above the quadratic limit —
so the cost is ``O(m)`` up to deduplication.  Both feed one
canonicalization path (:func:`_sample_unique_keys`) and construct the
:class:`~repro.graphs.graph.Graph` from sorted canonical keys; no Python
loop ever touches an individual edge.

Sampling caveats (standard for fast samplers): duplicate draws are
discarded, so realized edge counts can fall slightly below the requested
average degree; the large-n G(n, p) sampler draws the edge *count* from
the exact binomial but places edges by sampling with replacement and
deduplicating.

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

__all__ = ["rmat_graph", "register_builtin_workloads"]

#: n above which the legacy all-pairs generators are refused (their
#: ``O(n^2)`` memory would dwarf the machine before producing a graph).
_QUADRATIC_LIMIT = 20_000


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


# ----------------------------------------------------------------------
# Adapters around the legacy exact (quadratic) generators.

def _check_quadratic(n: int, family: str) -> None:
    if n > _QUADRATIC_LIMIT:
        raise WorkloadError(
            f"family {family!r} enumerates all vertex pairs and is limited "
            f"to n <= {_QUADRATIC_LIMIT}; use rmat or gnp for large graphs"
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
    if avg_deg <= 0:  # the expected-degree weights would sum to zero
        raise WorkloadError(f"avg_deg must be positive, got {avg_deg}")
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
