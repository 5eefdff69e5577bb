"""``Õ(n/k²)``-round distributed sorting (sample sort).

Input: ``n`` elements distributed i.u.r. across the ``k`` machines
(the sorting analogue of the RVP).  Output: machine ``i`` holds the
``i``-th contiguous block of order statistics — the output convention of
the paper's §1.3 sorting discussion.

Protocol (classic sample sort, AKS-style oversampling):

1. **Sample**: every machine includes each local element in a sample with
   probability ``Θ(k log n / n)`` and sends the sample to machine 0
   (``Õ(k)`` elements in total, ``Õ(1)`` per link — negligible).
2. **Splitters**: machine 0 sorts the samples, picks ``k - 1`` splitters
   at the sample quantiles, and broadcasts them (``Õ(k)`` bits per link).
3. **Redistribute**: every machine buckets its elements by splitter and
   ships each to its target machine.  Whp each bucket holds ``Õ(n/k)``
   elements; sources are random, so by Lemma 13 the phase costs
   ``Õ(n/k²)`` rounds — the dominant term.
4. **Local sort**: each machine sorts its bucket (free local computation).

Machine ``i``'s block is a contiguous range of the global order
statistics (blocks concatenate to the sorted sequence); oversampling keeps
every block at ``Õ(n/k)`` elements whp, which tests assert.
"""

from __future__ import annotations

import math

import numpy as np

from repro._util import check_positive_int
from repro.errors import AlgorithmError
from repro.kmachine import encoding
from repro.kmachine.cluster import Cluster
from repro.kmachine.engine import DEFAULT_ENGINE, MessageBatch
from repro.core.sorting.result import SortResult

__all__ = ["distributed_sort", "SortResult"]


def _sample_values_task(ctx, machine: int, rng, local_values: np.ndarray, p: float):
    """Superstep kernel: one machine's Bernoulli(p) sample of its elements.

    ``local_values`` are the elements placed on the machine; the single
    ``rng.random`` draw (made even when the machine is empty, exactly
    like the historical inline loop) keeps per-machine draw order
    identical on every engine.  Runs with ``ctx=None`` — the sorting
    family has no graph shards.
    """
    take = rng.random(local_values.size) < p
    return local_values[take]


def _sort_block_task(ctx, machine: int, rng, block):
    """Superstep kernel: sort one machine's received bucket (Phase 4).

    ``block`` is the machine's ``(rows, 2)`` array of ``(value, original
    index)`` pairs in delivery order, or ``None`` when the bucket is
    empty.  Ties in value break by original index, making the output
    deterministic given seeds.  Pure local compute — the dominant
    ``O((n/k) log(n/k))`` cost the process backend fans out.
    """
    if block is None:
        return None
    order = np.lexsort((block[:, 1], block[:, 0]))
    return block[order, 0]


def distributed_sort(
    values: np.ndarray,
    k: int,
    seed: int | None = None,
    bandwidth: int | None = None,
    assignment: np.ndarray | None = None,
    oversample: float = 8.0,
    engine: str = DEFAULT_ENGINE,
    cluster: Cluster | None = None,
) -> SortResult:
    """Sort ``values`` with ``k`` machines in ``Õ(n/k²)`` rounds.

    Parameters
    ----------
    values:
        ``(n,)`` array of comparable numbers (ties allowed; broken by
        original index to keep the protocol deterministic given seeds).
    assignment:
        Optional explicit element→machine placement; i.u.r. when omitted.
    oversample:
        Sampling-rate constant: each element is sampled with probability
        ``min(1, oversample * k * ln n / n)``.
    engine:
        Execution backend (``"vector"`` or ``"process"``).  The sample
        and redistribution streams are columnar ``(value, index)`` rows.
    """
    values = np.asarray(values)
    n = int(values.size)
    check_positive_int(k, "k")
    if n == 0:
        raise AlgorithmError("cannot sort an empty input")
    if cluster is None:
        cluster = Cluster(k=k, n=max(2, n), bandwidth=bandwidth, seed=seed, engine=engine)
    elif cluster.k != k:
        raise AlgorithmError(f"cluster has k={cluster.k}, expected {k}")
    if assignment is None:
        assignment = cluster.shared_rng.integers(0, k, size=n)
    else:
        assignment = np.asarray(assignment, dtype=np.int64)
        if assignment.shape != (n,) or (n and (assignment.min() < 0 or assignment.max() >= k)):
            raise AlgorithmError("assignment must map every element to a machine in [0, k)")

    val_bits = encoding.FLOAT_BITS

    # ------------------------------------------------------------------
    # Phase 1 — sampling to machine 0, as one columnar value stream.
    # Each machine's Bernoulli draws run in the sampling superstep
    # kernel on that machine's private stream.
    p = min(1.0, oversample * k * math.log(max(2, n)) / n)
    samples_per_machine = cluster.map_machines(
        _sample_values_task,
        None,
        [values[assignment == i] for i in range(k)],
        common={"p": p},
    )
    sample_parts: list[np.ndarray] = []
    remote_samples: list[np.ndarray] = []
    remote_src: list[np.ndarray] = []
    for i, sample in enumerate(samples_per_machine):
        if i == 0:
            sample_parts.append(sample)
        elif sample.size:
            remote_samples.append(sample)
            remote_src.append(np.full(sample.size, i, dtype=np.int64))
    sv = np.concatenate(remote_samples) if remote_samples else np.zeros(0, dtype=values.dtype)
    ss = np.concatenate(remote_src) if remote_src else np.zeros(0, dtype=np.int64)
    (sample_in,) = cluster.exchange_batches(
        [
            MessageBatch(
                kind="sort-sample",
                src=ss,
                dst=np.zeros(sv.size, dtype=np.int64),
                bits=np.full(sv.size, val_bits, dtype=np.int64),
                columns={"value": sv},
            )
        ],
        label="sort/sample",
    )
    sample_parts.append(sample_in.columns["value"])
    samples = np.sort(np.concatenate(sample_parts)) if sample_parts else np.zeros(0)

    # ------------------------------------------------------------------
    # Phase 2 — splitter selection and broadcast.
    if samples.size >= k:
        idx = (np.arange(1, k) * samples.size) // k
        splitters = samples[idx]
    else:
        # Degenerate sample: fall back to value-range splitters.
        lo, hi = float(values.min()), float(values.max())
        splitters = np.linspace(lo, hi, k + 1)[1:-1]
    cluster.broadcast(0, bits=int(max(1, splitters.size)) * val_bits, label="sort/splitters")

    # ------------------------------------------------------------------
    # Phase 3 — redistribution.  Bucket by value; searchsorted(right)
    # keeps values equal to a splitter in the lower bucket, and ties
    # within a bucket are later broken by original index.
    bucket = np.searchsorted(splitters, values, side="right")
    received: list[list[np.ndarray]] = [[] for _ in range(k)]
    idx_all = np.arange(n)
    local_mask = bucket == assignment
    for i in range(k):
        mine = local_mask & (assignment == i)
        if np.any(mine):
            received[i].append(np.column_stack([values[mine], idx_all[mine]]))
    remote = ~local_mask
    elem_bits = val_bits + encoding.vertex_id_bits(n)
    (elems_in,) = cluster.exchange_batches(
        [
            MessageBatch(
                kind="sort-elems",
                src=assignment[remote],
                dst=bucket[remote],
                bits=np.full(int(remote.sum()), elem_bits, dtype=np.int64),
                columns={"value": values[remote], "index": idx_all[remote]},
            )
        ],
        label="sort/redistribute",
    )
    for j in range(k):
        rows = elems_in.for_machine(j)
        if rows["value"].size:
            received[j].append(np.column_stack([rows["value"], rows["index"]]))

    # ------------------------------------------------------------------
    # Phase 4 — local sort (free in the model; the wall-clock hot spot
    # the process backend parallelizes), ties broken by original index.
    sorted_blocks = cluster.map_machines(
        _sort_block_task,
        None,
        [
            np.concatenate(received[j], axis=0) if received[j] else None
            for j in range(k)
        ],
    )
    blocks = [
        block if block is not None else np.zeros(0, dtype=values.dtype)
        for block in sorted_blocks
    ]
    return SortResult(blocks=blocks, metrics=cluster.metrics, splitters=np.asarray(splitters))
