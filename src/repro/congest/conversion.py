"""The Conversion Theorem (Klauck et al., SODA 2015) as a transformation.

A CONGEST algorithm over the input graph can be simulated in the
k-machine model: each vertex is simulated by its home machine, and each
CONGEST edge message ``u -> v`` travels the machine link
``home(u) -> home(v)`` (free when the endpoints share a machine).  Each
CONGEST round becomes one k-machine communication phase, whose round
cost is exactly the heaviest link load over ``B`` — which is how the
``Õ(n/k)`` bottleneck at high-degree vertices arises, and what the
paper's direct algorithms (Algorithm 1, Theorem 5) avoid.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.kmachine.cluster import Cluster
from repro.kmachine.engine import DEFAULT_ENGINE
from repro.kmachine.metrics import Metrics, unit_load_matrix
from repro.kmachine.partition import VertexPartition
from repro.congest.model import CongestExecution

__all__ = ["convert_execution"]


def convert_execution(
    execution: CongestExecution,
    partition: VertexPartition,
    k: int,
    bandwidth: int | None = None,
    seed: int | None = None,
    addressing_bits: int | None = None,
    engine: str = DEFAULT_ENGINE,
) -> Metrics:
    """Replay a recorded CONGEST execution in the k-machine model.

    Parameters
    ----------
    execution:
        A :class:`CongestExecution` (e.g. from :func:`congest_pagerank`).
    partition:
        Vertex→machine placement (the RVP of the original input).
    k, bandwidth:
        The target k-machine configuration; ``bandwidth`` defaults to
        ``polylog(n)`` via the cluster.
    addressing_bits:
        Per-message overhead added on conversion.  A CONGEST message is
        implicitly addressed by the edge it travels; once multiplexed
        over machine links it must carry the simulated edge's identity —
        the ``O(log n)``-factor overhead inherent to the Conversion
        Theorem.  Defaults to ``2 * ceil(log2 n)`` (source and
        destination vertex ids).
    engine:
        Execution backend for the replay cluster (``"vector"`` or
        ``"process"``); replay is aggregate-only, so both backends charge
        identical rounds.

    Returns
    -------
    Metrics
        Exact round/message/bit accounting of the converted run: one
        phase per CONGEST round.
    """
    if partition.k != k:
        raise ModelError(f"partition uses k={partition.k}, expected {k}")
    if partition.n != execution.n:
        raise ModelError(
            f"partition covers {partition.n} vertices, execution has {execution.n}"
        )
    if addressing_bits is None:
        from repro.kmachine import encoding

        addressing_bits = 2 * encoding.vertex_id_bits(max(2, execution.n))
    cluster = Cluster(k=k, n=max(2, execution.n), bandwidth=bandwidth, seed=seed, engine=engine)
    home = partition.home
    for rnd, traffic in enumerate(execution.rounds):
        src_m = home[traffic.src] if traffic.src.size else np.zeros(0, dtype=np.int64)
        dst_m = home[traffic.dst] if traffic.dst.size else np.zeros(0, dtype=np.int64)
        msgs, local = unit_load_matrix(src_m, dst_m, k)
        # Payload bits differ per message; local ones land on the diagonal.
        bits = msgs * addressing_bits
        np.add.at(bits, (src_m, dst_m), traffic.bits)
        np.fill_diagonal(bits, 0)
        cluster.account_phase(
            bits, msgs, label=f"conversion/round-{rnd}", local_messages=local
        )
    return cluster.metrics
