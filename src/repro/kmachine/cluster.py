"""The :class:`Cluster`: machines, per-machine RNG streams, and the network.

A :class:`Cluster` bundles everything an algorithm driver needs:

* ``k`` machines (indices ``0 .. k-1``),
* a :class:`~repro.kmachine.network.LinkNetwork` with bandwidth ``B``,
* one independent, seeded :class:`numpy.random.Generator` per machine
  (the paper's "private source of true random bits") plus one shared
  generator (the public random string used by the lower-bound analysis).

Algorithms are written as *drivers*: per superstep they compute each
machine's outgoing traffic from that machine's local state only, then
charge it through one of three phase primitives —
:meth:`Cluster.exchange_batches` (columnar traffic that is delivered),
:meth:`Cluster.account_phase` (aggregate-only phases: the ``(k, k)``
link loads alone, nothing delivered) and :meth:`Cluster.map_groups`
(superstep kernels, one call per machine group; :meth:`Cluster.map_machines`
is its per-machine form).  This is the BSP-style structure the
paper itself notes the k-machine model simplifies.

*How* a phase executes is delegated to a pluggable execution engine
(``engine="vector"``, the default, or ``engine="process"`` for
multiprocessing shard workers — see :mod:`repro.kmachine.engine` and
:mod:`repro.kmachine.parallel`); both produce identical results and
identical round/message/bit accounting, which the test suite checks
against a per-object oracle engine (``tests/message_engine.py``).  The
process backend runs :meth:`Cluster.map_groups` kernels in its workers.
"""

from __future__ import annotations

import weakref
from typing import Sequence

import numpy as np

from repro._util import polylog, spawn_rngs
from repro.errors import ModelError
from repro.kmachine.engine import (
    DEFAULT_ENGINE,
    DeliveredBatch,
    Engine,
    MessageBatch,
    make_engine,
)
from repro.kmachine.metrics import Metrics
from repro.kmachine.network import LinkNetwork

__all__ = ["Cluster"]


class Cluster:
    """A simulated k-machine cluster.

    Parameters
    ----------
    k:
        Number of machines, ``k >= 2``.
    n:
        Problem-size parameter used to pick the default bandwidth
        ``B = Θ(polylog n)``; required when ``bandwidth`` is omitted.
    bandwidth:
        Link bandwidth in bits/round.  Defaults to
        ``polylog(n) = 32 * ceil(log2 n)``.
    seed:
        Master seed; spawns ``k`` private machine generators and one shared
        generator, all reproducible.
    engine:
        Execution backend: ``"vector"`` (columnar/vectorized, the
        default — :data:`~repro.kmachine.engine.DEFAULT_ENGINE`),
        ``"process"`` (multiprocessing shard workers over a
        shared-memory graph store), or an
        :class:`~repro.kmachine.engine.Engine` subclass.
    workers:
        Worker-pool size for the process backend (defaults to the CPU
        count, capped at ``k``); invalid with the in-process backends.
    """

    def __init__(
        self,
        k: int,
        n: int | None = None,
        bandwidth: int | None = None,
        seed: int | None = None,
        engine: "str | type[Engine]" = DEFAULT_ENGINE,
        workers: int | None = None,
    ) -> None:
        if bandwidth is None:
            if n is None:
                raise ModelError("provide either bandwidth or n (for the polylog default)")
            bandwidth = polylog(n)
        # The network validates k (the model needs k >= 2).
        self.network = LinkNetwork(k=k, bandwidth=int(bandwidth))
        self.k = self.network.k
        self.n = None if n is None else int(n)
        self.engine: Engine = make_engine(engine, self.network, workers=workers)
        rngs = spawn_rngs(seed, self.k + 1)
        #: Per-machine private random generators.
        self.machine_rngs: list[np.random.Generator] = rngs[: self.k]
        #: The shared ("public") random string generator.
        self.shared_rng: np.random.Generator = rngs[self.k]
        self.seed = seed
        # A leaked cluster must not strand a held worker pool: the
        # finalizer runs engine.close() at garbage collection (the bound
        # method keeps the engine alive exactly as long as the cluster,
        # never the cluster itself), releasing the pool back to the warm
        # registry.  close() routes through it, making explicit close,
        # context-manager exit, and GC a single idempotent path.
        self._close_finalizer = weakref.finalize(self, self.engine.close)

    # ------------------------------------------------------------------
    @property
    def bandwidth(self) -> int:
        """Link bandwidth ``B`` in bits per round."""
        return self.network.bandwidth

    @property
    def metrics(self) -> Metrics:
        """Accumulated execution metrics."""
        return self.network.metrics

    def exchange_batches(
        self, batches: Sequence[MessageBatch], label: str = ""
    ) -> list[DeliveredBatch]:
        """Run one columnar communication phase via the engine.

        All batches share the phase: rounds are charged once as
        ``max_ij ceil(L_ij / B)`` over their combined link loads.
        """
        return self.engine.exchange_batches(batches, label=label)

    def map_groups(self, task, distgraph, payloads, common: dict | None = None,
                   resident=None) -> list:
        """Run a group kernel once per scheduling group; results in group order.

        ``task(ctx, machines, rngs, payloads, states, **common)`` gets a
        group's machines (ascending) with their RNG streams, payloads and
        resident states (``None`` without ``resident``, a handle from
        :meth:`install_resident`).  The inline backends run all ``k``
        machines as one group; the process backend runs one group per
        worker, machines ``w, w + W, ...``, in the worker that holds
        their streams — so a cluster whose driver dispatches kernels must
        route *all* machine-RNG draws through them.  Each machine's draws
        must come from its own stream in its own order (see
        :meth:`Engine.map_groups`).
        """
        return self.engine.map_groups(
            task, distgraph, payloads, self.machine_rngs, common=common,
            resident=resident,
        )

    def map_machines(self, task, distgraph, payloads, common: dict | None = None,
                     resident=None) -> list:
        """Run a per-machine superstep kernel; results in machine order.

        ``task(ctx, machine, rng, payload, **common)`` — with the
        machine's resident state inserted after ``payload`` when
        ``resident`` is given — runs once per machine, by a group kernel
        that :meth:`map_groups` dispatches and that loops over its
        group's machines.
        """
        return self.engine.map_machines(
            task, distgraph, payloads, self.machine_rngs, common=common,
            resident=resident,
        )

    def install_resident(self, states, distgraph=None):
        """Install per-machine driver state that persists across supersteps.

        Returns a :class:`~repro.kmachine.engine.ResidentHandle` to pass
        as ``map_groups(..., resident=handle)`` (or ``map_machines``).  Inline engines keep
        the states in-process; the process engine ships each machine's
        state to its owning worker once, after which only deltas travel
        per superstep.  Pull final state with :meth:`pull_resident`
        *before* :meth:`close` and release it with :meth:`drop_resident`.
        """
        return self.engine.install_resident(
            states, distgraph=distgraph, rngs=self.machine_rngs
        )

    def pull_resident(self, handle) -> list:
        """The current per-machine resident states, in machine order."""
        return self.engine.pull_resident(handle)

    def drop_resident(self, handle) -> None:
        """Release a resident state bundle (idempotent)."""
        self.engine.drop_resident(handle)

    def account_phase(
        self,
        bits_matrix: np.ndarray,
        messages_matrix: np.ndarray,
        label: str = "",
        local_messages: int = 0,
    ) -> int:
        """Account an aggregate-only phase (see :meth:`LinkNetwork.account_phase`)."""
        return self.engine.account_phase(
            bits_matrix, messages_matrix, label=label, local_messages=local_messages
        )

    def broadcast(self, src: int, bits: int, label: str = "broadcast") -> int:
        """Charge machine ``src`` sending one ``bits``-bit message to every other machine.

        The sender is excluded (``k - 1`` copies, one per other machine);
        ``bits`` is the per-copy wire size and must be positive.  Nothing
        is delivered: the phase is accounted through
        :meth:`account_phase`, and its rounds are returned.
        """
        if not (0 <= src < self.k):
            raise ModelError(f"machine index {src} out of range [0, {self.k})")
        if int(bits) <= 0:
            raise ModelError(f"broadcast message size must be positive, got {bits}")
        msgs = np.zeros((self.k, self.k), dtype=np.int64)
        msgs[src] = 1
        msgs[src, src] = 0
        return self.account_phase(msgs * int(bits), msgs, label=label)

    def close(self) -> None:
        """Release engine resources (the process backend's worker pool).

        A no-op for the in-process backends; idempotent (repeat calls —
        and the garbage-collection finalizer of a leaked cluster — do
        nothing after the first).  With the process backend the pool
        goes back to the warm registry for the next cluster to reuse;
        see :func:`repro.kmachine.parallel.shutdown_worker_pools` for
        full teardown.  Clusters are also usable as context managers
        (``with Cluster(...) as c:``).
        """
        self._close_finalizer()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
