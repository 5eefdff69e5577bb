"""Pluggable execution engines for the k-machine simulator.

An :class:`Engine` decides *how* one communication phase is represented
and executed; the algorithm drivers decide *what* is sent.  The product
has two backends, and :data:`DEFAULT_ENGINE` is the one place the
default is named:

:class:`VectorEngine` (``"vector"``, the default)
    A dataflow-style backend: a phase's traffic is a handful of
    :class:`MessageBatch` objects — columnar NumPy arrays of per-message
    ``(src, dst, bits)`` plus payload columns — and round accounting,
    link congestion, and delivery grouping are computed with dense
    ``(k, k)`` matrices and ``np.add.at`` / ``lexsort``, never touching
    a Python loop over messages.

:class:`~repro.kmachine.parallel.engine.ProcessEngine` (``"process"``)
    Inherits the vectorized exchange layer and runs per-machine
    superstep kernels (:meth:`Engine.map_machines`) in a pool of worker
    processes attached zero-copy to a shared-memory graph store.
    :data:`ENGINES` lists it by module, which is imported on its first
    lookup.

The test suite adds one more: a per-object *oracle* engine
(``tests/message_engine.py``, registered as ``message`` by
``tests/conftest.py``) that tallies and delivers every batch row one at
a time in Python.  It is the message-passing reading of the model taken
literally, and the cross-engine, golden and driver-oracle suites
compare the product engines against it; whole runs on it are
1.3–1.8x slower on the batched families (PageRank, triangles) and no
slower on the accounting-only ones (MST, connectivity).

Every engine charges rounds through the same
:meth:`LinkNetwork.account_phase` primitive and delivers batch rows in the same
*canonical order* (destination machine, then source machine, then
emission order), so a driver written against the batch API produces
bit-identical results, round counts, and per-link bit totals on any
backend — which the property tests in
``tests/property/test_property_engines.py`` assert for every algorithm
family.

A phase whose messages nobody reads (control flags, verdict broadcasts,
a scatter whose receivers rebuild the data locally) passes its ``(k, k)``
loads to :meth:`Engine.account_phase` instead of delivering them.
"""

from __future__ import annotations

import importlib
import itertools
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import ModelError
from repro.kmachine.metrics import Metrics
from repro.kmachine.network import LinkNetwork
from repro.obs.trace import NULL_TRACER

__all__ = [
    "MessageBatch",
    "DeliveredBatch",
    "Engine",
    "VectorEngine",
    "ResidentHandle",
    "ENGINES",
    "DEFAULT_ENGINE",
    "engine_class",
    "make_engine",
]

_RESIDENT_COUNTER = itertools.count()


class ResidentHandle:
    """A token for per-machine state installed once and kept between supersteps.

    Created by :meth:`Engine.install_resident` and passed back via
    ``map_machines(..., resident=handle)``: the kernel then runs as
    ``task(ctx, machine, rng, payload, state, **common)`` with
    ``state`` the machine's resident object, and mutations persist to
    the next superstep without ever crossing the driver/worker boundary.
    On the inline engines the states simply live in :attr:`states`; on
    the process engine they are shipped once to the owning workers and
    :attr:`states` is ``None`` (use :meth:`Engine.pull_resident` to read
    them back).
    """

    __slots__ = ("token", "states", "store_key")

    def __init__(self, token: str, states: "list | None", store_key: "str | None" = None) -> None:
        self.token = token
        self.states = states
        self.store_key = store_key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = "inline" if self.states is not None else "worker-resident"
        return f"ResidentHandle({self.token!r}, {where})"


def _as_int_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise ModelError(f"{name} must be a 1-D array, got shape {arr.shape}")
    return arr


@dataclass(slots=True)
class MessageBatch:
    """One homogeneous stream of logical messages in columnar form.

    Parameters
    ----------
    kind:
        Tag shared by every message of the stream (e.g. ``"pr-light"``).
    src, dst:
        ``(t,)`` machine indices per logical message.
    bits:
        ``(t,)`` wire size per logical message (positive).
    columns:
        Named payload arrays, each with leading dimension ``t``.  Rows
        across columns describe one logical message.
    """

    kind: str
    src: np.ndarray
    dst: np.ndarray
    bits: np.ndarray
    columns: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.src = _as_int_array(self.src, "src")
        self.dst = _as_int_array(self.dst, "dst")
        self.bits = _as_int_array(self.bits, "bits")
        t = self.src.size
        if self.dst.size != t or self.bits.size != t:
            raise ModelError(
                f"batch {self.kind!r}: src/dst/bits lengths differ "
                f"({t}/{self.dst.size}/{self.bits.size})"
            )
        for name, col in self.columns.items():
            col = np.asarray(col)
            if col.shape[:1] != (t,):
                raise ModelError(
                    f"batch {self.kind!r}: column {name!r} has leading "
                    f"dimension {col.shape[:1]}, expected ({t},)"
                )
            self.columns[name] = col
        if t and self.bits.min() <= 0:
            raise ModelError(f"batch {self.kind!r}: message sizes must be positive")

    def __len__(self) -> int:
        return int(self.src.size)


@dataclass(slots=True)
class DeliveredBatch:
    """A :class:`MessageBatch` after delivery, in canonical order.

    Rows are sorted by ``(dst, src, emission order)``; ``offsets`` is a
    ``(k + 1,)`` array such that machine ``j``'s rows occupy
    ``slice(offsets[j], offsets[j + 1])``.  Both engines produce the
    same row order, so driver-side consumption (including any RNG use
    per row) is backend-independent.
    """

    kind: str
    src: np.ndarray
    dst: np.ndarray
    bits: np.ndarray
    columns: dict[str, np.ndarray]
    offsets: np.ndarray

    def __len__(self) -> int:
        return int(self.src.size)

    def machine_slice(self, j: int) -> slice:
        """Row range delivered to machine ``j``."""
        return slice(int(self.offsets[j]), int(self.offsets[j + 1]))

    def for_machine(self, j: int) -> dict[str, np.ndarray]:
        """Machine ``j``'s rows as ``{"src": ..., **columns}`` slices."""
        sl = self.machine_slice(j)
        out = {"src": self.src[sl]}
        for name, col in self.columns.items():
            out[name] = col[sl]
        return out


def _canonical_delivery(batch: MessageBatch, k: int) -> DeliveredBatch:
    """Reorder a batch into canonical delivered order."""
    t = len(batch)
    order = np.lexsort((np.arange(t), batch.src, batch.dst))
    dst = batch.dst[order]
    offsets = np.searchsorted(dst, np.arange(k + 1))
    return DeliveredBatch(
        kind=batch.kind,
        src=batch.src[order],
        dst=dst,
        bits=batch.bits[order],
        columns={name: col[order] for name, col in batch.columns.items()},
        offsets=offsets,
    )


def _top_links(bits_mat: np.ndarray, top: int) -> list[list[int]] | None:
    """The ``top`` heaviest ``[src, dst, bits]`` links of a phase, or None.

    Trace-path only: called when a tracer is enabled and asked for link
    attribution, so the ``argpartition`` cost never touches untraced runs.
    """
    if top <= 0:
        return None
    flat = bits_mat.ravel()
    if flat.size == 0 or not flat.any():
        return None
    top = min(int(top), flat.size)
    idx = np.argpartition(flat, -top)[-top:]
    idx = idx[np.argsort(flat[idx])[::-1]]
    k = bits_mat.shape[1]
    return [
        [int(i // k), int(i % k), int(flat[i])]
        for i in idx
        if flat[i] > 0
    ] or None


class Engine:
    """Executes communication phases against a :class:`LinkNetwork`.

    Subclasses implement :meth:`exchange_batches` (columnar traffic);
    :meth:`account_phase` and :meth:`map_machines` are shared.  All
    accounting flows into the shared
    :class:`~repro.kmachine.metrics.Metrics` of the bound network, so
    backends are interchangeable mid-run.
    """

    name: str = "abstract"
    #: Whether the constructor accepts a ``workers`` pool-size setting.
    supports_workers: bool = False

    def __init__(self, network: LinkNetwork) -> None:
        self.network = network
        #: ``time.perf_counter()`` of the first phase activity (exchange,
        #: accounting, or superstep dispatch) this engine executed, or
        #: ``None`` before any.  The runtime uses it to split cold-start
        #: setup (materialize + partition + shard) from algorithm time.
        self.first_activity: float | None = None
        #: Trace sink for per-phase wall-clock events.  Defaults to the
        #: shared no-op singleton; :func:`repro.runtime.run` swaps in a
        #: live :class:`~repro.obs.trace.Tracer` for traced runs.  Every
        #: instrumentation site guards on ``self.tracer.enabled`` so the
        #: untraced hot path pays one attribute load and one branch per
        #: phase — no clock reads, no event allocations.
        self.tracer = NULL_TRACER

    def _mark_activity(self) -> None:
        if self.first_activity is None:
            self.first_activity = time.perf_counter()
            # Seed the tracer's driver_s attribution point at the
            # setup/superstep boundary so the first phase charges only
            # its own parent-side compute, never shard materialization.
            self.tracer.mark(self.first_activity)

    # -- shared properties ---------------------------------------------
    @property
    def k(self) -> int:
        """Number of machines."""
        return self.network.k

    @property
    def metrics(self) -> Metrics:
        """The bound network's cumulative metrics."""
        return self.network.metrics

    # -- phase execution -------------------------------------------------
    def exchange_batches(
        self, batches: Sequence[MessageBatch], label: str = ""
    ) -> list[DeliveredBatch]:
        """Run one columnar communication phase (one phase for all batches)."""
        raise NotImplementedError

    def account_phase(
        self,
        bits_matrix: np.ndarray,
        messages_matrix: np.ndarray,
        label: str = "",
        local_messages: int = 0,
    ) -> int:
        """Account an aggregate-only phase (no payloads to deliver)."""
        self._mark_activity()
        if not self.tracer.enabled:
            return self.network.account_phase(
                bits_matrix, messages_matrix, label=label, local_messages=local_messages
            )
        t0 = time.perf_counter()
        rounds = self.network.account_phase(
            bits_matrix, messages_matrix, label=label, local_messages=local_messages
        )
        self.tracer.phase(
            "account_phase",
            label,
            time.perf_counter() - t0,
            stats=self.metrics.phase_log[-1],
            top_links=_top_links(np.asarray(bits_matrix), self.tracer.top_links),
        )
        return rounds

    # -- superstep compute scheduling -----------------------------------
    def map_machines(
        self, task, distgraph, payloads: Sequence, rngs, common: dict | None = None,
        resident: "ResidentHandle | None" = None, assemble=None,
    ) -> list:
        """Run one per-machine compute kernel for every machine.

        ``task`` is a module-level callable
        ``task(ctx, machine, rng, payload, **common) -> result`` where
        ``ctx`` exposes the read surface of a
        :class:`~repro.kmachine.distgraph.DistributedGraph` (``parts``,
        ``home``, ``nbr_home``, ``graph.indptr`` / ``graph.indices``,
        ``home_groups``, ``local_index``, ``local_neighbors``) — or is
        ``None`` when the caller passes ``distgraph=None`` (kernels over
        non-graph inputs, e.g. the sorting family).  ``payloads[i]`` is machine ``i``'s
        per-superstep input; ``rngs[i]`` its private Generator.  Returns
        the ``k`` results in machine order.

        ``resident`` names per-machine state previously installed with
        :meth:`install_resident`; the kernel is then called as
        ``task(ctx, machine, rng, payload, state, **common)`` and any
        mutation of ``state`` persists to the next superstep (on the
        process backend the state never leaves the owning worker).

        ``assemble`` is a module-level callable
        ``assemble(machines, results) -> aggregate`` that folds one
        scheduling group's ordered kernel results into a single
        aggregate (typically concatenated columnar outbox fragments).
        The return value is then a list of *group aggregates* instead of
        ``k`` per-machine results: one group covering all machines on
        the inline backends, one group per worker (its machines in
        ascending order) on the process backend.  Aggregates must
        therefore be order-insensitive to concatenate — which columnar
        ``MessageBatch`` fragments are, because canonical delivery
        re-sorts rows by ``(dst, src, emission)`` and per-machine rows
        stay contiguous and emission-ordered within any group.

        The inline backends run the kernels serially against the
        distgraph itself — exactly the per-machine loop drivers used to
        inline — while the process backend dispatches them to shard
        workers holding the RNG streams; because each machine's draws
        stay in per-machine order on an independent stream, both
        executions are draw-for-draw identical.
        """
        self._mark_activity()
        k = self.k
        if len(payloads) != k:
            raise ModelError(
                f"expected one payload per machine ({k}), got {len(payloads)}"
            )
        common = common or {}
        trace = self.tracer.enabled
        t0 = time.perf_counter() if trace else 0.0
        if resident is not None:
            states = resident.states
            if states is None:
                raise ModelError(
                    f"resident state {resident.token!r} is not readable by an "
                    f"inline engine (it was installed on a process engine, or "
                    f"already dropped)"
                )
            results = [
                task(distgraph, i, rngs[i], payloads[i], states[i], **common)
                for i in range(k)
            ]
        else:
            results = [task(distgraph, i, rngs[i], payloads[i], **common) for i in range(k)]
        t1 = time.perf_counter() if trace else 0.0
        if assemble is not None:
            results = [assemble(list(range(k)), results)]
        if trace:
            t2 = time.perf_counter()
            segments = {"kernel_s": t1 - t0}
            if assemble is not None:
                segments["assemble_s"] = t2 - t1
            self.tracer.phase(
                "map_machines",
                getattr(task, "__name__", str(task)),
                t2 - t0,
                segments=segments,
            )
        return results

    # -- worker-resident driver state -----------------------------------
    def install_resident(
        self, states: Sequence, distgraph=None, rngs=None
    ) -> ResidentHandle:
        """Install one per-machine state object to survive between supersteps.

        ``states[i]`` becomes machine ``i``'s resident state, passed to
        every subsequent ``map_machines(..., resident=handle)`` kernel
        call for that machine.  The inline engines keep the objects
        parent-side (so installation is free); the process backend ships
        each state once to the machine's owning worker under a
        holder-scoped token, after which only per-superstep deltas cross
        the pipe.  ``distgraph`` (optional) binds the state's lifetime
        to that graph's published store on the process backend — if the
        store is evicted, the resident state is dropped with it.
        ``rngs`` is the cluster's machine-RNG list, needed by the
        process backend when installation precedes the first superstep.
        """
        self._mark_activity()
        t0 = time.perf_counter() if self.tracer.enabled else 0.0
        states = list(states)
        if len(states) != self.k:
            raise ModelError(
                f"expected one resident state per machine ({self.k}), "
                f"got {len(states)}"
            )
        handle = ResidentHandle(f"rs-inline-{next(_RESIDENT_COUNTER)}", states)
        if self.tracer.enabled:
            self.tracer.phase("resident", "install", time.perf_counter() - t0)
        return handle

    def pull_resident(self, handle: ResidentHandle) -> list:
        """Fetch the current per-machine resident states (machine order)."""
        self._mark_activity()
        t0 = time.perf_counter() if self.tracer.enabled else 0.0
        if handle.states is None:
            raise ModelError(
                f"resident state {handle.token!r} is not held by this engine "
                f"(dropped, or installed on a process engine)"
            )
        states = list(handle.states)
        if self.tracer.enabled:
            self.tracer.phase("resident", "pull", time.perf_counter() - t0)
        return states

    def drop_resident(self, handle: ResidentHandle) -> None:
        """Release a resident state's memory.  Idempotent."""
        handle.states = None

    def close(self) -> None:
        """Release engine-held resources (worker pools, shared segments)."""

    def _validate_batches(self, batches: Sequence[MessageBatch]) -> None:
        k = self.k
        for batch in batches:
            if len(batch) == 0:
                continue
            if batch.src.min() < 0 or batch.src.max() >= k:
                raise ModelError(
                    f"batch {batch.kind!r}: source machine out of range [0, {k})"
                )
            if batch.dst.min() < 0 or batch.dst.max() >= k:
                raise ModelError(
                    f"batch {batch.kind!r}: destination machine out of range [0, {k})"
                )


class VectorEngine(Engine):
    """The vectorized backend: dense load matrices, columnar delivery.

    Per phase it materializes no message objects at all: per-link bit and
    message loads are scattered into ``(k, k)`` matrices, round cost is
    computed from those matrices, and payload rows are regrouped per
    destination with one stable ``lexsort`` per batch.
    """

    name = "vector"

    def exchange_batches(
        self, batches: Sequence[MessageBatch], label: str = ""
    ) -> list[DeliveredBatch]:
        self._mark_activity()
        self._validate_batches(batches)
        trace = self.tracer.enabled
        t0 = time.perf_counter() if trace else 0.0
        k = self.k
        bits_mat = np.zeros((k, k), dtype=np.int64)
        msgs_mat = np.zeros((k, k), dtype=np.int64)
        local = 0
        for batch in batches:
            if len(batch) == 0:
                continue
            remote = batch.src != batch.dst
            local += int(np.count_nonzero(~remote))
            rs, rd = batch.src[remote], batch.dst[remote]
            np.add.at(bits_mat, (rs, rd), batch.bits[remote])
            np.add.at(msgs_mat, (rs, rd), 1)
        t1 = time.perf_counter() if trace else 0.0
        self.network.account_phase(bits_mat, msgs_mat, label=label, local_messages=local)
        t2 = time.perf_counter() if trace else 0.0
        delivered = [_canonical_delivery(batch, k) for batch in batches]
        if trace:
            t3 = time.perf_counter()
            self.tracer.phase(
                "exchange_batches",
                label,
                t3 - t0,
                segments={
                    "pack_s": t1 - t0,
                    "account_s": t2 - t1,
                    "deliver_s": t3 - t2,
                },
                stats=self.metrics.phase_log[-1],
                top_links=_top_links(bits_mat, self.tracer.top_links),
            )
        return delivered


class _EngineTable(Mapping):
    """Engine classes by name; a backend may be listed by its module.

    A name listed by module is known (iteration, ``in``, error texts)
    before that module is imported; the first lookup imports it, and
    the module registers its class under the name.
    """

    def __init__(self, classes: dict, modules: dict) -> None:
        self._classes = dict(classes)
        self._modules = dict(modules)

    def __getitem__(self, name: str) -> type[Engine]:
        module = self._modules.get(name)
        if module is not None:
            importlib.import_module(module)
        return self._classes[name]

    def __setitem__(self, name: str, cls: type[Engine]) -> None:
        self._classes[name] = cls
        self._modules.pop(name, None)

    def __contains__(self, name) -> bool:
        return name in self._classes or name in self._modules

    def _names(self) -> dict:
        # A dict, not a chain of the two: a name that another thread is
        # moving from one to the other is listed once.
        return {**self._modules, **self._classes}

    def __iter__(self):
        return iter(self._names())

    def __len__(self) -> int:
        return len(self._names())


#: Registry of engine backends by name.  ``"process"`` is listed by its
#: module, so it is known from the start and
#: :mod:`repro.kmachine.parallel` (with :mod:`multiprocessing`) is
#: imported only when a process engine is first asked for.
ENGINES = _EngineTable(
    {VectorEngine.name: VectorEngine},
    {"process": "repro.kmachine.parallel.engine"},
)

#: The engine every entry point runs on when none is named — the one
#: place the default is spelled.
DEFAULT_ENGINE = VectorEngine.name


def engine_class(spec: "str | type[Engine]") -> type[Engine]:
    """The engine class a spec (registered name or class) names."""
    if isinstance(spec, type) and issubclass(spec, Engine):
        return spec
    if isinstance(spec, str):
        try:
            return ENGINES[spec]
        except KeyError:
            raise ModelError(
                f"unknown engine {spec!r}; available: {sorted(ENGINES)}"
            ) from None
    raise ModelError(f"cannot interpret engine spec {spec!r}")


def make_engine(
    spec: "str | Engine | type[Engine]",
    network: LinkNetwork,
    workers: int | None = None,
) -> Engine:
    """Resolve an engine spec (name, class, or instance) against a network.

    ``workers`` sizes the process backend's worker pool; passing it with
    a backend that has no pool is an error, as is combining it with an
    already-constructed engine instance.
    """
    if isinstance(spec, Engine):
        if spec.network is not network:
            raise ModelError("engine instance is bound to a different network")
        if workers is not None:
            raise ModelError("pass workers when the engine is created, not with an instance")
        return spec
    cls = engine_class(spec)
    if workers is None:
        return cls(network)
    if not cls.supports_workers:
        raise ModelError(
            f"engine {cls.name!r} does not take a workers setting "
            f"(only the process backend runs a worker pool)"
        )
    return cls(network, workers=workers)
