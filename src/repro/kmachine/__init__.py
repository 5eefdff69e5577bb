"""The k-machine model substrate.

This subpackage implements the *Big Data / k-machine model* of
Klauck-Nanongkai-Pandurangan-Robinson (SODA 2015), as used by the paper:

* ``k > 2`` machines, pairwise interconnected by bidirectional
  point-to-point links;
* synchronous rounds; each link carries at most ``B = Θ(polylog n)`` bits
  per round;
* local computation is free; the cost of an algorithm is its round
  complexity (worst case over machines).

The simulator is *phase-accurate*: an algorithm runs as a sequence of
communication phases (supersteps).  A phase in which link ``(i, j)``
carries ``L_ij`` bits costs ``max_ij ceil(L_ij / B)`` rounds, which is the
exact cost of the oblivious delivery schedule all of the paper's
upper-bound arguments use (cf. Lemma 13).

Engine architecture
-------------------
Algorithm drivers are decoupled from *how* a phase executes by a
pluggable execution-engine layer (:mod:`repro.kmachine.engine`):

* Drivers charge a superstep through three phase primitives: traffic
  that is delivered goes as columnar
  :class:`~repro.kmachine.engine.MessageBatch` streams of per-message
  ``(src, dst, bits)`` plus payload arrays
  (:meth:`Cluster.exchange_batches`); traffic nobody reads (control
  flags, broadcasts, scatters the receivers rebuild locally) passes only
  its ``(k, k)`` link loads (:meth:`Cluster.account_phase`, and
  :meth:`Cluster.broadcast` built on it); per-machine compute runs as
  superstep kernels (:meth:`Cluster.map_machines`).
* ``Cluster(..., engine="vector")`` — the default, named once as
  :data:`~repro.kmachine.engine.DEFAULT_ENGINE` — executes batches
  through :class:`~repro.kmachine.engine.VectorEngine`: per-link loads
  are scattered into dense ``(k, k)`` bits/messages matrices, round
  accounting is computed from those matrices, and delivery is one
  stable sort per batch — no Python loop over messages.
* ``Cluster(..., engine="process", workers=W)`` executes them through
  :class:`~repro.kmachine.parallel.engine.ProcessEngine`: the vectorized
  exchange layer is inherited unchanged, and per-machine *compute* —
  superstep kernels dispatched via :meth:`Cluster.map_machines` — runs
  in a pool of ``W`` worker processes.  A
  :class:`~repro.kmachine.parallel.store.SharedGraphStore` publishes the
  :class:`DistributedGraph` CSR shards and partition arrays into one
  :mod:`multiprocessing.shared_memory` segment per ``(graph,
  partition)``, so workers attach the full local state zero-copy;
  per-superstep payloads and kernel results travel through per-shipment
  shared-memory segments once large
  (:mod:`repro.kmachine.parallel.shipping`), with pipes as the
  small-phase fallback.  Machine ``i`` is pinned to worker ``i % W``,
  which holds and advances that machine's private RNG stream —
  per-machine draw order is therefore exactly the serial loop's, and
  merged results are exact integer scatter-adds, so runs are
  bit-identical to the inline backends.  Worker pools are *warm*: they
  outlive the engine that spawned them (see
  :mod:`repro.kmachine.parallel.pool`), so consecutive clusters and
  ``runtime.run`` calls with the same worker count reuse the same
  processes and any still-published graph stores;
  :func:`~repro.kmachine.parallel.shutdown_worker_pools` tears them
  down explicitly.

Both backends share :meth:`LinkNetwork.account_phase` for accounting and
deliver rows in the same canonical ``(dst, src, emission)`` order, so
results, round counts, and per-link bit totals are engine-independent.
The reference they are held to is a third, test-only engine: the
per-object ``MessageEngine`` in ``tests/message_engine.py`` tallies
and delivers one batch row at a time, and ``tests/conftest.py``
registers it as ``message`` so the property
(``tests/property/test_property_engines.py``), golden, registry and
driver-oracle suites run every family on it too.  A whole run on the
oracle is 1.3–1.8x slower on the batched families and 1.0x on the
accounting-only ones.  Drivers express hot per-machine compute as
kernels and everything else stays engine-agnostic.

Authoring superstep kernels
---------------------------
Every registered algorithm family routes its per-machine compute
through :meth:`Cluster.map_machines` kernels — PageRank's token moves
and heavy re-sampling, the proxy draws and Phase-3 local enumeration of
the one color-tuple pipeline that triangles, the congested clique and
K4/C4 share
(:func:`repro.core.triangles.distributed.enumerate_color_tuples`), the
conversion-theorem baseline's per-node enumeration, MST's local Borůvka component scans
(inherited by connectivity), and sorting's Bernoulli sampling and local
block sort.  A kernel is a **module-level** callable (workers resolve
it by reference)::

    def my_kernel(ctx, machine, rng, payload, **common) -> result

and must obey three contracts for the backends to stay bit-identical:

1. **RNG order.**  All randomness comes from ``rng`` — machine
   ``machine``'s private stream — and the kernel must make *exactly*
   the draws the inline serial loop would make for that machine, in the
   same order (including skipping a draw when idle if the inline code
   skipped it).  Never draw machine randomness outside a kernel once a
   cluster has dispatched one: on the process backend the streams then
   live in the workers, and the parent-side slots are replaced with
   sentinels that raise.  Shared randomness (``cluster.shared_rng``)
   stays in the parent and is never delegated.  Batching draws across
   vertices or rows is allowed exactly when it leaves the stream
   untouched: array-parameter ``binomial`` / ``integers`` calls draw
   element by element in order, and a broadcast
   ``rng.multinomial(counts, pvals)`` runs its rows in order through
   the scalar routine, so it is draw-identical to sequential calls when
   each row is that row's ``pvals`` behind *leading* zeros (a leading
   0 is a ``binomial(p=0)``, which draws nothing; a *trailing* 0 turns
   the row's draw-free remainder into a drawn entry).  PageRank's heavy
   path (:mod:`repro.core.pagerank.tokens`) is the worked example: one
   broadcast call on the sending side, where every row spans the ``k``
   machines; on the receiving side, where widths differ, one call per
   block of consecutive rows, each row right-aligned behind leading
   zeros to the block's widest.  Neither side scans adjacency rows:
   both read ``ctx.home_groups``, the adjacency grouped by neighbor
   home once per graph, where a row's per-machine neighbor counts and
   its neighbors on one machine are offset reads, gathered for the
   whole batch at once instead of calling ``ctx.local_neighbors`` row
   by row.  The groups keep CSR order, which decides which neighbor
   each multinomial entry maps to, so the draws are those of the
   per-row masks.
2. **Payload contract.**  ``payloads[i]`` must be machine ``i``'s
   complete per-superstep input: a picklable structure of plain NumPy
   arrays / scalars / ``None`` (large arrays ship through shared
   memory transparently).  ``ctx`` is the shared *read-only* graph
   surface — a :class:`DistributedGraph` inline, a zero-copy
   :class:`~repro.kmachine.parallel.store.SharedGraphView` in a worker,
   or ``None`` when the caller passes ``distgraph=None`` (non-graph
   families) — exposing ``parts``, ``home``, ``nbr_home``,
   ``graph.indptr`` / ``graph.indices``, ``k``, ``n``,
   ``home_groups`` (the ``(start, nbrs)`` table of
   :func:`~repro.kmachine.distgraph.group_neighbors_by_home`, built on
   first read in whichever process reads it), ``local_neighbors``
   (one slice of that table) and ``local_index`` (each vertex's
   position in its home machine's ``parts`` entry, built likewise).
   Kernels must not mutate ``ctx`` or rely on any other parent state.
3. **Result contract.**  Results are returned per machine (the
   scheduler yields them in machine order); parent-side merges must be
   order-insensitive exact operations (concatenation in machine order,
   integer scatter-adds) so that fan-out cannot change outcomes.
   Returning columnar outbox fragments and assembling one
   :class:`~repro.kmachine.engine.MessageBatch` per stream in the
   parent keeps the exchange accounting byte-equal to the serial loop.
   The same holds inside a kernel: **never rely on duplicate-index
   assignment order**.  ``out[idx] = values`` with repeated indices
   keeps whichever duplicate NumPy happens to write last, which it
   leaves unspecified — "last wins" is an accident of one code path.
   Pick a winner with an order-free reduction instead
   (``np.minimum.at`` / ``np.maximum.at`` over a key that totally
   orders the duplicates, ``np.add.at`` / ``np.bincount`` for sums) or
   with one *stable* sort.  MST's MWOE scan
   (:func:`repro.core.mst.distributed._mwoe_scan_task`) is the worked
   example: rows pre-ordered by edge rank once, then a ``minimum``
   scatter of row positions finds each component's first crossing row.

Two further contracts are how the hot drivers (PageRank, MST and
connectivity, the color-tuple Phase 3) are written: they cut what crosses the
driver/worker boundary each superstep, and each family has this one
driver on every engine:

4. **Resident state.**  :meth:`Cluster.install_resident` ships one
   per-machine state object to its owning worker once and returns a
   :class:`~repro.kmachine.engine.ResidentHandle`; with
   ``map_machines(..., resident=handle)`` the kernel signature gains a
   ``state`` argument after ``payload``::

       def my_kernel(ctx, machine, rng, payload, state, **common) -> result

   Mutations of ``state`` persist to the next superstep without ever
   being re-shipped, so per-superstep payloads shrink to *deltas* (e.g.
   only the labels that changed).  The state must hold everything the
   kernel needs that the driver would otherwise rebuild and re-ship —
   and nothing the parent needs back before the run ends
   (:meth:`Cluster.pull_resident` reads the final states;
   :meth:`Cluster.drop_resident` releases them).  RNG contract
   unchanged: resident kernels draw exactly the inline draws in the
   inline order.  **Invalidation rules**: handles are holder-scoped —
   a warm pool handed to the next cluster drops every resident bundle
   (the RNG handoff is the invalidation point); a worker crash poisons
   the engine and its handles; installing with ``distgraph=`` binds the
   bundle to that graph's published store, so store eviction drops it.
   Inline engines honor the same API with the states kept parent-side,
   so drivers stay engine-agnostic and bit-identical across backends.
5. **Outbox assembly.**  ``map_machines(..., assemble=fn)`` moves the
   per-group merge worker-side: ``fn(machines, results)`` — a
   module-level callable — folds one scheduling group's ordered kernel
   results into a single aggregate (typically concatenated columnar
   outbox fragments), and the call returns a list of *group aggregates*
   (one group covering all machines inline; one group per worker, its
   machines ascending, on the process backend) instead of ``k``
   results.  Only the aggregate ships back, so reply traffic stops
   scaling with ``k``.  Aggregates must be order-insensitive to
   concatenate — columnar ``MessageBatch`` fragments are, because
   canonical delivery re-sorts rows by ``(dst, src, emission)`` and
   per-machine rows stay contiguous and emission-ordered within any
   group; order-sensitive outputs must carry per-machine counts so the
   parent can restore machine order (see the color-tuple pipeline's
   Phase-3 kernel and its ``_assemble_enumeration``).

Tracing contract
----------------
Every engine carries a ``tracer`` attribute, defaulting to the shared
:data:`repro.obs.trace.NULL_TRACER` singleton.  The runtime installs a
live :class:`repro.obs.trace.Tracer` for the duration of a traced run
(``runtime.run(..., trace=...)`` / ``$REPRO_TRACE``); engines then stamp
one ``phase`` event per communication phase or kernel dispatch with its
wall-clock and sub-spans (``pack_s`` / ``account_s`` / ``deliver_s`` on
the vector backend, ``ship_s`` / ``kernel_s`` / ``pool_wait_s`` /
``unpack_s`` on the process backend, where ``kernel_s`` is summed
worker-side wall-clock, plus ``assemble_s`` — worker-side outbox
assembly time — on group-assembled supersteps).  Backends must guard **every** tracing site
with ``if self.tracer.enabled:`` — the untraced path pays one attribute
load and one branch per phase, never a clock read or an allocation —
and must read phase statistics from ``self.metrics.phase_log[-1]``
*after* accounting, so traced counts are byte-equal to untraced runs.
The tracer itself attributes the parent-side gap since the previous
trace point to each phase as ``driver_s`` (BSP superstep = local
compute + communication), anchored at the engine's ``first_activity``
so setup is never charged to the first phase — drivers that only
*account* traffic (``account_phase``) get their wall-clock attributed
this way.  Tracing never changes results, rounds, or delivery order;
it only observes them.
"""

from repro._lazy import lazy_exports

# Every public name with the module that defines it; each resolves on
# first access, so the process backend (and multiprocessing) loads only
# when it is used.
_EXPORTS = {
    "Metrics": "repro.kmachine.metrics",
    "PhaseStats": "repro.kmachine.metrics",
    "unit_load_matrix": "repro.kmachine.metrics",
    "LinkNetwork": "repro.kmachine.network",
    "Cluster": "repro.kmachine.cluster",
    "Engine": "repro.kmachine.engine",
    "VectorEngine": "repro.kmachine.engine",
    "ProcessEngine": "repro.kmachine.parallel",
    "SharedGraphStore": "repro.kmachine.parallel",
    "SharedGraphView": "repro.kmachine.parallel",
    "active_pools": "repro.kmachine.parallel",
    "shutdown_worker_pools": "repro.kmachine.parallel",
    "MessageBatch": "repro.kmachine.engine",
    "DeliveredBatch": "repro.kmachine.engine",
    "ResidentHandle": "repro.kmachine.engine",
    "make_engine": "repro.kmachine.engine",
    "DistributedGraph": "repro.kmachine.distgraph",
    "MachineShard": "repro.kmachine.distgraph",
    "cached_distgraph": "repro.kmachine.distgraph",
    "clear_distgraph_cache": "repro.kmachine.distgraph",
    "resolve_distgraph": "repro.kmachine.distgraph",
    "VertexPartition": "repro.kmachine.partition",
    "EdgePartition": "repro.kmachine.partition",
    "random_vertex_partition": "repro.kmachine.partition",
    "random_edge_partition": "repro.kmachine.partition",
    "rep_to_rvp": "repro.kmachine.partition",
    "direct_exchange": "repro.kmachine.routing",
    "valiant_exchange": "repro.kmachine.routing",
    "lemma13_round_bound": "repro.kmachine.routing",
    "encoding": "repro.kmachine.encoding",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
