"""Algorithm 1: ``Õ(n/k²)``-round distributed PageRank (paper §3.1, Theorem 4).

The Monte-Carlo random-walk estimator of Das Sarma et al. is executed
directly in the k-machine model with the two ideas that achieve the
``Õ(n/k²)`` bound:

* **Per-destination count aggregation (light vertices).**  Each machine
  aggregates, across *all* of its light vertices, the number of tokens
  destined for each target vertex ``v`` into one array entry ``α[v]`` and
  sends a single ``<α[v], dest: v>`` message to ``v``'s home machine
  (lines 8-16).  Destinations are uniformly spread by the RVP, so by
  Lemma 13 a phase of ``Õ(n/k)`` such messages per machine delivers in
  ``Õ(n/k²)`` rounds (Lemmas 12 and 14).

* **Randomized proxy delivery for heavy vertices.**  A vertex holding
  ``>= k`` tokens would overload per-destination messages; instead its
  machine samples, for every token, a destination *machine* from the
  vertex's neighbor distribution (line 23) and ships one ``<β[j], src: u>``
  count per machine.  The receiving machine re-samples concrete neighbors
  locally (lines 31-36) — statistically identical to per-token forwarding
  (Proposition 1) at ``O(k)`` messages per heavy vertex.

Estimates: with ``T0 = Θ(log n)`` initial tokens per vertex,
``PageRank(v) ≈ eps * ψ_v / (n T0)`` where ``ψ_v`` counts all visits
to ``v``.
"""

from __future__ import annotations

import math
from numbers import Real

import numpy as np

from repro._util import check_positive_int
from repro.errors import AlgorithmError
from repro.graphs.graph import Graph
from repro.kmachine import encoding
from repro.kmachine.cluster import Cluster
from repro.kmachine.distgraph import DistributedGraph, resolve_distgraph
from repro.kmachine.engine import DEFAULT_ENGINE, MessageBatch
from repro.kmachine.partition import VertexPartition
from repro.core.pagerank.result import IterationStats, PageRankResult, close_iteration
from repro.core.pagerank.tokens import (
    move_heavy_tokens,
    move_light_tokens,
    receive_heavy_tokens,
    terminate_tokens,
)

__all__ = ["distributed_pagerank"]


def _count_batch(
    kind: str,
    src: np.ndarray,
    dst: np.ndarray,
    vertices: np.ndarray,
    counts: np.ndarray,
    vid_bits: int,
) -> MessageBatch:
    """A columnar ``<count, vertex>`` stream; one row per logical message."""
    return MessageBatch(
        kind=kind,
        src=src,
        dst=dst,
        bits=vid_bits + encoding.count_bits_array(counts),
        columns={"vertex": np.asarray(vertices, dtype=np.int64),
                 "count": np.asarray(counts, dtype=np.int64)},
    )


def distributed_pagerank(
    graph: Graph,
    k: int,
    eps: float = 0.15,
    seed: int | None = None,
    c: float = 16.0,
    bandwidth: int | None = None,
    partition: VertexPartition | None = None,
    cluster: Cluster | None = None,
    heavy_threshold: int | None = None,
    max_iterations: int | None = None,
    enable_heavy_path: bool = True,
    sources: np.ndarray | None = None,
    engine: str = DEFAULT_ENGINE,
    distgraph: DistributedGraph | None = None,
) -> PageRankResult:
    """Run Algorithm 1 on ``graph`` with ``k`` machines.

    Parameters
    ----------
    graph:
        Input graph; random walks follow out-edges (all edges when
        undirected).  Out-degree-0 vertices absorb tokens, matching the
        walk-series reference semantics.
    k:
        Number of machines.
    eps:
        Reset probability of the PageRank walk.
    c:
        Token-count constant: every vertex starts with
        ``T0 = max(1, ceil(c * log2 n))`` tokens.  Larger ``c`` tightens
        the ``δ``-approximation at proportional communication cost.
    partition:
        Vertex placement; a fresh RVP is sampled when omitted.
    heavy_threshold:
        Token count at which a vertex is treated as *heavy*; the paper
        uses ``k`` (§3.1).
    enable_heavy_path:
        Ablation switch: when ``False`` every vertex uses the light path
        regardless of load (used to demonstrate why the heavy path is
        needed on star-like graphs).
    max_iterations:
        Cap on walk iterations; defaults to ``ceil(4 ln(n T0 n) / eps)``,
        by which point all tokens have terminated whp.  The run also stops
        early via an explicit (and accounted) termination-detection phase.
    sources:
        When given, compute *personalized* PageRank: walks start only at
        these vertices and estimates are normalized by ``|sources|``
        (matching ``pagerank_walk_series(..., sources=...)``).
    engine:
        Execution backend (``"vector"`` or ``"process"``); ignored when
        an explicit ``cluster`` is supplied.  Results and accounting are
        backend-independent.
    distgraph:
        A prebuilt :class:`~repro.kmachine.distgraph.DistributedGraph`
        whose shards are reused (e.g. across runs sharing a partition);
        built internally when omitted.

    Returns
    -------
    PageRankResult
    """
    check_positive_int(k, "k")
    if not (0.0 < eps < 1.0):
        raise AlgorithmError(f"eps must lie in (0, 1), got {eps}")
    n = graph.n
    if n == 0:
        raise AlgorithmError("cannot compute PageRank of the empty graph")
    if not (isinstance(c, Real) and math.isfinite(c) and c > 0):
        raise AlgorithmError(f"c must be a finite positive number, got {c!r}")
    if max_iterations is not None and not (
        isinstance(max_iterations, (int, np.integer))
        and not isinstance(max_iterations, bool)
        and max_iterations > 0
    ):
        raise AlgorithmError(
            f"max_iterations must be a positive int, got {max_iterations!r}"
        )
    thr = k if heavy_threshold is None else heavy_threshold
    if not (
        isinstance(thr, (int, np.integer)) and not isinstance(thr, bool) and thr >= 2
    ):
        raise AlgorithmError(f"heavy threshold must be an int >= 2, got {thr!r}")
    if sources is not None:
        raw = np.asarray(sources)
        integral = raw.dtype.kind in "iu" or (
            raw.dtype.kind == "f"
            and bool(np.isfinite(raw).all())
            and np.array_equal(raw, np.floor(raw))
        )
        if not integral:
            raise AlgorithmError("sources must be integral vertex ids")
        sources = raw.astype(np.int64)
    own_cluster = cluster is None
    if cluster is None:
        cluster = Cluster(k=k, n=n, bandwidth=bandwidth, seed=seed, engine=engine)
    elif cluster.k != k:
        raise AlgorithmError(f"cluster has k={cluster.k}, expected {k}")
    dg = resolve_distgraph(graph, k, cluster.shared_rng, partition, distgraph)
    t0 = max(1, math.ceil(c * math.log2(max(2, n))))
    if max_iterations is None:
        max_iterations = max(1, math.ceil(4.0 * math.log(max(2, n * t0)) / eps))

    vid_bits = encoding.vertex_id_bits(n)
    if sources is None:
        tokens = np.full(n, t0, dtype=np.int64)
        num_sources = n
    else:
        if sources.size == 0 or sources.min() < 0 or sources.max() >= n:
            raise AlgorithmError("sources must be a non-empty array of vertex ids")
        if np.unique(sources).size != sources.size:
            raise AlgorithmError("sources must be distinct vertex ids")
        tokens = np.zeros(n, dtype=np.int64)
        tokens[sources] = t0
        num_sources = int(sources.size)
    psi = tokens.copy()  # every token visits its birth vertex
    driver = _PageRankDriver(
        cluster=cluster,
        distgraph=dg,
        tokens=tokens,
        psi=psi,
        eps=eps,
        heavy_threshold=int(thr),
        enable_heavy_path=enable_heavy_path,
        vid_bits=vid_bits,
    )
    # max_iterations is a user-facing iteration budget (whp all tokens have
    # terminated by the default), so exhausting it returns partial state.
    try:
        for _ in range(max_iterations):
            if not driver.step(cluster):
                break
        # The ψ table lives with the machines; pull it back while the
        # pool is still held (before any close below).
        driver.finish(cluster)
    finally:
        # A failed run pulls nothing, but on a caller's cluster its tables
        # must not stay installed in the workers until that cluster closes.
        cluster.drop_resident(driver.handle)
        # A cluster this call built is this call's to clean up: with the
        # process backend that shuts the worker pool down deterministically
        # instead of waiting for garbage collection.
        if own_cluster:
            cluster.close()

    estimates = eps * driver.psi.astype(np.float64) / (num_sources * t0)
    return PageRankResult(
        estimates=estimates,
        metrics=cluster.metrics,
        iterations=len(driver.stats),
        tokens_per_vertex=t0,
        eps=eps,
        iteration_stats=driver.stats,
    )


_EMPTY = np.zeros(0, dtype=np.int64)
_OUTBOX = ("light_src", "light_dst", "light_v", "light_c",
           "heavy_src", "heavy_dst", "heavy_v", "heavy_c")


def _install_token_states(dg: DistributedGraph, tokens: np.ndarray,
                          psi: np.ndarray) -> list[dict]:
    """Per-machine resident state for :class:`_PageRankDriver`.

    ``tokens``/``psi`` hold the machine's hosted slice (local index =
    position in the sorted ``parts[i]``, read off ``ctx.local_index``).
    The first superstep's group kernel turns them into views of its
    group's slot buffers (:func:`_adopt_group`).
    """
    return [{"tokens": tokens[verts], "psi": psi[verts]} for verts in dg.parts]


def _adopt_group(ctx, machines: list, states: list) -> dict:
    """Gather a group's token and ψ tables into one slot buffer each.

    Slots are machine-major: machine ``machines[i]``'s local index ``l``
    is slot ``base[machines[i]] + l``.  Each member's ``tokens``/``psi``
    become views of its slice, so the driver reads them as before.  The
    returned scratch (also left in every member's state under
    ``"group"``) holds, between supersteps:

    * ``active`` — the invariant ``flatnonzero(tok > 0)``, so the move
      reads only live slots (a superstep costs ``O(live)`` plus one
      segment-sum over the group's slots in the apply);
    * ``pending_*`` — free local light deliveries (slots) and
      ``local_heavy_*`` — same-machine β rows (machine-major, emission
      order), carried from a move to the apply that follows it.
    """
    sizes = [ctx.parts[m].size for m in machines]
    bounds = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    tok = np.concatenate([st["tokens"] for st in states])
    psi = np.concatenate([st["psi"] for st in states])
    base = np.zeros(ctx.k, dtype=np.int64)
    base[machines] = bounds[:-1]
    for st, lo, hi in zip(states, bounds[:-1].tolist(), bounds[1:].tolist()):
        st["tokens"], st["psi"] = tok[lo:hi], psi[lo:hi]
    group = {
        "machines": np.asarray(machines, dtype=np.int64),
        "base": base,
        "verts": np.concatenate([ctx.parts[m] for m in machines]).astype(np.int64),
        "slot_machine": np.repeat(np.asarray(machines, dtype=np.int64), sizes),
        "tok": tok, "psi": psi,
        "active": np.flatnonzero(tok > 0),
        "pending_slot": _EMPTY, "pending_c": _EMPTY,
        "local_heavy_m": _EMPTY, "local_heavy_v": _EMPTY, "local_heavy_c": _EMPTY,
    }
    for st in states:
        st["group"] = group
    return group


def _token_superstep(
    ctx, machines: list, rngs: list, payloads: list, states: list, *,
    eps: float, heavy_threshold: int, enable_heavy_path: bool, move: bool = True,
) -> "dict | None":
    """Superstep group kernel: fused apply+move over a group of machines.

    ``ctx`` is the graph context — the
    :class:`~repro.kmachine.distgraph.DistributedGraph` on the inline
    engines, a shared-memory
    :class:`~repro.kmachine.parallel.store.SharedGraphView` in a process
    worker — and ``states`` the members' tables from
    :func:`_install_token_states`, adopted into one slot buffer on the
    first call (:func:`_adopt_group`).

    ``payloads[i]`` is machine ``machines[i]``'s deliveries from the
    *previous* iteration (``None`` on the first superstep): folding them
    in here instead of in a trailing dispatch halves the per-iteration
    kernel round-trips, and apply(it) draws still precede move(it+1)
    draws on each machine's private stream.  The group's work runs over
    machine-major arrays, each RNG call on one machine's rows with that
    machine's generator (:mod:`repro.core.pagerank.tokens`), so every
    machine draws what it would alone.  ``move=False`` only applies, and
    ends the run: the scratch leaves the states, which keep their views.

    Returns the group's *remote* rows in emission order per machine —
    light α rows (``light_*``) and heavy β rows (``heavy_*``), sender in
    ``*_src`` — and ``local_live``, the tokens this move parked in the
    group.  Because the heavy re-sampling conserves counts, the parent
    recovers the post-apply live total as ``local_live`` plus the
    delivered counts without waiting for the apply.
    """
    group = states[0].get("group") or _adopt_group(ctx, machines, states)
    by_machine = dict(zip(machines, rngs))
    if payloads[0] is not None:
        _apply_deliveries(ctx, group, payloads, by_machine)
    if not move:
        for st in states:
            del st["group"]
        return None
    return _move_tokens(ctx, group, by_machine, eps, heavy_threshold, enable_heavy_path)


def _move_tokens(ctx, group: dict, rngs: dict, eps: float, heavy_threshold: int,
                 enable_heavy_path: bool) -> dict:
    """Algorithm 1, lines 5-23, for every live slot of a group.

    Consumes every live count — terminated, absorbed, or emitted —
    drawing termination, light picks, then one batched heavy multinomial
    per machine.  Free local light deliveries land in
    ``group["pending_*"]`` and same-machine β rows in
    ``group["local_heavy_*"]`` for the next apply.
    """
    indptr, indices = ctx.graph.indptr, ctx.graph.indices
    tok = group["tok"]
    act = group["active"]  # invariant: flatnonzero(tok > 0)
    vertices = group["verts"][act]
    machine = group["slot_machine"][act]
    # Lines 5-6: terminate each token with probability eps.
    counts = terminate_tokens(tok[act], eps, machine, rngs)
    # Out-degree-0 vertices absorb their tokens.
    keep = (counts > 0) & (indptr[vertices + 1] > indptr[vertices])
    vertices, counts, machine = vertices[keep], counts[keep], machine[keep]
    if enable_heavy_path:
        is_heavy = counts >= heavy_threshold
    else:
        is_heavy = np.zeros(vertices.size, dtype=bool)
    light = ~is_heavy
    lm, lv, lc = move_light_tokens(
        vertices[light], counts[light], machine[light], indptr, indices, rngs
    )
    # ctx.home_groups is built on first read, so a run with no heavy
    # vertex never builds it (an empty batch draws nothing either way).
    hm = hv = hdst = hc = _EMPTY
    if is_heavy.any():
        hm, hv, hdst, hc = move_heavy_tokens(
            vertices[is_heavy], counts[is_heavy], machine[is_heavy],
            ctx.home_groups, ctx.k, rngs,
        )
    tok[act] = 0  # every live count was consumed above
    group["active"] = _EMPTY
    # Local deliveries are free; remote ones form the α / β rows.
    homes = ctx.home[lv]
    local = homes == lm
    local_heavy = hdst == hm
    group["pending_slot"] = group["base"][lm[local]] + ctx.local_index[lv[local]]
    group["pending_c"] = lc[local]
    group["local_heavy_m"] = hm[local_heavy]
    group["local_heavy_v"] = hv[local_heavy]
    group["local_heavy_c"] = hc[local_heavy]
    return {
        "light_src": lm[~local], "light_dst": homes[~local],
        "light_v": lv[~local], "light_c": lc[~local],
        "heavy_src": hm[~local_heavy], "heavy_dst": hdst[~local_heavy],
        "heavy_v": hv[~local_heavy], "heavy_c": hc[~local_heavy],
        "local_live": int(group["pending_c"].sum() + group["local_heavy_c"].sum()),
    }


def _apply_deliveries(ctx, group: dict, payloads: list, rngs: dict) -> None:
    """Apply one iteration's deliveries to a group (lines 31-36).

    ``payloads[i]`` carries machine ``i``'s delivered light rows and
    heavy β rows, each in canonical order.  Each machine re-samples its
    heavy rows into concrete neighbors with its own stream — delivered
    rows first, then its buffered same-machine rows in emission order.
    All contributions are positive, so the new ``active`` set is just
    the touched slots.
    """
    machines = group["machines"]
    light_v = np.concatenate([p["vertex"] for p in payloads])
    light_c = np.concatenate([p["count"] for p in payloads])
    light_m = np.repeat(machines, [p["vertex"].size for p in payloads])
    heavy_m = np.concatenate([
        np.repeat(machines, [p["hvertex"].size for p in payloads]), group["local_heavy_m"],
    ])
    dm = dv = dc = _EMPTY
    if heavy_m.size:  # as in _move_tokens: no heavy row, no table build
        # Machine-major, each machine's delivered rows before its own
        # (a radix sort on the narrow machine ids).
        order = np.argsort(heavy_m.astype(np.min_scalar_type(ctx.k - 1)), kind="stable")
        heavy_v = np.concatenate([p["hvertex"] for p in payloads] + [group["local_heavy_v"]])
        heavy_c = np.concatenate([p["hcount"] for p in payloads] + [group["local_heavy_c"]])
        dm, dv, dc = receive_heavy_tokens(
            heavy_v[order], heavy_c[order], heavy_m[order],
            ctx.home_groups, ctx.k, rngs,
        )
    base, local_index = group["base"], ctx.local_index
    idx = np.concatenate([
        group["pending_slot"],
        base[light_m] + local_index[light_v],
        base[dm] + local_index[dv],
    ])
    cnt = np.concatenate([group["pending_c"], light_c, dc])
    group["pending_slot"] = group["pending_c"] = _EMPTY
    group["local_heavy_m"] = group["local_heavy_v"] = group["local_heavy_c"] = _EMPTY
    # One segment-sum over the group's slots feeds both tables; it is
    # integer-exact because every slot's total is a token count, far
    # below 2**53.
    tok, psi = group["tok"], group["psi"]
    added = np.bincount(idx, weights=cnt, minlength=tok.size).astype(np.int64)
    active = np.flatnonzero(added)
    tok[active] += added[active]
    psi[active] += added[active]
    group["active"] = active


class _PageRankDriver:
    """BSP driver: one Algorithm-1 walk iteration per superstep.

    The per-machine token and ψ tables are installed once as resident
    state (:func:`_install_token_states`) and every iteration is one
    :meth:`Cluster.map_groups` dispatch of the group kernel
    :func:`_token_superstep` — all machines in one call on the inline
    engines, one call per worker on the process backend, with identical
    per-machine draws either way — carrying the previous deliveries in
    and each group's remote α/β rows out, so per-iteration work is
    proportional to live tokens rather than ``n``.  The groups' rows
    form two columnar streams — ``pr-light`` (``<α[v], dest: v>``) and
    ``pr-heavy`` (``<β[j], src: u>``) count messages — exchanged in a
    single communication phase, so every execution backend charges the
    same ``max_ij ceil(L_ij / B)`` rounds the per-object simulator did.
    Control traffic (liveness flags, verdict broadcast) is charged by
    :func:`~repro.core.pagerank.result.close_iteration`.

    Live counts (the termination signal) are recovered parent-side from
    the groups' ``local_live`` plus delivered counts (token moves
    conserve counts), and :meth:`finish` issues one trailing apply-only
    dispatch so the pulled tables always include the last deliveries.
    The apply is draw-neutral when it has no heavy rows.
    """

    def __init__(
        self,
        cluster: Cluster,
        distgraph: DistributedGraph,
        tokens: np.ndarray,
        psi: np.ndarray,
        eps: float,
        heavy_threshold: int,
        enable_heavy_path: bool,
        vid_bits: int,
    ) -> None:
        self.dg = distgraph
        self.psi = psi
        self.vid_bits = vid_bits
        self.common = {
            "eps": eps,
            "heavy_threshold": heavy_threshold,
            "enable_heavy_path": enable_heavy_path,
        }
        self.iteration = 0
        self.stats: list[IterationStats] = []
        self.handle = cluster.install_resident(
            _install_token_states(distgraph, tokens, psi), distgraph=distgraph,
        )
        self._carry: list | None = None  # deliveries awaiting fold-in

    def finish(self, cluster: Cluster) -> None:
        """Pull the machines' ψ tables back into the parent array."""
        if self._carry is not None:
            # Fold the final iteration's deliveries in (a draw-free
            # no-op when the run terminated with zero live tokens).
            cluster.map_groups(
                _token_superstep, self.dg, self._carry,
                common={**self.common, "move": False}, resident=self.handle,
            )
            self._carry = None
        states = cluster.pull_resident(self.handle)
        for verts, st in zip(self.dg.parts, states):
            self.psi[verts] = st["psi"]

    def step(self, cluster: Cluster) -> bool:
        """Run one walk iteration; True while tokens remain live."""
        it = self.iteration
        self.iteration += 1
        k = cluster.k

        groups = cluster.map_groups(
            _token_superstep,
            self.dg,
            self._carry if self._carry is not None else [None] * k,
            common=self.common,
            resident=self.handle,
        )
        merged = {
            name: np.concatenate([g[name] for g in groups]) if len(groups) > 1
            else groups[0][name]
            for name in _OUTBOX
        }
        light_in, heavy_in = self._exchange_tokens(cluster, it, merged)

        lv, lc = light_in.columns["vertex"], light_in.columns["count"]
        hv, hc = heavy_in.columns["vertex"], heavy_in.columns["count"]
        lo, ho = light_in.offsets.tolist(), heavy_in.offsets.tolist()
        self._carry = [
            {"vertex": lv[lo[j]:lo[j + 1]], "count": lc[lo[j]:lo[j + 1]],
             "hvertex": hv[ho[j]:ho[j + 1]], "hcount": hc[ho[j]:ho[j + 1]]}
            for j in range(k)
        ]
        # Moves conserve counts, so the post-apply live total is known
        # before the apply runs (it rides the next dispatch).
        live = sum(g["local_live"] for g in groups) + int(lc.sum()) + int(hc.sum())
        self.stats.append(close_iteration(
            cluster, it, live, "pagerank/control/report", "pagerank/control/verdict"))
        return live > 0

    def _exchange_tokens(self, cluster: Cluster, it: int, merged: dict) -> list:
        """Exchange one iteration's merged α and β rows in a single phase."""
        light = _count_batch(
            "pr-light", merged["light_src"], merged["light_dst"],
            merged["light_v"], merged["light_c"], self.vid_bits,
        )
        heavy = _count_batch(
            "pr-heavy", merged["heavy_src"], merged["heavy_dst"],
            merged["heavy_v"], merged["heavy_c"], self.vid_bits,
        )
        return cluster.exchange_batches([light, heavy], label=f"pagerank/tokens/{it}")
