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


def _install_token_states(dg: DistributedGraph, tokens: np.ndarray,
                          psi: np.ndarray) -> list[dict]:
    """Per-machine resident state for :class:`_PageRankDriver`.

    ``tokens``/``psi`` hold the machine's hosted slice (local index =
    position in the sorted ``parts[i]``, read off ``ctx.local_index``);
    ``active`` is the invariant ``flatnonzero(tokens > 0)``, kept so the
    move reads only the live slots.  A superstep costs ``O(live)`` plus
    one ``O(n_i)`` segment-sum over the machine's slots in the apply.
    ``pending_*`` (free local light deliveries, local indices) and
    ``local_heavy_*`` (same-machine β rows, emission order) buffer
    intra-iteration carry-over between a move and the apply that
    follows it.
    """
    return [
        {
            "tokens": tokens[verts],
            "psi": psi[verts],
            "active": np.flatnonzero(tokens[verts] > 0),
            "pending_v": _EMPTY, "pending_c": _EMPTY,
            "local_heavy_v": _EMPTY, "local_heavy_c": _EMPTY,
        }
        for verts in dg.parts
    ]


def _step_tokens_task(
    ctx, machine: int, rng, payload, state, *, eps: float,
    heavy_threshold: int, enable_heavy_path: bool,
) -> dict:
    """Superstep kernel: fused apply+move, one dispatch per iteration.

    ``ctx`` is the machine's graph context — the
    :class:`~repro.kmachine.distgraph.DistributedGraph` on the inline
    engines, a shared-memory
    :class:`~repro.kmachine.parallel.store.SharedGraphView` in a process
    worker — and ``state`` its tables from :func:`_install_token_states`.

    ``payload`` is the *previous* iteration's deliveries (``None`` on the
    first superstep): folding them in here instead of in a trailing
    dispatch halves the per-iteration kernel round-trips, and apply(it)
    draws still precede move(it+1) draws on each machine's private
    stream.  The move (Algorithm 1, lines 5-23) then consumes every live
    count — terminated, absorbed, or emitted — drawing termination,
    light picks, then one batched heavy multinomial.  Only the *remote*
    rows are returned, in emission order: light α rows (``light_*``,
    with ``light_dst`` resolved here so the parent never touches per-row
    data) and heavy β rows (``heavy_*``).  Free local light deliveries
    land in ``state["pending_*"]`` and same-machine β rows in
    ``state["local_heavy_*"]`` for :func:`_apply_tokens_task`.

    ``local_live`` reports the tokens this move parked machine-locally;
    because the heavy re-sampling in
    :func:`~repro.core.pagerank.tokens.receive_heavy_tokens` conserves
    counts, the parent recovers each machine's post-apply live total as
    ``local_live + delivered light + delivered heavy`` without waiting
    for the apply.
    """
    if payload is not None:
        _apply_tokens_task(ctx, machine, rng, payload, state)
    verts = ctx.parts[machine]
    indptr, indices = ctx.graph.indptr, ctx.graph.indices
    tok = state["tokens"]
    act = state["active"]  # invariant: flatnonzero(tok > 0)
    vertices = verts[act]
    # Lines 5-6: terminate each token with probability eps.
    counts = terminate_tokens(tok[act], eps, rng)
    # Out-degree-0 vertices absorb their tokens.
    keep = (counts > 0) & (indptr[vertices + 1] > indptr[vertices])
    vertices, counts = vertices[keep], counts[keep]
    if enable_heavy_path:
        is_heavy = counts >= heavy_threshold
    else:
        is_heavy = np.zeros(vertices.size, dtype=bool)
    dv, dc = move_light_tokens(
        vertices[~is_heavy], counts[~is_heavy], indptr, indices, rng
    )
    # ctx.home_groups is built on first read, so a run with no heavy
    # vertex never builds it (an empty batch draws nothing either way).
    hv = hdst = hc = _EMPTY
    if is_heavy.any():
        hv, hdst, hc = move_heavy_tokens(
            vertices[is_heavy], counts[is_heavy], ctx.home_groups, ctx.k, rng
        )
    tok[act] = 0  # every live count was consumed above
    state["active"] = _EMPTY
    # Local deliveries are free; remote ones form the α / β rows.
    homes = ctx.home[dv]
    local = homes == machine
    local_heavy = hdst == machine
    state["pending_v"] = ctx.local_index[dv[local]]
    state["pending_c"] = dc[local]
    state["local_heavy_v"] = hv[local_heavy]
    state["local_heavy_c"] = hc[local_heavy]
    return {
        "light_dst": homes[~local], "light_v": dv[~local], "light_c": dc[~local],
        "heavy_dst": hdst[~local_heavy],
        "heavy_v": hv[~local_heavy], "heavy_c": hc[~local_heavy],
        "local_live": int(state["pending_c"].sum() + state["local_heavy_c"].sum()),
    }


def _assemble_token_outbox(machines, results) -> dict:
    """Pack one group's move fragments into a columnar outbox.

    Runs worker-side on the process engine (one aggregate per worker)
    and inline otherwise (one aggregate covering all machines).  Rows
    keep per-machine emission order within the group, which is all the
    canonical delivery order needs.  ``live_m``/``live_c`` carry each
    member machine's ``local_live`` count back alongside the outbox.
    """
    cols: dict[str, list[np.ndarray]] = {
        "light_src": [], "light_dst": [], "light_v": [], "light_c": [],
        "heavy_src": [], "heavy_dst": [], "heavy_v": [], "heavy_c": [],
    }
    for m, res in zip(machines, results):
        if res["light_v"].size:
            cols["light_src"].append(np.full(res["light_v"].size, m, dtype=np.int64))
            for name in ("light_dst", "light_v", "light_c"):
                cols[name].append(res[name])
        if res["heavy_v"].size:
            cols["heavy_src"].append(np.full(res["heavy_v"].size, m, dtype=np.int64))
            for name in ("heavy_dst", "heavy_v", "heavy_c"):
                cols[name].append(res[name])
    out = {
        name: (np.concatenate(parts) if parts else _EMPTY)
        for name, parts in cols.items()
    }
    out["live_m"] = np.asarray(list(machines), dtype=np.int64)
    out["live_c"] = np.array([r["local_live"] for r in results], dtype=np.int64)
    return out


def _apply_tokens_task(ctx, machine: int, rng, payload, state) -> int:
    """Superstep kernel: apply one iteration's deliveries (lines 31-36).

    ``payload`` carries the machine's delivered light rows (canonical
    order) and delivered heavy β rows (canonical order); the heavy rows
    are re-sampled into concrete neighbors with this machine's stream —
    delivered rows first, then the buffered same-machine rows in
    emission order.  All contributions are positive, so the new
    ``active`` set is just the touched slots.  Returns the number of
    tokens applied.
    """
    tok, psi = state["tokens"], state["psi"]
    rows = np.concatenate([payload["hvertex"], state["local_heavy_v"]])
    dv = dc = _EMPTY
    if rows.size:  # as in _step_tokens_task: no heavy row, no table build
        dv, dc = receive_heavy_tokens(
            rows, np.concatenate([payload["hcount"], state["local_heavy_c"]]),
            machine, ctx.home_groups, ctx.k, rng,
        )
    delivered = ctx.local_index[np.concatenate([payload["vertex"], dv])]
    idx = np.concatenate([state["pending_v"], delivered])
    cnt = np.concatenate([state["pending_c"], payload["count"], dc])
    state["pending_v"] = state["pending_c"] = _EMPTY
    state["local_heavy_v"] = state["local_heavy_c"] = _EMPTY
    # One segment-sum over the machine's slots feeds both tables; it is
    # integer-exact because every slot's total is a token count, far
    # below 2**53.
    added = np.bincount(idx, weights=cnt, minlength=tok.size).astype(np.int64)
    active = np.flatnonzero(added)
    tok[active] += added[active]
    psi[active] += added[active]
    state["active"] = active
    return int(cnt.sum())


class _PageRankDriver:
    """BSP driver: one Algorithm-1 walk iteration per superstep.

    The per-machine token and ψ tables are installed once as resident
    state (:func:`_install_token_states`) and every iteration is one
    :meth:`Cluster.map_machines` dispatch of :func:`_step_tokens_task` —
    serial on the inline engines, fanned out to shard workers on the
    process backend, with identical per-machine draw order either way —
    carrying the previous deliveries in and the remote α/β rows out, so
    per-iteration work is proportional to live tokens rather than ``n``.
    The rows, assembled group-side (:func:`_assemble_token_outbox`),
    form two columnar streams — ``pr-light`` (``<α[v], dest: v>``) and
    ``pr-heavy`` (``<β[j], src: u>``) count messages — exchanged in a
    single communication phase, so every execution backend charges the
    same ``max_ij ceil(L_ij / B)`` rounds the per-object simulator did.
    Control traffic (liveness flags, verdict broadcast) is charged by
    :func:`~repro.core.pagerank.result.close_iteration`.

    Live counts (the termination signal) are recovered parent-side from
    ``local_live`` plus delivered counts (token moves conserve counts),
    and :meth:`finish` issues one trailing apply so the pulled tables
    always include the last deliveries.  The apply is draw-neutral when
    it has no heavy rows.
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
        self.eps = eps
        self.heavy_threshold = heavy_threshold
        self.enable_heavy_path = enable_heavy_path
        self.vid_bits = vid_bits
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
            cluster.map_machines(
                _apply_tokens_task, self.dg, self._carry, resident=self.handle,
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

        groups = cluster.map_machines(
            _step_tokens_task,
            self.dg,
            self._carry if self._carry is not None else [None] * k,
            common={
                "eps": self.eps,
                "heavy_threshold": self.heavy_threshold,
                "enable_heavy_path": self.enable_heavy_path,
            },
            resident=self.handle,
            assemble=_assemble_token_outbox,
        )
        local_live = np.zeros(k, dtype=np.int64)
        for g in groups:
            local_live[g["live_m"]] = g["live_c"]
        merged = {
            name: (
                np.concatenate([g[name] for g in groups])
                if len(groups) > 1 else groups[0][name]
            )
            for name in groups[0]
            if not name.startswith("live_")
        }
        light_in, heavy_in = self._exchange_tokens(cluster, it, merged)

        payloads = []
        lives = []
        for j in range(k):
            rows = light_in.for_machine(j)
            hrows = heavy_in.for_machine(j)
            payloads.append({
                "vertex": rows["vertex"], "count": rows["count"],
                "hvertex": hrows["vertex"], "hcount": hrows["count"],
            })
            # Moves conserve counts, so the post-apply live total is
            # known before the apply runs (it rides the next dispatch).
            lives.append(int(local_live[j] + rows["count"].sum()
                             + hrows["count"].sum()))
        self._carry = payloads
        live = sum(lives)
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
