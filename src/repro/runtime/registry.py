"""The algorithm registry and the unified :func:`run` entry point.

Every algorithm family declares an :class:`AlgorithmSpec` — name, driver
adapter, input kind, default parameters, result type, and the matching
theorem bound — and :func:`run` owns everything the ``distributed_*``
entry points used to duplicate: cluster construction, input-placement
sampling, :class:`~repro.kmachine.distgraph.DistributedGraph` shard
materialization, engine selection, and metrics collection.  New workloads
are one registered spec away from the CLI (one run or a k-sweep) and the
benchmark suite.
"""

from __future__ import annotations

import importlib
import inspect
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Mapping

import numpy as np

from repro._util import check_seed
from repro.errors import AlgorithmError
from repro.kmachine.cluster import Cluster
from repro.kmachine.distgraph import DistributedGraph, cached_distgraph
from repro.kmachine.engine import DEFAULT_ENGINE, Engine, engine_class
from repro.kmachine.metrics import Metrics
from repro.kmachine.partition import VertexPartition, random_vertex_partition
from repro.obs.bounds import BoundReport, compute_bound_report
from repro.obs.trace import resolve_tracer

__all__ = [
    "AlgorithmSpec",
    "RunReport",
    "DEFAULT_K",
    "get_spec",
    "available",
    "run",
]

#: Input kinds a spec can declare.
GRAPH, VALUES = "graph", "values"

#: Machine count used when ``run`` is called without ``k`` (dataset-spec
#: invocations commonly omit it).
DEFAULT_K = 8

#: Entry-point arguments a runner fills from what :func:`run` built or
#: was given; none of them is a family parameter.
_SUPPLIED = frozenset({
    "graph", "values", "k", "seed", "bandwidth", "engine", "cluster",
    "partition", "assignment", "distgraph",
})


def _default_cluster_n(data) -> int:
    """Problem-size parameter for the cluster's polylog-bandwidth default."""
    n = data.n if hasattr(data, "n") else int(np.asarray(data).size)
    return max(2, n)


def _sample_rvp(cluster: Cluster, data) -> VertexPartition:
    """The RVP draw every graph entry point makes (paper §1.1)."""
    return random_vertex_partition(data.n, cluster.k, seed=cluster.shared_rng)


def _sample_element_assignment(cluster: Cluster, data) -> np.ndarray:
    """The i.u.r. element placement of the sorting input model."""
    return cluster.shared_rng.integers(0, cluster.k, size=int(np.asarray(data).size))


def _total_rounds(result) -> int:
    """Default sweep metric: all rounds the run charged."""
    return result.metrics.rounds


@dataclass(frozen=True)
class AlgorithmSpec:
    """A registered algorithm family.

    Attributes
    ----------
    name:
        Registry key (``"pagerank"``, ``"triangles"``, ...).
    title:
        Human-readable title for CLI tables.
    runner:
        Adapter ``(data, cluster, placement, params) -> result`` calling
        the family entry point with the cluster/placement :func:`run`
        built.  ``placement`` is a :class:`VertexPartition` (graph
        inputs) or an element→machine assignment array (value inputs).
    entry:
        ``"module:function"`` naming the family entry point the runner
        calls (:attr:`entry_point`).  Its parameters, less the ones the
        runner fills itself, are the family parameters :func:`run`
        accepts (:attr:`accepted_params`).
    input_kind:
        ``"graph"`` or ``"values"``.
    result_type:
        The result class the runner returns (CLI/introspection).
    bounds:
        The paper's matching upper-bound statement for the family.
    default_params:
        Family parameters merged under explicit ``run(..., **params)``.
    lower_bound:
        Optional ``(n, k, B, **extra) -> float`` round lower bound from
        the General Lower Bound Theorem cookbook.
    upper_bound:
        Optional ``(n=, k=, bandwidth=, m=) -> float`` giving the
        polynomial part of the family theorem's Õ round bound (e.g.
        ``n / k**2`` for PageRank, Thm 4).  ``m`` is the input edge
        count, ``None`` for non-graph inputs.  The observability layer
        multiplies in a ``polylog(n)`` slack to form the envelope a
        measured run is checked against (see
        :func:`repro.obs.compute_bound_report`).
    lower_bound_extra:
        Optional result → dict of extra keyword arguments for
        :attr:`lower_bound` (e.g. the triangle bound needs the measured
        output count ``t``).
    round_value:
        Result → the round count a k-sweep should fit (e.g. PageRank
        fits token-phase rounds only).
    fit_target:
        Exponent the paper predicts for ``round_value ~ k^x`` sweeps,
        as a display string (``"-2 (Thm 4)"``), or ``None``.
    summarize:
        Optional result → list of ``(label, value)`` rows for CLI output.
    check:
        Optional ``(data, report) -> [(label, value, ok)]`` self-check
        of a finished run against a sequential reference (PageRank's L1
        error, the MST weight against Kruskal, global sortedness).  Only
        the CLI ``run`` command calls it: it prints the rows after the
        :attr:`summarize` rows and exits 1 if any ``ok`` is false.
    cluster_n:
        Input → the ``n`` passed to :class:`Cluster` (bandwidth default).
    sample_placement:
        ``(cluster, data) -> placement`` drawn from the cluster's shared
        randomness; must reproduce the draw the direct entry point makes
        so registry runs stay bit-identical to direct calls.
    build_distgraph:
        Whether :func:`run` materializes a :class:`DistributedGraph` and
        passes it to the runner (graph families that consume shards).
    fix_k:
        Optional ``data -> k`` override for families whose machine count
        is determined by the input (the congested clique uses one
        machine per vertex); :func:`run` replaces the caller's ``k``.
    """

    name: str
    title: str
    runner: Callable[[Any, Cluster, Any, dict], Any]
    entry: str
    input_kind: str
    result_type: type
    bounds: str
    default_params: Mapping[str, Any] = field(default_factory=dict)
    lower_bound: Callable[..., float] | None = None
    lower_bound_extra: Callable[[Any], dict] | None = None
    upper_bound: Callable[..., float] | None = None
    round_value: Callable[[Any], int] = _total_rounds
    fit_target: str | None = None
    summarize: Callable[[Any], list] | None = None
    check: Callable[[Any, RunReport], list] | None = None
    cluster_n: Callable[[Any], int] = _default_cluster_n
    sample_placement: Callable[[Cluster, Any], Any] = _sample_rvp
    build_distgraph: bool = False
    fix_k: Callable[[Any], int] | None = None

    def __post_init__(self) -> None:
        if self.input_kind not in (GRAPH, VALUES):
            raise AlgorithmError(
                f"input_kind must be {GRAPH!r} or {VALUES!r}, got {self.input_kind!r}"
            )

    @cached_property
    def entry_point(self) -> Callable[..., Any]:
        """The function :attr:`entry` names, imported on first use."""
        module, function = self.entry.split(":")
        return getattr(importlib.import_module(module), function)

    @cached_property
    def accepted_params(self) -> frozenset[str]:
        """Family parameter names ``run(**params)`` accepts."""
        return frozenset(inspect.signature(self.entry_point).parameters) - _SUPPLIED

    def check_params(self, params: Mapping[str, Any]) -> None:
        """Raise :class:`AlgorithmError` naming any key this family does not take."""
        # No params, no import: the entry module loads when the run does.
        unknown = sorted(set(params) - self.accepted_params) if params else []
        if unknown:
            raise AlgorithmError(
                f"{self.name!r} has no parameter {', '.join(map(repr, unknown))}; "
                f"it accepts: {', '.join(sorted(self.accepted_params)) or 'none'}"
            )


_REGISTRY: dict[str, AlgorithmSpec] = {}
#: Families registered by name and spec builder; a name moves to
#: :data:`_REGISTRY` on its first lookup.
_BUILDERS: dict[str, Callable[[], AlgorithmSpec]] = {}


def register_builder(name: str, build: Callable[[], AlgorithmSpec]) -> None:
    """Register family ``name`` by a zero-argument spec builder.

    The name is listed at once; ``build`` runs on the first
    :func:`get_spec`, so the modules it imports (the family's result
    class) load only when the family is used.
    """
    if name in _REGISTRY or name in _BUILDERS:
        raise AlgorithmError(f"algorithm {name!r} is already registered")
    _BUILDERS[name] = build


def get_spec(name: str) -> AlgorithmSpec:
    """Look up a registered family by name."""
    build = _BUILDERS.get(name)
    if build is not None:
        # Safe for concurrent first lookups: the first spec built is
        # kept, and the name is in one of the two dicts throughout.
        _REGISTRY.setdefault(name, build())
        _BUILDERS.pop(name, None)
    try:
        return _REGISTRY[name]
    except KeyError:
        raise AlgorithmError(
            f"unknown algorithm {name!r}; registered: {', '.join(available())}"
        ) from None


def available() -> tuple[str, ...]:
    """Registered family names, sorted."""
    return tuple(sorted({*_REGISTRY, *_BUILDERS}))


@dataclass
class RunReport:
    """Outcome of a registry run: the family result plus execution context."""

    name: str
    result: Any
    metrics: Metrics
    engine: str
    k: int
    n: int
    params: dict
    spec: AlgorithmSpec
    distgraph: DistributedGraph | None = None
    #: Worker-pool size of the process backend (None for inline backends).
    workers: int | None = None
    #: Whether this report was answered from the sqlite result cache
    #: (no cluster was built, no superstep executed; ``distgraph`` and
    #: ``workers`` are None on cached reports).
    cached: bool = False
    #: Seconds from :func:`run` entry to the engine's first phase
    #: activity — the cold-start cost (dataset materialization,
    #: placement sampling and shard construction)
    #: paid before the algorithm's first superstep.  ``None`` when the
    #: run never touched the engine (cached reports) or the runner
    #: finished without a phase.
    first_superstep_seconds: float | None = None
    #: Seconds from :func:`run` entry to the report being assembled —
    #: the total wall-clock the caller paid, including dataset
    #: materialization and (for cached reports) the sqlite lookup.
    wall_seconds: float | None = None
    #: The run's verdict: measured rounds and link loads checked against
    #: the family theorem's Õ envelope and lower bound, phase by phase,
    #: with the per-phase ledger in ``entries`` (see :mod:`repro.obs.bounds`).
    bound_report: BoundReport | None = None
    #: The live :class:`~repro.obs.trace.Tracer` of a traced run
    #: (``None`` untraced).  In-memory tracers keep their events here
    #: for programmatic inspection.
    tracer: Any = None

    @property
    def rounds(self) -> int:
        """Total rounds charged."""
        return self.metrics.rounds

    @property
    def bandwidth(self) -> int:
        """Link bandwidth ``B`` used by the run."""
        return self.metrics.bandwidth

    def round_value(self) -> int:
        """The family's sweep metric (see :attr:`AlgorithmSpec.round_value`)."""
        return self.spec.round_value(self.result)


def _resolve_result_store(result_cache):
    """The :class:`~repro.serve.results.ResultStore` for ``result_cache``.

    ``None``/``False`` disable caching; ``True`` resolves the default
    store (``$REPRO_RESULT_DB`` or ``<cache root>/results.sqlite``); a
    store instance is used as-is.
    """
    if result_cache is None or result_cache is False:
        return None
    if result_cache is True:
        from repro.serve.results import default_result_store

        return default_result_store()
    return result_cache


def _result_cache_plan(name, data, k, merged, seed, engine_name, bandwidth, cluster, placement):
    """``(key, params_json)`` for a cacheable run, else ``None``.

    A run is cacheable exactly when it is a pure function of the key:
    the input carries a dataset content key, the seed is pinned, the
    cluster and placement are run-built (an explicit cluster/placement
    smuggles in state the key cannot see), and every parameter has a
    canonical JSON form.
    """
    content_key = getattr(data, "content_key", None)
    if content_key is None or seed is None:
        return None
    if cluster is not None or placement is not None:
        return None
    from repro.serve.results import canonical_params, result_key

    try:
        params_json = canonical_params(merged, k, bandwidth)
    except TypeError:
        return None  # e.g. an explicit numpy weights array
    return result_key(content_key, name, params_json, seed, engine_name), params_json


def run(
    name: str,
    data=None,
    k: int | None = None,
    *,
    dataset=None,
    engine: str | type[Engine] | None = None,
    workers: int | None = None,
    seed: int | None = None,
    bandwidth: int | None = None,
    cluster: Cluster | None = None,
    placement=None,
    result_cache=None,
    cache_only: bool = False,
    trace=None,
    **params,
) -> RunReport:
    """Run a registered algorithm family end to end.

    Owns the plumbing every entry point needs: builds the
    :class:`Cluster` (``engine`` and ``bandwidth`` selection), samples
    the input placement from the cluster's shared randomness, wraps the
    graph once in a :class:`DistributedGraph` (whose cached views and
    lazy per-machine shard slices the family drivers consume), invokes
    the family runner, and wraps the result with its metrics in a
    :class:`RunReport`.

    Seeded runs are bit-identical to calling the family's
    ``distributed_*`` function directly with the same arguments, on
    either product engine (``"vector"``, ``"process"``) and on the
    per-object oracle engine the test suite registers as ``message``.

    Parameters
    ----------
    name:
        A registered family name (see :func:`available`).
    data:
        The family input — a :class:`~repro.graphs.graph.Graph` or, for
        ``input_kind="values"``, an array of elements.  Mutually
        exclusive with ``dataset``.
    k:
        Number of machines (default :data:`DEFAULT_K`; overridden by
        specs declaring :attr:`AlgorithmSpec.fix_k`, e.g. the congested
        clique's ``k = n``).
    dataset:
        A dataset spec string (or parsed
        :class:`~repro.workloads.DatasetSpec`), e.g.
        ``"rmat:n=1e6,avg_deg=16,seed=7"`` — resolved through the
        workload subsystem's content-addressed on-disk cache
        (:func:`repro.workloads.materialize`), so repeated runs load the
        built CSR snapshot instead of regenerating, or, while anything
        holds the graph (the distgraph LRU after a run), get that same
        object without a read — and with it the shards
        :func:`~repro.kmachine.distgraph.cached_distgraph` keeps for
        it.  The family, its parameters and the seed are checked
        first, so a rejected request builds no dataset.  Graph
        families only.
    engine / workers / seed / bandwidth:
        Cluster construction knobs.  ``engine`` is a registered name
        or an :class:`~repro.kmachine.engine.Engine` subclass and
        defaults to :data:`~repro.kmachine.engine.DEFAULT_ENGINE`; it
        is resolved once, so the result-cache key, the trace header,
        the stored row and ``RunReport.engine`` all carry the resolved
        engine's ``name``.  ``workers`` sizes the process backend's pool.
        All four conflict with an explicit ``cluster=`` — the cluster
        already fixed them — and passing any of them alongside one
        raises :class:`AlgorithmError` rather than silently running on
        the wrong engine/seed.  A cluster this call builds is closed
        before returning; with the process backend that releases the
        worker pool *warm*, so consecutive ``run(engine="process")``
        calls with the same worker count reuse the same worker
        processes and published graph stores (see
        :func:`repro.kmachine.parallel.shutdown_worker_pools` for
        explicit teardown).
    placement:
        Explicit input placement (partition or assignment array);
        sampled from shared randomness when omitted.
    result_cache:
        ``True`` (the default sqlite store), a
        :class:`~repro.serve.results.ResultStore`, or ``None``/``False``
        (off).  Cacheable runs — dataset-addressed input (a graph with
        a ``content_key``), pinned ``seed``, run-built cluster and
        placement, canonicalizable params — are answered from the store
        when present (``report.cached`` is True and no superstep
        executes) and persisted after execution otherwise.  Runs that
        are not cacheable simply execute.
    cache_only:
        Return the cached :class:`RunReport` or ``None`` without ever
        executing (requires ``result_cache``).  The serve session uses
        this to answer hits without queueing for the execution
        substrate.
    trace:
        Execution tracing (see :mod:`repro.obs`): a JSONL output path,
        ``True`` for an in-memory :class:`~repro.obs.trace.Tracer`
        (kept on ``report.tracer``), or a ``Tracer`` instance the
        caller owns (shared across runs, e.g. one trace per sweep).
        ``None`` consults ``$REPRO_TRACE``; unset means disabled, and a
        disabled run pays one branch per phase — no clocks, no events.
    **params:
        Family parameters, overriding the spec defaults.
    """
    entered = time.perf_counter()
    tracer, owned_tracer = resolve_tracer(trace)
    try:
        return _run_impl(
            name, data, k, entered=entered, tracer=tracer, dataset=dataset,
            engine=engine, workers=workers, seed=seed, bandwidth=bandwidth,
            cluster=cluster, placement=placement, result_cache=result_cache,
            cache_only=cache_only, **params,
        )
    finally:
        if owned_tracer:
            tracer.close()


def _bandwidth_of(cluster, bandwidth, spec, data) -> int:
    """The link bandwidth ``B`` the run will use (for trace headers)."""
    if cluster is not None:
        return int(cluster.bandwidth)
    if bandwidth is not None:
        return int(bandwidth)
    from repro._util import polylog

    return int(polylog(max(2, spec.cluster_n(data))))


def _run_impl(
    name: str,
    data,
    k: int | None,
    *,
    entered: float,
    tracer,
    dataset,
    engine,
    workers: int | None,
    seed: int | None,
    bandwidth: int | None,
    cluster: Cluster | None,
    placement,
    result_cache,
    cache_only: bool,
    **params,
) -> RunReport:
    spec = get_spec(name)
    spec.check_params(params)
    check_seed(seed)
    if dataset is not None:
        if data is not None:
            raise AlgorithmError("pass either data or dataset, not both")
        if spec.input_kind != GRAPH:
            raise AlgorithmError(
                f"algorithm {name!r} takes {spec.input_kind!r} input; "
                f"dataset specs describe graphs"
            )
        from repro import workloads  # deferred: workloads imports graphs

        data = workloads.materialize(dataset)
    elif data is None:
        raise AlgorithmError("run() needs an input: pass data or dataset=...")
    if k is None:
        k = DEFAULT_K
    if spec.fix_k is not None:
        k = int(spec.fix_k(data))
    if cluster is not None:
        if cluster.k != k:
            raise AlgorithmError(f"cluster has k={cluster.k}, expected {k}")
        if workers is not None:
            raise AlgorithmError(
                "workers sizes the cluster run() builds; pass it via "
                "Cluster(engine='process', workers=...) instead"
            )
        # Mixed intent fails loudly: an explicit cluster already fixed
        # its engine, seed, and bandwidth, so accepting them here would
        # silently run on the wrong one.
        for knob, value in (("engine", engine), ("seed", seed),
                            ("bandwidth", bandwidth)):
            if value is not None:
                raise AlgorithmError(
                    f"{knob} configures the cluster run() builds; the "
                    f"explicit cluster= already fixed it — drop {knob} "
                    f"or drop cluster"
                )
        engine_name = cluster.engine.name
    else:
        # Resolved here and nowhere else: the result key, run_start, the
        # stored row and the Cluster built below cannot disagree.
        engine = engine_class(DEFAULT_ENGINE if engine is None else engine)
        engine_name = engine.name
    merged = dict(spec.default_params)
    merged.update(params)
    if "seed" in merged and merged["seed"] is None:
        merged["seed"] = seed
    n = data.n if hasattr(data, "n") else int(np.asarray(data).size)
    m = int(data.m) if hasattr(data, "m") else None
    if tracer.enabled:
        tracer.run_start(
            algo=spec.name, n=n, m=m, k=k,
            bandwidth=_bandwidth_of(cluster, bandwidth, spec, data),
            engine=engine_name, workers=workers,
        )
    store = _resolve_result_store(result_cache)
    if cache_only and store is None:
        raise AlgorithmError("cache_only needs result_cache")
    plan = None
    if store is not None:
        plan = _result_cache_plan(
            name, data, k, merged, seed, engine_name, bandwidth, cluster, placement
        )
        if plan is not None:
            key, params_json = plan
            # cache_only probes never count a miss: the caller's real
            # run (which looks up again) owns the miss accounting.
            hit = store.get(key, count_miss=not cache_only)
            if hit is not None:
                result, metrics, _meta = hit
                wall = time.perf_counter() - entered
                if tracer.enabled:
                    tracer.run_end(
                        algo=spec.name, cached=True, wall_s=wall,
                        setup_s=None, metrics=metrics,
                    )
                return RunReport(
                    name=spec.name, result=result, metrics=metrics,
                    engine=engine_name, k=k, n=n, params=merged, spec=spec,
                    distgraph=None, workers=None, cached=True,
                    wall_seconds=wall,
                    bound_report=compute_bound_report(
                        spec, n=n, k=k, bandwidth=metrics.bandwidth,
                        metrics=metrics, result=result, m=m,
                    ),
                    tracer=tracer if tracer.enabled else None,
                )
    if cache_only:
        return None
    own_cluster = cluster is None
    if cluster is None:
        cluster = Cluster(
            k=k, n=spec.cluster_n(data), bandwidth=bandwidth, seed=seed,
            engine=engine, workers=workers,
        )
    if placement is None:
        placement = spec.sample_placement(cluster, data)
    distgraph = None
    if spec.build_distgraph:
        if isinstance(placement, DistributedGraph):
            distgraph, placement = placement, placement.partition
        else:
            # Content-addressed LRU: repeated runs with a pinned placement
            # (k-sweep repetitions, engine comparisons) share one set of
            # materialized shards instead of rebuilding them per run.
            distgraph = cached_distgraph(data, placement)
    installed_tracer = False
    prev_tracer = None
    if tracer.enabled:
        prev_tracer = cluster.engine.tracer
        cluster.engine.tracer = tracer
        installed_tracer = True
    try:
        result = spec.runner(
            data, cluster, distgraph if distgraph is not None else placement, merged
        )
    finally:
        if installed_tracer:
            cluster.engine.tracer = prev_tracer
        if own_cluster:
            cluster.close()
    first_activity = getattr(cluster.engine, "first_activity", None)
    if plan is not None:
        key, params_json = plan
        store.put(
            key, content_key=data.content_key, algo=spec.name,
            params_json=params_json, seed=seed, engine=engine_name,
            n=n, k=k, result=result, metrics=cluster.metrics,
        )
    setup_s = first_activity - entered if first_activity is not None else None
    wall = time.perf_counter() - entered
    if tracer.enabled:
        tracer.run_end(
            algo=spec.name, cached=False, wall_s=wall, setup_s=setup_s,
            metrics=cluster.metrics,
        )
    return RunReport(
        name=spec.name,
        result=result,
        metrics=cluster.metrics,
        engine=engine_name,
        k=k,
        n=n,
        params=merged,
        spec=spec,
        distgraph=distgraph,
        workers=getattr(cluster.engine, "workers", None),
        first_superstep_seconds=setup_s,
        wall_seconds=wall,
        bound_report=compute_bound_report(
            spec, n=n, k=k, bandwidth=cluster.metrics.bandwidth,
            metrics=cluster.metrics, result=result, m=m,
            events=tracer.events if tracer.enabled else None,
        ),
        tracer=tracer if tracer.enabled else None,
    )
