"""Registered algorithm specs for every family in :mod:`repro.core`.

Each spec's ``runner`` is a thin adapter from the registry's uniform
``(data, cluster, placement, params)`` calling convention onto the
family entry point.  The adapters pass the cluster and prebuilt
:class:`~repro.kmachine.distgraph.DistributedGraph` (or element
assignment) down, so a registry run performs exactly the same RNG draws
as a direct ``distributed_*`` call — seeded results are bit-identical on
both execution engines.

Nothing here imports a family at registration: a spec is built (its
result class imported) on the family's first lookup, and its entry point
(:attr:`~repro.runtime.registry.AlgorithmSpec.entry_point`) and
lower-bound callable import their module when first called, so a run
loads only the family it runs.
"""

from __future__ import annotations

import importlib

import numpy as np

from repro.runtime.registry import (
    GRAPH,
    VALUES,
    AlgorithmSpec,
    _sample_element_assignment,
    register_builder,
)

__all__ = ["register_builtin_specs"]


def _run_on_shards(entry, graph, cluster, dg, params):
    # The shared shape of the PageRank, triangle, subgraph and
    # connectivity entry points.
    return entry(graph, cluster.k, cluster=cluster, distgraph=dg, **params)


def _run_congested_clique_triangles(entry, graph, cluster, dg, params):
    return entry(graph, cluster=cluster, distgraph=dg, **params)


def _identity_placement(cluster, graph):
    from repro.core.triangles.congested_clique import identity_partition

    return identity_partition(graph.n)


def _run_triangles_conversion(entry, graph, cluster, partition, params):
    return entry(graph, cluster.k, cluster=cluster, partition=partition, **params)


def _mst_weights(graph, params) -> np.ndarray:
    """The run's edge weights: ``params["weights"]``, else drawn from ``params["seed"]``.

    Deterministic random weights from the run seed, so seeded registry
    runs agree across engines; the Kruskal check reads the same weights.
    """
    weights = params["weights"]
    if weights is None:
        weights = np.random.default_rng(params["seed"]).random(graph.m)
    return weights


def _run_mst(entry, graph, cluster, dg, params):
    weights = _mst_weights(graph, params)
    rest = {key: value for key, value in params.items() if key not in ("weights", "seed")}
    return entry(graph, weights, cluster.k, cluster=cluster, distgraph=dg, **rest)


def _run_sorting(entry, values, cluster, assignment, params):
    return entry(values, cluster.k, cluster=cluster, assignment=assignment, **params)


# -- Round lower bounds from the General Lower Bound Theorem cookbook
# -- (:mod:`repro.core.lowerbounds`), imported when a run is finalized.


def _lb_pagerank(n, k, bandwidth):
    from repro.core.lowerbounds.pagerank import pagerank_round_lower_bound

    return pagerank_round_lower_bound(n, k, bandwidth)


def _lb_triangles(n, k, bandwidth, t=None):
    from repro.core.lowerbounds.triangles import triangle_round_lower_bound

    return triangle_round_lower_bound(n, k, bandwidth, t=t)


def _lb_congested_clique(n, k, bandwidth):
    from repro.core.lowerbounds.triangles import congested_clique_lower_bound

    return congested_clique_lower_bound(n, bandwidth)


def _lb_boruvka(n, k, bandwidth):
    from repro.core.lowerbounds.extensions import mst_round_lower_bound

    return mst_round_lower_bound(n, k, bandwidth)


def _lb_sorting(n, k, bandwidth):
    from repro.core.lowerbounds.extensions import sorting_round_lower_bound

    return sorting_round_lower_bound(n, k, bandwidth)


# -- Õ upper-bound polynomials (the part the theorem states; the obs
# -- layer multiplies in a polylog(n) slack to form the envelope a
# -- measured run is checked against).  ``m`` falls back to ``n`` for
# -- inputs whose edge count is unknown.


def _ub_pagerank(n, k, bandwidth, m=None):
    return n / k**2


def _ub_pagerank_baseline(n, k, bandwidth, m=None):
    return n / k


def _ub_triangles(n, k, bandwidth, m=None):
    return (m if m is not None else n) / k ** (5 / 3) + n / k ** (4 / 3)


def _ub_congested_clique(n, k, bandwidth, m=None):
    return n ** (1 / 3) / bandwidth


def _ub_triangles_conversion(n, k, bandwidth, m=None):
    return n ** (7 / 3) / k**2


def _ub_subgraphs(n, k, bandwidth, m=None):
    return (m if m is not None else n) / k**1.5 + n / k**1.25


def _ub_boruvka(n, k, bandwidth, m=None):
    return (m if m is not None else n) / k**2 + 1


def _ub_sorting(n, k, bandwidth, m=None):
    return n / k**2


def _summarize_pagerank(r: PageRankResult) -> list:
    return [
        ("iterations", r.iterations),
        ("token rounds", r.token_rounds()),
        ("tokens/vertex", r.tokens_per_vertex),
    ]


def _summarize_triangles(r: TriangleResult) -> list:
    return [("occurrences", r.count), ("colors q", r.num_colors)]


def _summarize_mst(r: MSTResult) -> list:
    return [
        ("forest edges", r.edges.shape[0]),
        ("total weight", f"{r.total_weight:.4f}"),
        ("phases", r.phases),
        ("components", r.num_components),
    ]


def _summarize_connectivity(r: ConnectivityResult) -> list:
    return [("components", r.num_components), ("connected", r.is_connected())]


def _summarize_sorting(r: SortResult) -> list:
    return [("block imbalance", f"{r.max_block_imbalance():.3f}")]


# -- Self-checks against a sequential reference, ``(data, report) ->
# -- [(label, value, ok)]``; the CLI ``run`` prints them and exits 1 on
# -- any failed row.  References are imported when a check runs.


def _check_pagerank(graph, rep) -> list:
    from repro.core.pagerank.reference import pagerank_walk_series

    r = rep.result
    error = r.l1_error(pagerank_walk_series(graph, eps=r.eps))
    # Reported, never gated: the δ it is held to depends on the caller's c.
    return [("L1 error vs reference", f"{error:.5f}", True)]


def _check_mst(graph, rep) -> list:
    from repro.core.mst.reference import kruskal_mst

    total = rep.result.total_weight
    _, ref_total = kruskal_mst(graph, _mst_weights(graph, rep.params))
    return [("weight (vs Kruskal)", f"{total:.4f} ({ref_total:.4f})",
             abs(total - ref_total) < 1e-9)]


def min_vertex_labels(n: int, edges: np.ndarray) -> np.ndarray:
    """Each vertex's component label: the component's minimum vertex id.

    Min-label hooking with pointer jumping over the edge array: every
    root hooks onto the smallest root across its edges, then every
    vertex jumps to its root, until no edge joins two roots.
    """
    lab = np.arange(n)
    u, v = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
    while True:
        ru, rv = lab[u], lab[v]
        cross = ru != rv
        if not cross.any():
            return lab
        ru, rv = ru[cross], rv[cross]
        np.minimum.at(lab, np.concatenate([ru, rv]), np.tile(np.minimum(ru, rv), 2))
        while not np.array_equal(jumped := lab[lab], lab):
            lab = jumped


def _check_connectivity(graph, rep) -> list:
    labels = min_vertex_labels(graph.n, graph.edges)
    components = int(np.count_nonzero(labels == np.arange(graph.n)))
    r = rep.result
    ok = r.num_components == components and np.array_equal(r.labels, labels)
    return [("components (vs union-find)", f"{r.num_components} ({components})", bool(ok))]


def _check_sorting(values, rep) -> list:
    ok = bool(np.all(np.diff(rep.result.concatenated()) >= 0))
    return [("globally sorted", ok, ok)]


def _check_enumeration(graph, rep) -> list:
    from repro.core.triangles.distributed import PATTERNS

    if rep.params.get("skip_local_enumeration"):
        return [("occurrences (vs sequential)", "not enumerated", True)]
    rows = rep.result.triangles
    reference = PATTERNS[rep.params.get("pattern", "triangles")][1](graph.n, graph.edges)
    return [("occurrences (vs sequential)", f"{len(rows)} ({len(reference)})",
             bool(np.array_equal(rows, reference)))]


def _register(*, result_type: str, runner, **fields) -> None:
    """Register a family whose ``result_type`` (``"module:Class"``) loads on first lookup.

    ``runner`` takes the family entry point first: the registered runner
    passes it :attr:`AlgorithmSpec.entry_point`, so what a run calls is
    the function whose signature :meth:`AlgorithmSpec.check_params` reads.
    """
    module, cls = result_type.split(":")

    def build() -> AlgorithmSpec:
        spec = AlgorithmSpec(
            result_type=getattr(importlib.import_module(module), cls),
            runner=lambda data, cluster, placement, params: runner(
                spec.entry_point, data, cluster, placement, params
            ),
            **fields,
        )
        return spec

    register_builder(fields["name"], build)


def register_builtin_specs() -> None:
    """Register every :mod:`repro.core` family (idempotent via import)."""
    _register(
        name="pagerank",
        title="PageRank (Algorithm 1)",
        runner=_run_on_shards,
        entry="repro.core.pagerank.distributed:distributed_pagerank",
        input_kind=GRAPH,
        result_type="repro.core.pagerank.result:PageRankResult",
        bounds="Õ(n/k²) rounds (Theorem 4)",
        default_params={"c": 16.0},
        lower_bound=_lb_pagerank,
        upper_bound=_ub_pagerank,
        round_value=lambda r: r.token_rounds(),
        fit_target="-2 (Thm 4)",
        summarize=_summarize_pagerank,
        check=_check_pagerank,
        build_distgraph=True,
    )
    _register(
        name="pagerank-baseline",
        title="PageRank (per-edge baseline, SODA'15)",
        runner=_run_on_shards,
        entry="repro.core.pagerank.baseline:baseline_pagerank",
        input_kind=GRAPH,
        result_type="repro.core.pagerank.result:PageRankResult",
        bounds="Õ(n/k) rounds (Klauck et al., SODA 2015)",
        default_params={"c": 16.0},
        lower_bound=_lb_pagerank,
        upper_bound=_ub_pagerank_baseline,
        round_value=lambda r: r.token_rounds(),
        fit_target="-1 (SODA'15)",
        summarize=_summarize_pagerank,
        check=_check_pagerank,
        build_distgraph=True,
    )
    _register(
        name="triangles",
        title="Triangle enumeration (Theorem 5)",
        runner=_run_on_shards,
        entry="repro.core.triangles.distributed:enumerate_triangles_distributed",
        input_kind=GRAPH,
        result_type="repro.core.triangles.result:TriangleResult",
        bounds="Õ(m/k^{5/3} + n/k^{4/3}) rounds (Theorem 5)",
        lower_bound=_lb_triangles,
        # Theorem 3's bound depends on the output count t; without it the
        # dense-graph default can exceed the measured rounds on sparse inputs.
        lower_bound_extra=lambda r: {"t": max(1, r.count)},
        upper_bound=_ub_triangles,
        fit_target="-5/3 (Thm 5)",
        summarize=_summarize_triangles,
        check=_check_enumeration,
        build_distgraph=True,
    )
    _register(
        name="congested-clique-triangles",
        title="Triangle enumeration, congested clique (Corollary 1)",
        runner=_run_congested_clique_triangles,
        entry="repro.core.triangles.congested_clique:enumerate_triangles_congested_clique",
        input_kind=GRAPH,
        result_type="repro.core.triangles.result:TriangleResult",
        bounds="O(n^{1/3}/B) rounds at k=n (Dolev et al.; Corollary 1 matching)",
        # One machine per vertex: the caller's k is overridden and the
        # placement is the deterministic identity partition (no RVP draw).
        fix_k=lambda g: g.n,
        sample_placement=_identity_placement,
        lower_bound=_lb_congested_clique,
        upper_bound=_ub_congested_clique,
        fit_target=None,
        summarize=_summarize_triangles,
        check=_check_enumeration,
        build_distgraph=True,
    )
    _register(
        name="triangles-conversion",
        title="Triangle enumeration via the Conversion Theorem (SODA'15)",
        runner=_run_triangles_conversion,
        entry="repro.core.triangles.baseline:enumerate_triangles_conversion",
        input_kind=GRAPH,
        result_type="repro.core.triangles.result:TriangleResult",
        bounds="Õ(n^{7/3}/k²) rounds (Klauck et al., SODA 2015 baseline)",
        lower_bound=_lb_triangles,
        lower_bound_extra=lambda r: {"t": max(1, r.count)},
        upper_bound=_ub_triangles_conversion,
        fit_target="-2 (conversion)",
        summarize=_summarize_triangles,
        check=_check_enumeration,
        build_distgraph=False,
    )
    _register(
        name="subgraphs",
        title="K4/C4 enumeration (§1.2 generalization)",
        runner=_run_on_shards,
        entry="repro.core.subgraphs.distributed:enumerate_subgraphs_distributed",
        input_kind=GRAPH,
        result_type="repro.core.triangles.result:TriangleResult",
        bounds="Õ(m/k^{3/2} + n/k^{5/4}) rounds (§1.2 remark)",
        default_params={"pattern": "k4"},
        upper_bound=_ub_subgraphs,
        summarize=_summarize_triangles,
        check=_check_enumeration,
        build_distgraph=True,
    )
    _register(
        name="mst",
        title="MST (proxy-Borůvka)",
        runner=_run_mst,
        entry="repro.core.mst.distributed:distributed_mst",
        input_kind=GRAPH,
        result_type="repro.core.mst.result:MSTResult",
        bounds="Õ(m/k² + polylog) rounds (§1.3, cf. SPAA'16)",
        default_params={"weights": None, "seed": None},
        lower_bound=_lb_boruvka,
        upper_bound=_ub_boruvka,
        summarize=_summarize_mst,
        check=_check_mst,
        build_distgraph=True,
    )
    _register(
        name="connectivity",
        title="Connected components (unit-weight Borůvka)",
        runner=_run_on_shards,
        entry="repro.core.connectivity.distributed:connected_components_distributed",
        input_kind=GRAPH,
        result_type="repro.core.connectivity.result:ConnectivityResult",
        bounds="Õ(m/k² + polylog) rounds (§1.3)",
        lower_bound=_lb_boruvka,
        upper_bound=_ub_boruvka,
        summarize=_summarize_connectivity,
        check=_check_connectivity,
        build_distgraph=True,
    )
    _register(
        name="sorting",
        title="Distributed sorting (sample sort)",
        runner=_run_sorting,
        entry="repro.core.sorting.distributed:distributed_sort",
        input_kind=VALUES,
        result_type="repro.core.sorting.result:SortResult",
        bounds="Θ̃(n/k²) rounds (§1.3)",
        default_params={"oversample": 8.0},
        lower_bound=_lb_sorting,
        upper_bound=_ub_sorting,
        summarize=_summarize_sorting,
        check=_check_sorting,
        sample_placement=_sample_element_assignment,
        build_distgraph=False,
    )
