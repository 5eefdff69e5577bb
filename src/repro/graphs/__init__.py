"""Graph substrate: CSR graphs, generators, the Figure-1 lower-bound graph,
and exact sequential triangle/triad enumeration."""

from repro._lazy import lazy_exports

# Every public name with the module that defines it; each resolves on
# first access.
_EXPORTS = {
    "Graph": "repro.graphs.graph",
    **dict.fromkeys(
        [
            "gnp_random_graph",
            "complete_graph",
            "star_graph",
            "path_graph",
            "cycle_graph",
            "empty_graph",
            "planted_triangles_graph",
            "chung_lu_graph",
            "random_regularish_graph",
        ],
        "repro.graphs.generators",
    ),
    "PageRankLowerBoundInstance": "repro.graphs.lowerbound",
    "pagerank_lowerbound_graph": "repro.graphs.lowerbound",
    **dict.fromkeys(
        [
            "enumerate_triangles",
            "count_triangles",
            "count_open_triads",
            "enumerate_open_triads",
        ],
        "repro.graphs.triangles_ref",
    ),
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
