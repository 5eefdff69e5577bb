"""Output checks against the repo's sequential references.

Run once per workload, outside every timed section.  A check returns
``None`` when the output is right and a one-line reason when it is not;
the caller counts reasons into ``failed``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PAGERANK_L1_DELTA", "union_find_components", "check_result", "check_summary"]

#: The tier-1 PageRank family tests accept ``l1_error < 0.12``.
PAGERANK_L1_DELTA = 0.12


def union_find_components(n: int, edges) -> int:
    """Component count by a plain union-find (path halving)."""
    parent = list(range(n))
    components = n
    for u, v in np.asarray(edges).tolist():
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        if u != v:
            parent[u] = v
            components -= 1
    return components


def _mst_weights(graph, seed: int) -> np.ndarray:
    """The weights the registry's MST adapter derives from the run seed."""
    return np.random.default_rng(seed).random(graph.m)


def _sorted_rows(rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows)
    return rows[np.lexsort(rows.T[::-1])] if rows.size else rows


def check_result(algo: str, graph, result, seed: int) -> str | None:
    """Check a family result object against its reference."""
    if algo == "pagerank":
        from repro.core.pagerank.reference import pagerank_walk_series

        err = result.l1_error(pagerank_walk_series(graph, eps=result.eps))
        if not err < PAGERANK_L1_DELTA:
            return f"pagerank l1 error {err:.4f} >= {PAGERANK_L1_DELTA}"
    elif algo == "triangles":
        from repro.graphs.triangles_ref import count_triangles, enumerate_triangles

        if result.count != count_triangles(graph):
            return f"triangle count {result.count} != reference {count_triangles(graph)}"
        if not np.array_equal(_sorted_rows(result.triangles),
                              _sorted_rows(enumerate_triangles(graph))):
            return "triangle set differs from the reference enumeration"
    elif algo == "mst":
        from repro.core.mst.reference import kruskal_mst

        edges, weight = kruskal_mst(graph, _mst_weights(graph, seed))
        if result.edges.shape[0] != edges.shape[0]:
            return f"mst has {result.edges.shape[0]} edges, Kruskal {edges.shape[0]}"
        if not np.isclose(result.total_weight, weight, rtol=1e-9, atol=0.0):
            return f"mst weight {result.total_weight!r} != Kruskal {weight!r}"
    elif algo == "connectivity":
        expected = union_find_components(graph.n, graph.edges)
        if result.num_components != expected:
            return f"{result.num_components} components, union-find says {expected}"
    else:
        return f"no reference check for {algo!r}"
    return None


def check_summary(algo: str, graph, summary: dict, seed: int, exact_weight: bool) -> str | None:
    """Check a serve reply's summary rows (all a reply carries of the result)."""
    if algo == "triangles":
        from repro.graphs.triangles_ref import count_triangles

        if summary.get("occurrences") != count_triangles(graph):
            return f"reply has {summary.get('occurrences')} triangles, reference differs"
        return None
    expected = union_find_components(graph.n, graph.edges)
    if summary.get("components") != expected:
        return f"reply has {summary.get('components')} components, union-find says {expected}"
    if algo == "mst":
        if summary.get("forest edges") != graph.n - expected:
            return (f"reply forest has {summary.get('forest edges')} edges, "
                    f"want {graph.n - expected}")
        if exact_weight:
            from repro.core.mst.reference import kruskal_mst

            _, weight = kruskal_mst(graph, _mst_weights(graph, seed))
            if summary.get("total weight") != f"{weight:.4f}":
                return f"reply mst weight {summary.get('total weight')} != Kruskal {weight:.4f}"
    return None
