"""Triangle (and open-triad) enumeration in the k-machine model.

* :func:`enumerate_triangles_distributed` — the paper's ``Õ(m/k^{5/3} +
  n/k^{4/3})`` algorithm (§3.2, Theorem 5): color-triplet partitioning
  plus randomized edge proxies.  Its Phases 1–3,
  :func:`~repro.core.triangles.distributed.enumerate_color_tuples`, are
  generic over the color-tuple size and also run the K4/C4 family of
  :mod:`repro.core.subgraphs`; :mod:`~repro.core.triangles.colors` holds
  the r-tuple bookkeeping both use.
* :func:`enumerate_triangles_congested_clique` — Dolev et al.'s
  deterministic ``O(n^{1/3})`` TriPartition at ``k = n`` (Corollary 1's
  matching upper bound).
* :mod:`~repro.core.triangles.baseline` — the prior ``Õ(n^{7/3}/k²)``
  conversion baseline of Klauck et al. and a gather-everything baseline.
"""

from repro._lazy import lazy_exports

# Every public name with the module that defines it; each resolves on
# first access.
_EXPORTS = {
    "enumerate_triangles_distributed": "repro.core.triangles.distributed",
    "enumerate_triangles_congested_clique": "repro.core.triangles.congested_clique",
    "enumerate_triangles_broadcast": "repro.core.triangles.baseline",
    "enumerate_triangles_conversion": "repro.core.triangles.baseline",
    "TriangleResult": "repro.core.triangles.result",
    "colors": "repro.core.triangles.colors",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
