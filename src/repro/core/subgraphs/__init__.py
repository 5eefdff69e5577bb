"""Small-subgraph enumeration beyond triangles (paper §1.2).

The paper notes that the triangle techniques and results "can be
generalized to the enumeration of other small subgraphs such as cycles
and cliques".  This package carries that out for the 4-vertex patterns:

* **4-cliques (K4)** and **4-cycles (C4)** via
  :func:`enumerate_subgraphs_distributed`, which runs the Theorem-5
  pipeline (:func:`~repro.core.triangles.distributed.enumerate_color_tuples`)
  with color 4-tuples: ``q = floor(k^{1/4})`` colors, one machine per
  ordered color 4-tuple, edges shipped through random proxies to every
  sorted 4-multiset owner containing both endpoint colors (``C(q+1, 2)``
  machines per edge), local enumeration + color-multiset filtering so
  every occurrence is output exactly once.
* :mod:`~repro.core.subgraphs.local` — the sequential K4/C4 enumerators,
  which are the pipeline's Phase-3 kernels and the reference oracles.
"""

from repro._lazy import lazy_exports

# Every public name with the module that defines it; each resolves on
# first access (so the triangle pipeline can import ``local`` without
# loading this package's driver, which imports the pipeline).
_EXPORTS = {
    "enumerate_k4_edges": "repro.core.subgraphs.local",
    "enumerate_c4_edges": "repro.core.subgraphs.local",
    "enumerate_subgraphs_distributed": "repro.core.subgraphs.distributed",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
