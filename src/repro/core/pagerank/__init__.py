"""PageRank in the k-machine model.

* :func:`distributed_pagerank` — the paper's Algorithm 1 (Theorem 4):
  Monte-Carlo random-walk PageRank with per-destination token-count
  aggregation, heavy/light vertex splitting, and randomized routing;
  ``Õ(n/k²)`` rounds.
* :func:`baseline_pagerank` — the prior ``Õ(n/k)`` approach of Klauck et
  al. (Conversion-Theorem-style per-edge token forwarding).
* :mod:`~repro.core.pagerank.reference` — exact sequential PageRank
  (walk-series and teleport semantics) used as ground truth.
* :mod:`~repro.core.pagerank.lemma4` — the Lemma-4 closed forms.
"""

from repro._lazy import lazy_exports

# Every public name with the module that defines it; each resolves on
# first access.
_EXPORTS = {
    "distributed_pagerank": "repro.core.pagerank.distributed",
    "baseline_pagerank": "repro.core.pagerank.baseline",
    "pagerank_walk_series": "repro.core.pagerank.reference",
    "PageRankResult": "repro.core.pagerank.result",
    "lemma4": "repro.core.pagerank.lemma4",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
