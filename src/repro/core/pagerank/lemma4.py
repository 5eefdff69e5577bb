"""Lemma 4: the PageRank separation on the Figure-1 graph.

For any reset probability ``eps < 1`` there is a constant-factor
separation between the two possible values of ``PageRank(v_i)``:

* ``b_i = 0`` (edge ``u_i -> x_i``):
  ``PageRank(v_i) = eps (2.5 - 2 eps + eps²/2) / n``
* ``b_i = 1`` (edge ``x_i -> u_i``):
  ``PageRank(v_i) = eps (1 + β + β² + β³) / n >= eps (3 - 3 eps + eps²) / n``
  (``β = 1 - eps``).

Any ``δ``-approximation with ``δ`` below half the relative gap therefore
reveals ``b_i`` — the reconstruction step of Lemma 7.
"""

from __future__ import annotations

from repro.errors import AlgorithmError

__all__ = [
    "value_b0",
    "value_b1",
    "value_b1_paper_bound",
    "separation_ratio",
    "max_safe_delta",
]


def _check(eps: float) -> float:
    if not (0.0 < eps < 1.0):
        raise AlgorithmError(f"eps must lie in (0, 1), got {eps}")
    return eps


def value_b0(eps: float, n: int) -> float:
    """``PageRank(v_i)`` when ``b_i = 0``: ``eps (2.5 - 2eps + eps²/2)/n``."""
    _check(eps)
    return eps * (2.5 - 2.0 * eps + eps**2 / 2.0) / n


def value_b1(eps: float, n: int) -> float:
    """``PageRank(v_i)`` when ``b_i = 1``: ``eps (1 + β + β² + β³)/n``."""
    _check(eps)
    beta = 1.0 - eps
    return eps * (1.0 + beta + beta**2 + beta**3) / n


def separation_ratio(eps: float) -> float:
    """``value_b1 / value_b0`` — a constant > 1 for every ``eps`` in (0, 1)."""
    _check(eps)
    beta = 1.0 - eps
    return (1.0 + beta + beta**2 + beta**3) / (1.0 + beta + beta**2 / 2.0)


def max_safe_delta(eps: float) -> float:
    """Largest relative approximation error that still reveals ``b_i``.

    A ``δ``-approximation ``p̂`` with ``|p̂ - p| <= δ p`` distinguishes the
    two Lemma-4 values whenever ``δ`` is below ``(r - 1)/(r + 1)`` with
    ``r = separation_ratio(eps)`` (the intervals around the two values
    stay disjoint).
    """
    r = separation_ratio(eps)
    return (r - 1.0) / (r + 1.0)
