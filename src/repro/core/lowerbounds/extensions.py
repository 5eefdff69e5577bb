"""§1.3 extensions of the General Lower Bound Theorem: sorting and MST.

The paper highlights (§1.3) that Theorem 1 directly yields ``Ω̃(n/k²)``
round lower bounds for

* **distributed sorting** — ``n`` elements randomly distributed across the
  machines; machine ``i`` must end up holding the ``i``-th block of order
  statistics.  ``Z`` = the rank permutation restricted to a machine's
  output block: producing ``n/k`` correctly-ranked elements resolves
  ``Θ((n/k) log n)`` bits a machine could not have known initially, giving
  ``IC = Θ̃(n/k)`` and ``T = Ω̃(n/k²)``.  This is tight: a sample-sort
  style algorithm (implemented in :mod:`repro.core.sorting`) runs in
  ``Õ(n/k²)`` rounds.

* **MST** — complete graph with random edge weights; outputting the
  ``n - 1`` MST edges (any machine may output any edge) forces
  ``IC = Θ̃(n/k)`` and ``T = Ω̃(n/k²)``, matching the ``Õ(n/k²)``
  algorithm of Pandurangan-Robinson-Scquizzato (SPAA 2016), which is out
  of scope here.
"""

from __future__ import annotations

import math

from repro.core.lowerbounds.general import GeneralLowerBound

__all__ = [
    "sorting_information_cost",
    "sorting_round_lower_bound",
    "mst_information_cost",
    "mst_round_lower_bound",
]


def sorting_information_cost(n: int, k: int) -> float:
    """``IC = Θ((n/k) log n)``: bits to pin down a machine's output block.

    A machine outputs the ``n/k`` order statistics of its block; under a
    random input distribution each of those element identities carries
    ``~log2 n`` bits not inferable from the machine's own ``~n/k`` inputs.
    """
    if n < 2 or k < 2:
        raise ValueError(f"need n >= 2 and k >= 2, got n={n}, k={k}")
    return (n / k) * math.log2(n)


def sorting_round_lower_bound(n: int, k: int, bandwidth: int) -> float:
    """``T = Ω̃(n/k²)`` for distributed sorting, as ``IC/(Bk)``."""
    return GeneralLowerBound(
        information_cost=sorting_information_cost(n, k),
        bandwidth=bandwidth,
        k=k,
        entropy_z=n * math.log2(max(2, n)),
    ).rounds


def mst_information_cost(n: int, k: int) -> float:
    """``IC = Θ̃(n/k)``: some machine outputs ``n/k`` of the MST's edges.

    On a complete graph with i.u.r. edge weights, each output MST edge
    identity carries ``Θ(log n)`` bits (which of the ``C(n,2)`` edges).
    """
    if n < 2 or k < 2:
        raise ValueError(f"need n >= 2 and k >= 2, got n={n}, k={k}")
    return (n / k) * math.log2(n)


def mst_round_lower_bound(n: int, k: int, bandwidth: int) -> float:
    """``T = Ω̃(n/k²)`` for MST under random partition (§1.3), as ``IC/(Bk)``."""
    return GeneralLowerBound(
        information_cost=mst_information_cost(n, k),
        bandwidth=bandwidth,
        k=k,
        entropy_z=(n - 1) * math.log2(max(2, n)),
    ).rounds
