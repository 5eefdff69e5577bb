"""Theorem 3, Corollaries 1-2: triangle-enumeration lower bounds.

Instantiates the General Lower Bound Theorem with ``Z`` = the
characteristic edge vector of a ``G(n, 1/2)`` input
(``H[Z] = C(n, 2)`` bits):

* Premise (1) / Lemma 10: under RVP each machine initially knows only
  ``O(n² log n / k)`` edges, so ``Pr[Z=z | p_i, r] <=
  2^-(C(n,2) - O(n² log n / k))``.
* Premise (2) / Lemma 11: some machine outputs ``>= t/k`` triangles;
  representing ``ℓ`` triangles requires ``Ω(ℓ^{2/3})`` distinct edges
  (Rivin), so its output resolves ``Ω((t/k)^{2/3})`` previously-unknown
  edge bits (after subtracting the ``t₃`` locally-determined triangles).
* Hence ``IC = Θ((t/k)^{2/3}) = Θ(n²/k^{2/3})`` for ``t = Θ(C(n,3))`` and
  ``T = Ω(n² / Bk^{5/3}) = Ω̃(m / k^{5/3})``.

Corollary 1 specializes to the congested clique (``k = n``):
``Ω(n^{1/3} / B)``.  Corollary 2 turns the per-machine information need
into the message bound ``Ω̃(n² k^{1/3})`` for round-optimal algorithms.

Proposition 2 (Rödl–Ruciński) — the concentration bound on induced-
subgraph edge counts used by the *upper* bound's analysis — is also
checkable here via :func:`induced_edge_count` /
:func:`proposition2_edge_bound`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.lowerbounds.general import GeneralLowerBound
from repro.graphs.graph import Graph
from repro.info.surprisal import SurprisalAccount
from repro.kmachine.partition import VertexPartition

__all__ = [
    "min_edges_for_triangles",
    "rivin_edge_bound",
    "expected_triangles_gnp",
    "triangle_information_cost",
    "triangle_round_lower_bound",
    "triangle_lower_bound",
    "local_triangles_per_machine",
    "congested_clique_lower_bound",
    "triangle_message_lower_bound",
    "induced_edge_count",
    "proposition2_edge_bound",
    "surprisal_account",
]


def min_edges_for_triangles(num_triangles: int) -> int:
    """Exact extremal inverse: fewest edges whose graph can contain
    ``num_triangles`` triangles.

    The densest packing of triangles into edges is (a prefix of) a clique:
    ``e`` edges arranged as ``K_d`` plus a partial next column support the
    maximum number of triangles (Kruskal–Katona for 3-sets).  We invert
    that *colex* extremal function numerically.
    """
    if num_triangles < 0:
        raise ValueError("num_triangles must be non-negative")
    if num_triangles == 0:
        return 0

    def max_triangles(e: int) -> int:
        # Largest d with C(d, 2) <= e, then attach a vertex to r more.
        d = int((1 + math.isqrt(1 + 8 * e)) // 2)
        while d * (d - 1) // 2 > e:
            d -= 1
        r = e - d * (d - 1) // 2
        return d * (d - 1) * (d - 2) // 6 + r * (r - 1) // 2

    lo, hi = 1, 3
    while max_triangles(hi) < num_triangles:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if max_triangles(mid) >= num_triangles:
            hi = mid
        else:
            lo = mid + 1
    return lo


def rivin_edge_bound(num_triangles: int) -> float:
    """Rivin's asymptotic bound: ``ℓ`` triangles need ``>= (6ℓ)^{2/3}/2`` edges.

    (Equation (10) in Rivin 2001, as used in the proof of Lemma 11.)
    """
    if num_triangles < 0:
        raise ValueError("num_triangles must be non-negative")
    if num_triangles == 0:
        return 0.0
    return (6.0 * num_triangles) ** (2.0 / 3.0) / 2.0


def expected_triangles_gnp(n: int, p: float = 0.5) -> float:
    """``E[t] = C(n,3) p³`` for ``G(n, p)`` — the paper's ``t = Θ(C(n,3))``."""
    if n < 3:
        return 0.0
    return math.comb(n, 3) * p**3


def triangle_information_cost(n: int, k: int, t: float | None = None) -> float:
    """``IC = Θ((t/k)^{2/3})`` (paper: set after Lemma 11).

    Defaults ``t`` to the ``G(n, 1/2)`` expectation, giving the
    ``Θ(n²/k^{2/3})`` of Theorem 3.
    """
    if n < 3 or k < 2:
        raise ValueError(f"need n >= 3 and k >= 2, got n={n}, k={k}")
    if t is None:
        t = expected_triangles_gnp(n)
    if t < 0:
        raise ValueError("t must be non-negative")
    return rivin_edge_bound(t / k)


def triangle_round_lower_bound(
    n: int, k: int, bandwidth: int, t: float | None = None
) -> float:
    """Theorem 3's conclusion ``T = Ω(n²/Bk^{5/3})``, as ``IC/(Bk)``.

    With an explicit triangle count ``t`` this is the paper's "real lower
    bound" ``Ω̃((t/k)^{2/3}/k)``, which applies beyond dense graphs.
    """
    return triangle_lower_bound(n, k, bandwidth, t).rounds


def triangle_lower_bound(
    n: int, k: int, bandwidth: int, t: float | None = None
) -> GeneralLowerBound:
    """The full Theorem-1 instantiation object for triangle enumeration."""
    return GeneralLowerBound(
        information_cost=triangle_information_cost(n, k, t),
        bandwidth=bandwidth,
        k=k,
        entropy_z=float(math.comb(n, 2)),
    )


def local_triangles_per_machine(graph: Graph, partition: VertexPartition) -> np.ndarray:
    """``t₃`` per machine: triangles fully determined by a machine's input.

    A machine knows edge ``(a, b)`` iff it hosts ``a`` or ``b``; it knows
    all three edges of a triangle iff it hosts at least two of its corners
    (Lemma 11's "local" triangles).
    """
    from repro.graphs.triangles_ref import enumerate_triangles

    if partition.n != graph.n:
        raise ValueError("partition size does not match the graph")
    tris = enumerate_triangles(graph)
    counts = np.zeros(partition.k, dtype=np.int64)
    if tris.size == 0:
        return counts
    homes = partition.home[tris]  # (t, 3) machine ids of the corners
    h0, h1, h2 = homes[:, 0], homes[:, 1], homes[:, 2]
    all_same = (h0 == h1) & (h1 == h2)
    np.add.at(counts, h0[all_same], 1)
    # With not-all-equal corners, at most one pair of corners can coincide,
    # so the three pair events below are mutually exclusive.
    np.add.at(counts, h0[(h0 == h1) & ~all_same], 1)
    np.add.at(counts, h0[(h0 == h2) & ~all_same], 1)
    np.add.at(counts, h1[(h1 == h2) & ~all_same], 1)
    return counts


def congested_clique_lower_bound(n: int, bandwidth: int) -> float:
    """Corollary 1: ``Ω(n^{1/3} / B)`` rounds in the congested clique.

    Obtained from Theorem 3 with ``k = n``:
    ``IC/(Bk) = (C(n,3)/n)^{2/3} / (Bn) = Θ(n^{1/3}/B)``.
    """
    return triangle_round_lower_bound(n, n, bandwidth)


def triangle_message_lower_bound(n: int, k: int) -> float:
    """Corollary 2: round-optimal algorithms need ``Ω̃(n² k^{1/3})`` messages.

    Each machine must receive ``Ω(μ) = Ω̃(n²/k^{2/3})`` bits (balanced
    output), totalling ``k · n²/k^{2/3} = n² k^{1/3}`` messages of
    ``Θ(log n)`` bits.
    """
    if n < 3 or k < 2:
        raise ValueError(f"need n >= 3 and k >= 2, got n={n}, k={k}")
    return n**2 * k ** (1.0 / 3.0)


def induced_edge_count(graph: Graph, subset: np.ndarray) -> int:
    """``e(G[R])`` — edges induced by a vertex subset (Proposition 2's quantity)."""
    return int(graph.subgraph_edges(np.asarray(subset, dtype=np.int64)).shape[0])


def proposition2_edge_bound(m: int, n: int, t: int) -> float:
    """Proposition 2's whp threshold ``3 η t²`` with ``η = max(m/n², 1/(3t))``.

    A uniformly random ``t``-subset ``R`` satisfies ``e(G[R]) < 3 η t²``
    with probability ``1 - t e^{-ct}``; the ``η >= 1/(3t)`` floor is the
    applicability condition noted in the paper's footnote 14.
    """
    if m < 0 or n <= 0 or t <= 0:
        raise ValueError("need m >= 0, n > 0, t > 0")
    eta = max(m / float(n) ** 2, 1.0 / (3.0 * t))
    return 3.0 * eta * t * t


def surprisal_account(
    graph: Graph,
    partition: VertexPartition,
    machine: int,
    triangles_output: int,
) -> SurprisalAccount:
    """Premise-(1)/(2) account for a machine outputting triangles (Lemma 11).

    Initial knowledge: the edges incident to hosted vertices.  Output
    knowledge: initial + the Rivin bound on the undetermined triangles
    (``triangles_output`` minus the machine's local ``t₃``).
    """
    n = graph.n
    mask = partition.home == machine
    e = graph.edges
    known_edges = int((mask[e[:, 0]] | mask[e[:, 1]]).sum()) if e.size else 0
    t3 = int(local_triangles_per_machine(graph, partition)[machine])
    undetermined = max(0, triangles_output - t3)
    gained = rivin_edge_bound(undetermined)
    h = float(math.comb(n, 2))
    return SurprisalAccount(
        entropy_z=h,
        initial_known_bits=min(h, float(known_edges)),
        output_known_bits=min(h, known_edges + gained),
    )
