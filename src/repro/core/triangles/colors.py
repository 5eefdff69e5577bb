"""Color-tuple bookkeeping for Theorem 5 and its r-vertex generalization.

The algorithm colors vertices with ``q = floor(k^{1/r})`` colors via a
shared hash, which partitions ``V`` into ``q`` subsets of ``Õ(n/q)``
vertices.  Each of the ``q^r <= k`` *ordered* color r-tuples is assigned
to a distinct machine, its rank in lex order (the paper's hard-coded
deterministic assignment); triangles use ``r = 3``, the 4-vertex
patterns of :mod:`repro.core.subgraphs` use ``r = 4``.

For enumeration we canonicalize: the machine owning the *sorted* tuple
``(a <= b <= ...)`` is responsible for exactly the occurrences whose
corner-color multiset is ``{a, b, ...}``.  An edge with endpoint colors
``{cu, cv}`` is needed by exactly the sorted r-multisets obtained by
adding ``r - 2`` more colors, ``C(q+r-3, r-2)`` machines: ``q`` for
triangles (footnote 15's count, every edge travels to ``k^{1/3}``
machines) and ``q(q+1)/2`` for r = 4, so richer patterns cost more
re-routing, as the AGM/Afrati-Ullman bound predicts.  Forwarding only to
sorted-tuple owners keeps that volume while every occurrence is
enumerated exactly once.

The scalar helpers (:func:`machine_for_tuple`, :func:`tuple_for_machine`,
:func:`sorted_tuples`, :func:`machines_needing_edge`) are the readable
oracles the vectorized ones are tested against.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

import numpy as np

from repro._util import check_positive_int, iroot
from repro.errors import AlgorithmError

__all__ = [
    "num_colors",
    "owner_keys",
    "machines_needing_edge_array",
    "machine_for_tuple",
    "tuple_for_machine",
    "sorted_tuples",
    "machines_needing_edge",
]


def num_colors(k: int, r: int) -> int:
    """``q = floor(k^{1/r})`` (at least 1) — the colors for ``k`` machines."""
    check_positive_int(k, "k")
    return max(1, iroot(k, r))


def owner_keys(color_rows: np.ndarray, q: int) -> np.ndarray:
    """Lex rank of each row's *sorted* colors: the owner of its multiset."""
    key = np.zeros(color_rows.shape[0], dtype=np.int64)
    for column in np.sort(color_rows, axis=1).T:
        key = key * q + column
    return key


def machines_needing_edge_array(
    cu: np.ndarray, cv: np.ndarray, q: int, r: int
) -> np.ndarray:
    """Row ``e`` lists the ``C(q+r-3, r-2)`` owners that must receive edge ``e``.

    One column per sorted ``(r-2)``-multiset of added colors, in
    ``combinations_with_replacement`` order.
    """
    cu = np.asarray(cu, dtype=np.int64)
    cv = np.asarray(cv, dtype=np.int64)
    added = np.array(
        list(combinations_with_replacement(range(q), r - 2)), dtype=np.int64
    ).reshape(-1, r - 2)
    rows = np.empty((cu.size, added.shape[0], r), dtype=np.int64)
    rows[:, :, 0] = cu[:, None]
    rows[:, :, 1] = cv[:, None]
    rows[:, :, 2:] = added[None, :, :]
    return owner_keys(rows.reshape(-1, r), q).reshape(cu.size, added.shape[0])


def machine_for_tuple(colors, q: int) -> int:
    """Machine owning the ordered color tuple: its rank in lex order."""
    machine = 0
    for x in colors:
        if not (0 <= x < q):
            raise AlgorithmError(f"color {x} out of range [0, {q})")
        machine = machine * q + x
    return machine


def tuple_for_machine(machine: int, q: int, r: int) -> tuple[int, ...]:
    """Inverse of :func:`machine_for_tuple` for machines ``< q^r``."""
    if not (0 <= machine < q**r):
        raise AlgorithmError(f"machine {machine} owns no color {r}-tuple (q={q})")
    digits = []
    for _ in range(r):
        machine, x = divmod(machine, q)
        digits.append(x)
    return tuple(reversed(digits))


def sorted_tuples(q: int, r: int) -> list[tuple[int, ...]]:
    """All sorted r-tuples ``(a <= b <= ...)`` — the canonical enumerators."""
    check_positive_int(q, "q")
    return list(combinations_with_replacement(range(q), r))


def machines_needing_edge(cu: int, cv: int, q: int, r: int) -> np.ndarray:
    """Owners of the sorted r-tuples whose multiset contains ``{cu, cv}``.

    One per added ``(r-2)``-multiset of colors; distinct added multisets
    give distinct unions with ``{cu, cv}``, so the owners are distinct.
    """
    return np.array(
        [
            machine_for_tuple(sorted((cu, cv) + added), q)
            for added in combinations_with_replacement(range(q), r - 2)
        ],
        dtype=np.int64,
    )
