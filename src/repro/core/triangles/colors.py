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
"""

from __future__ import annotations

from itertools import combinations_with_replacement

import numpy as np

from repro._util import check_positive_int, iroot

__all__ = [
    "num_colors",
    "owner_keys",
    "machines_needing_edge_array",
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
