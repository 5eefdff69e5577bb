"""Logical wire sizes of message fields.

The paper measures communication in bits over links of bandwidth
``B = Θ(polylog n)``.  All algorithms in this repo compute message sizes
with these helpers so that round accounting reflects what a real
implementation would transmit:

* a vertex id out of ``n`` costs ``ceil(log2 n)`` bits,
* a token/edge count with maximum value ``c`` costs ``ceil(log2 (c+1))``
  bits,
* a fixed-point PageRank value costs :data:`FLOAT_BITS` bits.
"""

from __future__ import annotations

import numpy as np

from repro._util import bits_for

__all__ = [
    "FLOAT_BITS",
    "vertex_id_bits",
    "count_bits_array",
    "edge_bits",
    "edge_message_bits",
]

#: Bits used for one real-valued payload entry (fixed-point, double-ish).
FLOAT_BITS = 64


def vertex_id_bits(n: int) -> int:
    """Bits to name one of ``n`` vertices."""
    return bits_for(n)


def count_bits_array(counts) -> "np.ndarray":
    """Bits to encode each count ``c`` as an integer in ``[0, c]`` (at least 1)."""
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size and counts.min() < 0:
        raise ValueError("counts must be non-negative")
    vals = np.maximum(counts + 1, 2).astype(np.float64)
    return np.maximum(1, np.ceil(np.log2(vals)).astype(np.int64))


def edge_bits(n: int) -> int:
    """Bits to name an (ordered) edge: two vertex ids."""
    return 2 * vertex_id_bits(n)


def edge_message_bits(n: int) -> int:
    """Size of a triangle-algorithm message carrying one edge."""
    return edge_bits(n)
