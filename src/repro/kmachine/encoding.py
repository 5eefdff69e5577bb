"""Logical wire sizes of message fields.

The paper measures communication in bits over links of bandwidth
``B = Θ(polylog n)``.  All algorithms in this repo compute message sizes
with these helpers so that round accounting reflects what a real
implementation would transmit:

* a vertex id out of ``n`` costs ``ceil(log2 n)`` bits,
* a machine id out of ``k`` costs ``ceil(log2 k)`` bits,
* a token/edge count with maximum value ``c`` costs ``ceil(log2 (c+1))``
  bits,
* a fixed-point PageRank value costs :data:`FLOAT_BITS` bits.
"""

from __future__ import annotations

import numpy as np

from repro._util import bits_for, bits_for_count

__all__ = [
    "FLOAT_BITS",
    "vertex_id_bits",
    "machine_id_bits",
    "count_bits",
    "edge_bits",
    "token_count_message_bits",
    "heavy_count_message_bits",
    "edge_message_bits",
    "value_message_bits",
]

#: Bits used for one real-valued payload entry (fixed-point, double-ish).
FLOAT_BITS = 64


def vertex_id_bits(n: int) -> int:
    """Bits to name one of ``n`` vertices."""
    return bits_for(n)


def machine_id_bits(k: int) -> int:
    """Bits to name one of ``k`` machines."""
    return bits_for(k)


def count_bits(max_count: int) -> int:
    """Bits to encode an integer count in ``[0, max_count]``."""
    return bits_for_count(max_count)


def count_bits_array(counts) -> "np.ndarray":
    """Vectorized :func:`count_bits` over an array of non-negative counts."""
    import numpy as np

    counts = np.asarray(counts, dtype=np.int64)
    if counts.size and counts.min() < 0:
        raise ValueError("counts must be non-negative")
    vals = np.maximum(counts + 1, 2).astype(np.float64)
    return np.maximum(1, np.ceil(np.log2(vals)).astype(np.int64))


def edge_bits(n: int) -> int:
    """Bits to name an (ordered) edge: two vertex ids."""
    return 2 * vertex_id_bits(n)


def token_count_message_bits(n: int, max_count: int) -> int:
    """Size of an Algorithm-1 light message ``<count, dest: v>``."""
    return vertex_id_bits(n) + count_bits(max_count)


def heavy_count_message_bits(n: int, max_count: int) -> int:
    """Size of an Algorithm-1 heavy message ``<count, src: u>``."""
    return vertex_id_bits(n) + count_bits(max_count)


def edge_message_bits(n: int) -> int:
    """Size of a triangle-algorithm message carrying one edge."""
    return edge_bits(n)


def value_message_bits(n: int) -> int:
    """Size of a message carrying ``(vertex id, real value)``."""
    return vertex_id_bits(n) + FLOAT_BITS
