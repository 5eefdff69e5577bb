"""Unit tests for logical wire-size rules."""

import numpy as np
import pytest

from repro._util import bits_for
from repro.kmachine import encoding


def count_bits(max_count: int) -> int:
    """Scalar oracle of ``count_bits_array``: bits for an integer in ``[0, max_count]``."""
    if max_count < 0:
        raise ValueError(f"max_count must be non-negative, got {max_count}")
    return bits_for(max_count + 1)


class TestScalarSizes:
    def test_vertex_id_bits_powers_of_two(self):
        assert encoding.vertex_id_bits(2) == 1
        assert encoding.vertex_id_bits(1024) == 10
        assert encoding.vertex_id_bits(1025) == 11

    def test_vertex_id_bits_one_value(self):
        # Naming "one of one" still occupies a slot.
        assert encoding.vertex_id_bits(1) == 1

    def test_count_bits(self):
        assert count_bits(0) == 1
        assert count_bits(1) == 1
        assert count_bits(2) == 2
        assert count_bits(255) == 8
        assert count_bits(256) == 9

    def test_edge_bits_is_two_ids(self):
        assert encoding.edge_bits(1000) == 2 * encoding.vertex_id_bits(1000)

    def test_message_composites(self):
        n = 500
        assert encoding.edge_message_bits(n) == encoding.edge_bits(n)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            encoding.vertex_id_bits(0)


class TestCountBitsArray:
    def test_matches_scalar(self):
        counts = np.array([0, 1, 2, 3, 4, 7, 8, 255, 256, 1023, 1024])
        vec = encoding.count_bits_array(counts)
        scalars = [count_bits(int(c)) for c in counts]
        assert vec.tolist() == scalars

    def test_empty(self):
        assert encoding.count_bits_array(np.array([], dtype=np.int64)).size == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            encoding.count_bits_array(np.array([1, -1]))
