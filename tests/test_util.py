"""Unit tests for ``stable_hash64_array``, the hash that places MST proxies,
and the checks on numbers that come from outside the program."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro._util import check_input_int, check_seed, stable_hash64_array
from repro.errors import AlgorithmError

MASK = (1 << 64) - 1


def splitmix64(x, salt=0):
    """Scalar splitmix64 in Python ints: the reference the array hash follows."""
    z = (x + 0x9E3779B97F4A7C15 + salt * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


class TestStableHash64Array:
    def test_known_answer(self):
        # The first output of the published SplitMix64 generator seeded with 0.
        assert int(stable_hash64_array(np.array([0]))[0]) == 0xE220A8397B1DCDAF

    @given(st.lists(st.integers(0, 2**62), max_size=20), st.integers(0, 50))
    def test_matches_scalar_reference(self, xs, salt):
        out = stable_hash64_array(np.array(xs, dtype=np.int64), salt=salt)
        assert [int(v) for v in out] == [splitmix64(x, salt) for x in xs]

    def test_dtype_shape_and_input_untouched(self):
        xs = np.arange(12, dtype=np.int64).reshape(3, 4)
        before = xs.copy()
        out = stable_hash64_array(xs)
        assert out.dtype == np.uint64 and out.shape == (3, 4)
        assert np.array_equal(xs, before)

    def test_salt_changes_every_value(self):
        xs = np.arange(1000)
        assert not np.any(stable_hash64_array(xs, salt=9) == stable_hash64_array(xs, salt=0))

    def test_distinct_labels_hash_distinctly(self):
        # splitmix64 is a bijection on 64-bit words.
        xs = np.arange(100_000)
        assert np.unique(stable_hash64_array(xs, salt=9)).size == xs.size

    def test_consecutive_labels_spread_over_machines(self):
        # MST homes component label c on machine hash(c) % k.
        counts = np.bincount(
            (stable_hash64_array(np.arange(8000), salt=9) % np.uint64(8)).astype(np.int64),
            minlength=8,
        )
        assert counts.min() > 850 and counts.max() < 1150


class TestInputChecks:
    @pytest.mark.parametrize("seed", [None, 0, 7, np.int64(3)])
    def test_valid_seeds_pass(self, seed):
        check_seed(seed)

    @pytest.mark.parametrize("seed", [-1, np.int64(-2), 1.5, True, "7"])
    def test_bad_seeds_are_algorithm_errors(self, seed):
        with pytest.raises(AlgorithmError, match="seed must be an integer >= 0"):
            check_seed(seed)

    def test_minimum_is_inclusive_and_named(self):
        check_input_int(1, "--n", 1)
        with pytest.raises(AlgorithmError, match="--n must be an integer >= 1, got 0"):
            check_input_int(0, "--n", 1)
