"""Color-tuple bookkeeping for triangles (r = 3) and the K4/C4 family (r = 4).

The vectorized helpers the pipeline runs (:func:`num_colors`,
:func:`owner_keys`, :func:`machines_needing_edge_array`) are checked
against the scalar oracles, and the oracles against the definitions.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.triangles import colors as col
from repro.errors import AlgorithmError
from oracles import machine_for_tuple, machines_needing_edge, sorted_tuples, tuple_for_machine

R = pytest.mark.parametrize("r", [3, 4])


class TestNumColors:
    @pytest.mark.parametrize(
        "k, r, q",
        [(8, 3, 2), (27, 3, 3), (64, 3, 4), (9, 3, 2), (26, 3, 2), (63, 3, 3),
         (16, 4, 2), (81, 4, 3), (80, 4, 2), (256, 4, 4), (255, 4, 3)],
    )
    def test_floor_root(self, k, r, q):
        assert col.num_colors(k, r) == q

    @R
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
    def test_boundaries(self, r, q):
        assert col.num_colors(q**r, r) == q
        assert col.num_colors(q**r - 1, r) == q - 1
        assert col.num_colors((q + 1) ** r - 1, r) == q

    @R
    @pytest.mark.parametrize("k", [1, 2])
    def test_minimum_one(self, r, k):
        assert col.num_colors(k, r) == 1

    @R
    @given(k=st.integers(1, 10**9))
    @settings(max_examples=100, deadline=None)
    def test_definition(self, r, k):
        q = col.num_colors(k, r)
        assert q == 1 or q**r <= k
        assert (q + 1) ** r > k


class TestTupleIndexing:
    @R
    def test_round_trip_covers_every_machine(self, r):
        q = 3
        ids = set()
        for colors in itertools.product(range(q), repeat=r):
            mid = machine_for_tuple(colors, q)
            assert tuple_for_machine(mid, q, r) == colors
            ids.add(mid)
        assert ids == set(range(q**r))

    @R
    def test_rejects_out_of_range_color(self, r):
        with pytest.raises(AlgorithmError):
            machine_for_tuple((0, 3) + (0,) * (r - 2), 3)

    @R
    def test_rejects_bad_machine(self, r):
        with pytest.raises(AlgorithmError):
            tuple_for_machine(3**r, 3, r)

    @R
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_sorted_tuples(self, r, q):
        tuples = sorted_tuples(q, r)
        assert len(tuples) == math.comb(q + r - 1, r)
        assert all(list(t) == sorted(t) for t in tuples)

    @R
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_owner_keys_rank_the_sorted_row(self, r, data):
        q = data.draw(st.integers(1, 6))
        rows = data.draw(
            st.lists(st.lists(st.integers(0, q - 1), min_size=r, max_size=r), max_size=20)
        )
        keys = col.owner_keys(np.array(rows, dtype=np.int64).reshape(-1, r), q)
        assert keys.tolist() == [machine_for_tuple(sorted(row), q) for row in rows]


class TestMachinesNeedingEdge:
    @R
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_count_distinct_and_contain_the_colors(self, r, q):
        for cu, cv in itertools.product(range(q), repeat=2):
            ids = machines_needing_edge(cu, cv, q, r)
            assert ids.size == math.comb(q + r - 3, r - 2)
            assert np.unique(ids).size == ids.size
            for mid in ids:
                multiset = list(tuple_for_machine(int(mid), q, r))
                for needed in (cu, cv):
                    multiset.remove(needed)

    @R
    def test_every_sorted_tuple_covered_by_its_pairs(self, r):
        # Otherwise an owner would miss an edge of an occurrence it owns.
        q = 3
        for tup in sorted_tuples(q, r):
            mid = machine_for_tuple(tup, q)
            for x, y in itertools.combinations(tup, 2):
                assert mid in machines_needing_edge(x, y, q, r)

    @R
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_vectorized_matches_scalar(self, r, data):
        q = data.draw(st.integers(1, 6))
        pairs = data.draw(
            st.lists(st.tuples(st.integers(0, q - 1), st.integers(0, q - 1)), max_size=30)
        )
        cu = np.array([u for u, _ in pairs], dtype=np.int64)
        cv = np.array([v for _, v in pairs], dtype=np.int64)
        vec = col.machines_needing_edge_array(cu, cv, q, r)
        assert vec.shape == (len(pairs), math.comb(q + r - 3, r - 2))
        for row, (u, v) in zip(vec, pairs):
            assert row.tolist() == machines_needing_edge(u, v, q, r).tolist()
