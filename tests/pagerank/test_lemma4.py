"""Unit tests for the Lemma-4 closed forms."""

import pytest

from repro.core.pagerank import lemma4
from repro.errors import AlgorithmError
from oracles import value_b1_paper_bound


class TestValues:
    def test_b0_formula(self):
        assert lemma4.value_b0(0.2, 100) == pytest.approx(0.2 * (2.5 - 0.4 + 0.02) / 100)

    def test_b1_dominates_paper_bound(self):
        for eps in (0.05, 0.2, 0.5, 0.9):
            assert lemma4.value_b1(eps, 100) >= value_b1_paper_bound(eps, 100)

    def test_separation_strictly_above_one(self):
        for eps in (0.01, 0.15, 0.5, 0.99):
            assert lemma4.separation_ratio(eps) > 1.0

    def test_separation_grows_as_eps_shrinks(self):
        assert lemma4.separation_ratio(0.05) > lemma4.separation_ratio(0.5)

    def test_separation_consistent_with_values(self):
        eps, n = 0.3, 50
        assert lemma4.separation_ratio(eps) == pytest.approx(
            lemma4.value_b1(eps, n) / lemma4.value_b0(eps, n)
        )

    def test_max_safe_delta_separates_intervals(self):
        eps, n = 0.2, 100
        d = lemma4.max_safe_delta(eps)
        v0, v1 = lemma4.value_b0(eps, n), lemma4.value_b1(eps, n)
        # delta-balls around the two values stay disjoint.
        assert v0 * (1 + d) < v1 * (1 - d) + 1e-15

    def test_rejects_bad_eps(self):
        with pytest.raises(AlgorithmError):
            lemma4.value_b0(1.0, 10)
        with pytest.raises(AlgorithmError):
            lemma4.separation_ratio(0.0)
