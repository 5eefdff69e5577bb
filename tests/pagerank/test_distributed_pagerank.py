"""Tests for Algorithm 1 (distributed PageRank)."""

import numpy as np
import pytest

import repro
from repro.core.pagerank import distributed as pagerank_driver
from repro.errors import AlgorithmError, PartitionError
from repro.kmachine.cluster import Cluster
from repro.kmachine.partition import random_vertex_partition
from repro.workloads.generators import rmat_graph
from oracles import cycle_graph, linf_relative_error, path_graph


class TestCorrectness:
    @pytest.mark.parametrize(
        "maker",
        [
            lambda: repro.gnp_random_graph(120, 0.08, seed=1),
            lambda: cycle_graph(100),
            lambda: repro.star_graph(100),
        ],
        ids=["gnp", "cycle", "star"],
    )
    def test_approximates_walk_series(self, maker):
        g = maker()
        ref = repro.pagerank_walk_series(g, eps=0.25)
        res = repro.distributed_pagerank(g, k=6, eps=0.25, seed=2, c=80)
        # Monte-Carlo estimator: generous delta on small graphs.
        assert linf_relative_error(res, ref) < 0.25

    def test_directed_graph_with_dangling(self):
        inst = repro.pagerank_lowerbound_graph(q=40, seed=3)
        ref = inst.analytic_pagerank(0.25)
        res = repro.distributed_pagerank(inst.graph, k=4, eps=0.25, seed=4, c=80)
        assert linf_relative_error(res, ref) < 0.3

    def test_estimates_close_in_l1(self):
        g = repro.gnp_random_graph(150, 0.06, seed=5)
        ref = repro.pagerank_walk_series(g, eps=0.2)
        res = repro.distributed_pagerank(g, k=8, eps=0.2, seed=6, c=80)
        assert res.l1_error(ref) < 0.08

    def test_recovers_lemma4_bits(self):
        # Functional end-to-end test of the lower-bound reconstruction:
        # a delta-approximation reveals every b_i.
        inst = repro.pagerank_lowerbound_graph(q=60, seed=7)
        res = repro.distributed_pagerank(inst.graph, k=6, eps=0.25, seed=8, c=120)
        assert np.array_equal(inst.infer_b(res.estimates, 0.25), inst.b)

    def test_total_mass_close_to_reference_total(self):
        g = repro.gnp_random_graph(100, 0.1, seed=9)
        ref = repro.pagerank_walk_series(g, eps=0.3)
        res = repro.distributed_pagerank(g, k=4, eps=0.3, seed=10, c=60)
        assert res.estimates.sum() == pytest.approx(ref.sum(), rel=0.05)

    def test_unbiased_over_seeds(self):
        # Averaging estimates across seeds converges to the reference.
        g = repro.gnp_random_graph(60, 0.15, seed=11)
        ref = repro.pagerank_walk_series(g, eps=0.3)
        acc = np.zeros(g.n)
        runs = 8
        for s in range(runs):
            acc += repro.distributed_pagerank(g, k=4, eps=0.3, seed=100 + s, c=30).estimates
        assert np.abs(acc / runs - ref).max() / ref.max() < 0.1


class TestDeterminismAndValidation:
    def test_seeded_runs_identical(self):
        g = repro.gnp_random_graph(80, 0.1, seed=12)
        a = repro.distributed_pagerank(g, k=4, eps=0.25, seed=13, c=20)
        b = repro.distributed_pagerank(g, k=4, eps=0.25, seed=13, c=20)
        assert np.array_equal(a.estimates, b.estimates)
        assert a.rounds == b.rounds

    def test_different_seeds_differ(self):
        g = repro.gnp_random_graph(80, 0.1, seed=12)
        a = repro.distributed_pagerank(g, k=4, eps=0.25, seed=13, c=20)
        b = repro.distributed_pagerank(g, k=4, eps=0.25, seed=14, c=20)
        assert not np.array_equal(a.estimates, b.estimates)

    def test_rejects_bad_eps(self):
        g = cycle_graph(10)
        with pytest.raises(AlgorithmError):
            repro.distributed_pagerank(g, k=4, eps=1.5)

    @pytest.mark.parametrize("max_iterations", [0, -3])
    def test_rejects_non_positive_max_iterations(self, max_iterations):
        g = cycle_graph(10)
        with pytest.raises(AlgorithmError, match="max_iterations"):
            repro.distributed_pagerank(g, k=4, seed=1, max_iterations=max_iterations)

    @pytest.mark.parametrize(
        "heavy_threshold",
        [2.7, "8", float("nan"), True, 1, 0],
        ids=["float", "str", "nan", "bool", "one", "zero"],
    )
    def test_rejects_bad_heavy_threshold(self, heavy_threshold):
        g = cycle_graph(10)
        with pytest.raises(AlgorithmError, match="heavy threshold"):
            repro.distributed_pagerank(g, k=4, seed=1, heavy_threshold=heavy_threshold)

    def test_rejects_k_one_default_heavy_threshold(self):
        # The threshold defaults to k, and one machine makes it 1.
        g = cycle_graph(10)
        with pytest.raises(AlgorithmError, match="heavy threshold"):
            repro.distributed_pagerank(g, k=1, seed=1)

    def test_accepts_numpy_int_heavy_threshold(self):
        g = repro.gnp_random_graph(40, 0.2, seed=3)
        a = repro.distributed_pagerank(g, k=4, seed=1, c=5, heavy_threshold=np.int64(3))
        b = repro.distributed_pagerank(g, k=4, seed=1, c=5, heavy_threshold=3)
        assert np.array_equal(a.estimates, b.estimates)

    def test_rejects_nan_c(self):
        g = cycle_graph(10)
        with pytest.raises(AlgorithmError, match="c must be"):
            repro.distributed_pagerank(g, k=4, seed=1, c=float("nan"))

    @pytest.mark.parametrize("c", [0.0, -2.0])
    def test_rejects_non_positive_c(self, c):
        g = cycle_graph(10)
        with pytest.raises(AlgorithmError, match="c must be"):
            repro.distributed_pagerank(g, k=4, seed=1, c=c)

    def test_rejects_non_integral_sources(self):
        g = cycle_graph(10)
        with pytest.raises(AlgorithmError, match="integral"):
            repro.distributed_pagerank(g, k=4, seed=1, sources=[1.5, 2.0])

    def test_accepts_integral_float_sources(self):
        g = cycle_graph(10)
        a = repro.distributed_pagerank(g, k=4, seed=1, c=5, sources=[1.0, 2.0])
        b = repro.distributed_pagerank(g, k=4, seed=1, c=5, sources=[1, 2])
        assert np.array_equal(a.estimates, b.estimates)

    def test_rejects_mismatched_partition(self):
        g = cycle_graph(10)
        p = random_vertex_partition(11, 4, seed=0)
        with pytest.raises(PartitionError):
            repro.distributed_pagerank(g, k=4, partition=p)

    def test_accepts_explicit_partition(self):
        g = cycle_graph(30)
        p = random_vertex_partition(30, 4, seed=1)
        res = repro.distributed_pagerank(g, k=4, partition=p, seed=2, c=10)
        assert res.estimates.shape == (30,)

    def test_metrics_consistency(self):
        g = repro.gnp_random_graph(60, 0.1, seed=15)
        res = repro.distributed_pagerank(g, k=4, seed=16, c=10)
        res.metrics.check_conservation()
        assert res.metrics.rounds == res.rounds
        assert res.iterations == len(res.iteration_stats)

    def test_tokens_eventually_die(self):
        g = cycle_graph(40)
        res = repro.distributed_pagerank(g, k=4, eps=0.3, seed=17, c=10)
        assert res.iteration_stats[-1].live_tokens == 0

    def test_loop_stops_once_every_token_has_died(self):
        g = cycle_graph(40)
        res = repro.distributed_pagerank(g, k=4, eps=0.3, seed=17, c=10, max_iterations=500)
        assert res.iterations < 500
        assert res.iteration_stats[-1].live_tokens == 0
        assert all(s.live_tokens > 0 for s in res.iteration_stats[:-1])

    def test_exhausted_iteration_budget_returns_partial_state(self):
        g = cycle_graph(40)
        res = repro.distributed_pagerank(g, k=4, eps=0.3, seed=17, c=10, max_iterations=2)
        assert res.iterations == 2
        assert res.iteration_stats[-1].live_tokens > 0
        assert np.all(res.estimates > 0)


class TestCommunicationBehaviour:
    def test_rounds_decrease_superlinearly_in_k(self):
        # Theorem 4: rounds scale superlinearly in k (~1/k² asymptotically).
        # Quadrupling k must cut the first (fully-loaded) iteration's
        # rounds by clearly more than 4x.  A small token factor keeps the
        # per-machine destination count below the n-saturation point so the
        # scaling is visible at these small k (see bench_pagerank_rounds
        # for the asymptotic-fit version).
        g = repro.gnp_random_graph(2000, 0.008, seed=18)
        r8 = repro.distributed_pagerank(g, k=8, seed=19, c=0.25, bandwidth=16)
        r32 = repro.distributed_pagerank(g, k=32, seed=19, c=0.25, bandwidth=16)
        first8 = r8.iteration_stats[0].rounds
        first32 = r32.iteration_stats[0].rounds
        assert first8 > 5.5 * first32  # linear scaling would give 4x
        assert r8.token_rounds() > 3 * r32.token_rounds()

    def test_heavy_path_tames_star_congestion(self):
        # Ablation (Lemma 12's point): with the heavy path disabled, the
        # hub's token fan-out floods its home machine's links.
        g = repro.star_graph(800)
        k, B = 8, 16
        with_heavy = repro.distributed_pagerank(
            g, k=k, seed=20, c=8, bandwidth=B, enable_heavy_path=True
        )
        without = repro.distributed_pagerank(
            g, k=k, seed=20, c=8, bandwidth=B, enable_heavy_path=False
        )
        assert with_heavy.token_rounds() < without.token_rounds()

    def test_lemma12_per_machine_send_load(self):
        # No machine sends more than O~(n/k) messages in any iteration.
        g = repro.gnp_random_graph(600, 0.02, seed=21)
        k = 8
        res = repro.distributed_pagerank(g, k=k, seed=22, c=8)
        n = g.n
        bound = 8 * (n / k) * np.log2(n)
        for stats in res.iteration_stats:
            assert stats.max_machine_sent <= bound

    def test_control_phases_labelled(self):
        g = cycle_graph(30)
        res = repro.distributed_pagerank(g, k=4, seed=23, c=4)
        labels = {p.label for p in res.metrics.phase_log}
        assert any(lbl.startswith("pagerank/control") for lbl in labels)
        assert any(lbl.startswith("pagerank/tokens") for lbl in labels)
        assert res.token_rounds() <= res.rounds

    def test_estimator_normalization_uses_t0(self):
        g = cycle_graph(20)
        res = repro.distributed_pagerank(g, k=4, seed=24, c=10)
        # psi >= t0 everywhere, so every estimate is >= eps * t0/(n t0).
        assert np.all(res.estimates >= res.eps / g.n - 1e-12)


def _star_with_chords() -> repro.Graph:
    """A hub adjacent to everyone plus a ring on the leaves (star-like)."""
    n = 48
    hub = [(0, v) for v in range(1, n)]
    ring = [(v, v % (n - 1) + 1) for v in range(1, n)]
    return repro.Graph(n=n, edges=np.array(hub + ring, dtype=np.int64))


def _accounting(metrics):
    return (
        metrics.rounds, metrics.messages, metrics.bits,
        [(p.label, p.rounds, p.bits, p.max_link_bits) for p in metrics.phase_log],
    )


class TestDefaultTokensEveryVertexHeavy:
    """Default ``c = 16``: ``T0 >= k``, so every vertex starts on the heavy path.

    The goldens run ``c = 2``; here the batched β sampling and re-sampling
    carry the whole first iterations, and every engine must still agree
    bit for bit (``test_driver_oracle.py`` pins the same two runs to the
    values the deleted ship-everything driver produced).
    """

    @pytest.mark.parametrize(
        "maker",
        [_star_with_chords, lambda: rmat_graph(96, avg_deg=6, seed=3)],
        ids=["star-like", "rmat"],
    )
    def test_engines_agree(self, maker):
        g = maker()
        k = 4
        runs = {
            engine: repro.distributed_pagerank(g, k=k, seed=31, engine=engine)
            for engine in ("message", "vector", "process")
        }
        base = runs["message"]
        assert base.tokens_per_vertex >= k  # every vertex starts heavy
        for engine, res in runs.items():
            assert np.array_equal(res.estimates, base.estimates), engine
            assert res.iteration_stats == base.iteration_stats, engine
            assert _accounting(res.metrics) == _accounting(base.metrics), engine


class _Boom(Exception):
    pass


def _fail_then_rerun(monkeypatch, graph, engine):
    """On one caller-owned cluster: a run that raises in iteration 1, then a full run.

    Returns the resident tokens the failed run left in the engine (only
    the process engine keeps any) and the second run's result.
    """
    close_iteration = pagerank_driver.close_iteration

    def failing(cluster, it, *rest):
        if it == 1:
            raise _Boom
        return close_iteration(cluster, it, *rest)

    workers = {"workers": 2} if engine == "process" else {}
    with Cluster(k=4, n=graph.n, seed=5, engine=engine, **workers) as cluster:
        with monkeypatch.context() as patch:
            patch.setattr(pagerank_driver, "close_iteration", failing)
            with pytest.raises(_Boom):
                repro.distributed_pagerank(graph, k=4, cluster=cluster)
        left_installed = set(getattr(cluster.engine, "_resident_tokens", ()))
        return left_installed, repro.distributed_pagerank(graph, k=4, cluster=cluster)


def test_failed_run_releases_its_resident_tables(monkeypatch):
    # A caller's cluster outlives the run, so what a failed run leaves in
    # the workers stays there until the caller closes the cluster.
    g = rmat_graph(96, avg_deg=6, seed=3)
    left_installed, rerun = _fail_then_rerun(monkeypatch, g, "process")
    assert left_installed == set()
    _, clean = _fail_then_rerun(monkeypatch, g, "vector")  # inline: nothing to leak
    assert np.array_equal(rerun.estimates, clean.estimates)
    assert rerun.iteration_stats == clean.iteration_stats
    assert _accounting(rerun.metrics) == _accounting(clean.metrics)


class TestPersonalizedPageRank:
    def test_matches_personalized_reference(self):
        g = repro.gnp_random_graph(80, 0.1, seed=20)
        sources = np.array([0, 5, 9])
        ref = repro.pagerank_walk_series(g, eps=0.3, sources=sources)
        res = repro.distributed_pagerank(
            g, k=4, eps=0.3, seed=21, c=300, sources=sources
        )
        # Monte-Carlo noise is relatively large on tiny masses: compare
        # only where the reference carries real weight.
        mask = ref > ref.max() / 10
        err = np.abs(res.estimates - ref)[mask] / ref[mask]
        assert err.max() < 0.4

    def test_mass_concentrates_near_sources(self):
        g = path_graph(60)
        res = repro.distributed_pagerank(
            g, k=4, eps=0.3, seed=22, c=60, sources=np.array([0])
        )
        assert res.estimates[:5].sum() > res.estimates[30:].sum()

    def test_rejects_bad_sources(self):
        g = cycle_graph(10)
        with pytest.raises(Exception):
            repro.distributed_pagerank(g, k=4, sources=np.array([10]))
        with pytest.raises(Exception):
            repro.distributed_pagerank(g, k=4, sources=np.array([1, 1]))

    def test_reference_personalized_sums(self):
        g = cycle_graph(20, directed=True)
        pr = repro.pagerank_walk_series(g, eps=0.2, sources=np.array([3]))
        assert pr.sum() == pytest.approx(1.0)
        assert pr[3] == pr.max()
