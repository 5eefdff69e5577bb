"""Experiment T4/T4b — Theorem 4: PageRank in ``Õ(n/k²)`` rounds.

Regenerates the paper's headline PageRank comparison as a table of
measured round counts versus ``k``:

* Algorithm 1 (this paper): rounds should scale superlinearly in ``k``
  (``~k^-2`` while per-link loads exceed ``B``);
* per-edge-forwarding baseline (Klauck et al., SODA'15): ``~k^-1`` on
  high-degree graphs;
* ablation: Algorithm 1 with the heavy-vertex path disabled, which
  regresses toward the baseline on star-like inputs.

The paper proves asymptotics, not absolute numbers; the reproduction
target is the *shape* — who wins and the fitted exponents.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import repro
from repro.experiments.fits import fit_power_law
from repro.experiments.harness import Sweep

from _common import emit, log2ceil, run_algorithm

KS = (4, 8, 16, 32)
KS_LARGE = (8, 16, 32, 64)
N_GNP = 3000
N_STAR = 2000


def run_gnp_sweep():
    g = repro.gnp_random_graph(N_GNP, 6.0 / N_GNP, seed=1)
    B = log2ceil(N_GNP)
    sweep = Sweep("T4: PageRank rounds vs k on G(n, 6/n), n=%d" % N_GNP)
    for k in KS:
        algo = run_algorithm("pagerank", g, k, seed=2, c=0.5, bandwidth=B).result
        base = run_algorithm("pagerank-baseline", g, k, seed=2, c=0.5, bandwidth=B).result
        sweep.add(
            {"k": k},
            {
                "algo1_rounds": algo.token_rounds(),
                "baseline_rounds": base.token_rounds(),
                "algo1_first_iter": algo.iteration_stats[0].rounds,
                "baseline_first_iter": base.iteration_stats[0].rounds,
            },
        )
    return sweep


def run_asymptotic_sweep():
    """Single fully-loaded iteration at large n: the k^-2 regime.

    With one token per vertex (no destination saturation) and per-link
    loads far above the whp-fluctuation scale, the measured exponent
    approaches the paper's -2 (it is flattened toward -1.5 at small n by
    the max-over-links deviation term — the 'log x' of Lemma 13).
    """
    n = 1_000_000
    g = repro.random_regularish_graph(n, 8, seed=4)
    B = log2ceil(n)
    sweep = Sweep("T4 asymptotic regime: first-iteration rounds, n=%d, T0=1" % n)
    for k in KS_LARGE:
        r = run_algorithm(
            "pagerank", g, k, seed=5, c=0.01, bandwidth=B, max_iterations=2
        ).result
        sweep.add({"k": k}, {"first_iter_rounds": r.iteration_stats[0].rounds})
    return sweep


def run_star_sweep():
    g = repro.star_graph(N_STAR)
    B = log2ceil(N_STAR)
    sweep = Sweep("T4 ablation: star graph n=%d (heavy-vertex path)" % N_STAR)
    for k in KS:
        algo = run_algorithm("pagerank", g, k, seed=3, c=2, bandwidth=B).result
        no_heavy = run_algorithm(
            "pagerank", g, k, seed=3, c=2, bandwidth=B, enable_heavy_path=False
        ).result
        base = run_algorithm("pagerank-baseline", g, k, seed=3, c=2, bandwidth=B).result
        sweep.add(
            {"k": k},
            {
                "algo1_rounds": algo.token_rounds(),
                "no_heavy_rounds": no_heavy.token_rounds(),
                "baseline_rounds": base.token_rounds(),
            },
        )
    return sweep


def bench_t4_pagerank_round_scaling(benchmark):
    gnp, star, asym = benchmark.pedantic(
        lambda: (run_gnp_sweep(), run_star_sweep(), run_asymptotic_sweep()),
        rounds=1,
        iterations=1,
    )

    ks = gnp.column("k")
    fit_algo = fit_power_law(ks, gnp.column("algo1_first_iter"))
    fit_base = fit_power_law(ks, gnp.column("baseline_first_iter"))
    fit_asym = fit_power_law(asym.column("k"), asym.column("first_iter_rounds"))
    lines = [
        gnp.render(),
        "",
        f"fit (first fully-loaded iteration): algo1 rounds ~ k^{fit_algo.exponent:.2f}"
        f"  (paper: k^-2; r2={fit_algo.r_squared:.3f})",
        f"fit: baseline rounds ~ k^{fit_base.exponent:.2f}  (prior work: ~k^-1..-2)",
        "",
        star.render(),
        "",
        asym.render(),
        "",
        f"fit (asymptotic regime): rounds ~ k^{fit_asym.exponent:.2f}"
        f"  (paper: k^-2; r2={fit_asym.r_squared:.3f})",
    ]
    emit("T4_pagerank_rounds", "\n".join(lines))

    benchmark.extra_info["algo1_exponent"] = fit_algo.exponent
    benchmark.extra_info["baseline_exponent"] = fit_base.exponent
    benchmark.extra_info["asymptotic_exponent"] = fit_asym.exponent

    # Shape assertions: Algorithm 1 scales clearly superlinearly, and the
    # large-n fit approaches the paper's -2; the baseline loses on the
    # star at every k, and the heavy path is what saves Algorithm 1 there.
    assert fit_algo.exponent < -1.3
    assert fit_asym.exponent < -1.75
    for row in star.rows:
        assert row.values["algo1_rounds"] < row.values["baseline_rounds"]
        assert row.values["algo1_rounds"] <= row.values["no_heavy_rounds"]


def smoke():
    """Smallest configuration: one short run of the gnp sweep's shape."""
    g = repro.gnp_random_graph(200, 6.0 / 200, seed=1)
    B = log2ceil(200)
    r = run_algorithm(
        "pagerank", g, 4, seed=2, c=0.5, bandwidth=B, max_iterations=3
    ).result
    assert r.rounds > 0
