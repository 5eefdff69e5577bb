"""Experiments T5/T5b — Theorem 5: triangles in ``Õ(m/k^{5/3} + n/k^{4/3})``.

Regenerates the triangle-enumeration comparison on dense ``G(n, 1/2)``
inputs (the paper's lower-bound distribution):

* Theorem-5 algorithm (color triplets + edge proxies): rounds should fall
  ``~k^{-5/3}`` across the cube-k sweep;
* Klauck-style conversion baseline ``Õ(n^{7/3}/k²)``: a factor
  ``~k^{1/3}`` slower at every k;
* broadcast strawman ``Õ(m/k)``;
* ablation: no-proxy variant (send load concentrates on home machines of
  heavy vertices — reported via the max per-machine send count).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import repro
from repro.experiments.fits import fit_power_law
from repro.experiments.harness import Sweep

from _common import emit, log2ceil, run_algorithm

N = 220
KS = (8, 27, 64, 125)


def run_dense_sweep():
    g = repro.gnp_random_graph(N, 0.5, seed=0)
    B = log2ceil(N)
    sweep = Sweep(f"T5: triangle rounds vs k on G({N}, 1/2), m={g.m}, B={B}")
    for k in KS:
        ours = run_algorithm("triangles", g, k, seed=1, bandwidth=B).result
        conv = repro.enumerate_triangles_conversion(g, k=k, seed=1, bandwidth=B)
        bcast = repro.enumerate_triangles_broadcast(g, k=k, seed=1, bandwidth=B)
        assert ours.count == conv.count == bcast.count
        sweep.add(
            {"k": k},
            {
                "theorem5_rounds": ours.rounds,
                "conversion_rounds": conv.rounds,
                "broadcast_rounds": bcast.rounds,
                "triangles": ours.count,
            },
        )
    return sweep


def run_asymptotic_sweep():
    """Communication-only sweep at large n: the k^{-5/3} regime.

    Local enumeration is free in the model, so skipping it lets the sweep
    reach loads where the per-link whp deviations (which flatten the
    small-n fit toward -1.2) are negligible.
    """
    n = 2400
    g = repro.gnp_random_graph(n, 0.5, seed=9)
    B = log2ceil(n)
    sweep = Sweep(f"T5 asymptotic regime: comm-only rounds, G({n},1/2), m={g.m}")
    for k in (27, 64, 125, 216):
        r = run_algorithm(
            "triangles", g, k, seed=10, bandwidth=B, skip_local_enumeration=True
        ).result
        sweep.add({"k": k}, {"rounds": r.rounds})
    return sweep


def run_sparse_sweep():
    """The ``n/k^{4/3}`` term's regime: sparse graphs."""
    n = 3000
    g = repro.gnp_random_graph(n, 4.0 / n, seed=2)
    B = log2ceil(n)
    sweep = Sweep(f"T5 sparse: G({n}, 4/n), m={g.m}, B={B}")
    for k in KS:
        ours = run_algorithm("triangles", g, k, seed=3, bandwidth=B).result
        sweep.add({"k": k}, {"theorem5_rounds": ours.rounds, "triangles": ours.count})
    return sweep


def run_proxy_ablation():
    """Max per-machine send load with/without proxies on a heavy-tail graph."""
    g = repro.chung_lu_graph(1200, exponent=2.1, avg_degree=10, seed=4)
    B = log2ceil(g.n)
    sweep = Sweep("T5 ablation: proxy load balancing on a Chung-Lu graph")
    for k in (27, 64):
        with_p = run_algorithm(
            "triangles", g, k, seed=5, bandwidth=B, use_proxies=True
        ).result
        without = run_algorithm(
            "triangles", g, k, seed=5, bandwidth=B, use_proxies=False
        ).result
        def send(res):
            return max(
                p.max_machine_sent for p in res.metrics.phase_log if "to-" in p.label
            )
        sweep.add(
            {"k": k},
            {
                "max_send_with_proxies": send(with_p),
                "max_send_without": send(without),
                "rounds_with": with_p.rounds,
                "rounds_without": without.rounds,
            },
        )
    return sweep


def bench_t5_triangle_round_scaling(benchmark):
    dense, sparse, ablation, asym = benchmark.pedantic(
        lambda: (
            run_dense_sweep(),
            run_sparse_sweep(),
            run_proxy_ablation(),
            run_asymptotic_sweep(),
        ),
        rounds=1,
        iterations=1,
    )

    ks = dense.column("k")
    fit_ours = fit_power_law(ks, dense.column("theorem5_rounds"))
    fit_conv = fit_power_law(ks, dense.column("conversion_rounds"))
    fit_bcast = fit_power_law(ks, dense.column("broadcast_rounds"))
    fit_asym = fit_power_law(asym.column("k"), asym.column("rounds"))
    lines = [
        dense.render(),
        "",
        f"fit: theorem5 rounds ~ k^{fit_ours.exponent:.2f}  (paper: k^-5/3 = k^-1.67;"
        f" r2={fit_ours.r_squared:.3f}; flattened at this small n by per-link whp deviations)",
        f"fit: conversion rounds ~ k^{fit_conv.exponent:.2f}  (prior work: k^-2 with an"
        f" n^(1/3)/k^(1/3)-larger constant)",
        f"fit: broadcast rounds ~ k^{fit_bcast.exponent:.2f}  (strawman: k^-1)",
        "",
        sparse.render(),
        "",
        ablation.render(),
        "",
        asym.render(),
        "",
        f"fit (asymptotic regime): rounds ~ k^{fit_asym.exponent:.2f}"
        f"  (paper: k^-5/3 = k^-1.67; r2={fit_asym.r_squared:.3f})",
    ]
    emit("T5_triangle_rounds", "\n".join(lines))
    benchmark.extra_info["theorem5_exponent"] = fit_ours.exponent
    benchmark.extra_info["asymptotic_exponent"] = fit_asym.exponent

    # Shape: Theorem 5 wins against both baselines at every k; the
    # large-n fit approaches the paper's -5/3; proxies cut the worst
    # per-machine send load.
    for row in dense.rows:
        assert row.values["theorem5_rounds"] <= row.values["conversion_rounds"]
        assert row.values["theorem5_rounds"] <= row.values["broadcast_rounds"]
    assert fit_ours.exponent < -1.1
    assert fit_asym.exponent < -1.5
    for row in ablation.rows:
        assert row.values["max_send_with_proxies"] <= row.values["max_send_without"]


def smoke():
    """Smallest configuration: dense sweep shape at one tiny (n, k)."""
    g = repro.gnp_random_graph(40, 0.5, seed=0)
    B = log2ceil(40)
    ours = run_algorithm("triangles", g, 8, seed=1, bandwidth=B).result
    conv = repro.enumerate_triangles_conversion(g, k=8, seed=1, bandwidth=B)
    assert ours.count == conv.count
