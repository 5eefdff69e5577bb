"""Regenerate the paper's quantitative tables: one function per experiment.

Each experiment builds its inputs from fixed seeds, runs the k-machine
algorithms through :func:`repro.runtime.run` (or the library directly)
and returns a :class:`Report`: its tables, its log-log exponent fits
and its named checks.  :func:`main` runs every experiment, or the ids
given on the command line, merges the reports into
``benchmarks/results/paper_tables.json``, renders
``benchmarks/results/paper_tables.md`` from it, and exits 1 naming every
failed check::

    python benchmarks/paper_tables.py
    python benchmarks/paper_tables.py T2_pagerank_lowerbound S_sorting

The paper proves asymptotics, not absolute numbers: the reproduction
target is the printed round/message counts and the *shape* (who wins,
the fitted exponents), not wall time, so the runner keeps no stopwatch.
Counts are engine-independent; every run uses the default engine.

Every experiment is registered with a second, small parameter set that
``tests/test_paper_tables.py`` runs in tier-1.  Checks that hold at any
size (exactness against a reference, lower-bound sandwiches) gate at both
sizes.  A ``shape`` check (a fitted exponent, who wins at every k, a whp
envelope) only means something at full size: the small run reports it
and does not gate on it.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # runnable without PYTHONPATH

import numpy as np

import repro
from repro.core.lowerbounds.extensions import (
    mst_round_lower_bound,
    sorting_round_lower_bound,
)
from repro.core.lowerbounds.pagerank import (
    lemma5_measured_paths,
    lemma5_path_bound,
    pagerank_round_lower_bound,
)
from repro.core.lowerbounds.triangles import (
    congested_clique_lower_bound,
    induced_edge_count,
    local_triangles_per_machine,
    proposition2_edge_bound,
    triangle_round_lower_bound,
)
from repro.core.mst import kruskal_mst
from repro.core.pagerank import lemma4
from repro.core.subgraphs.local import enumerate_c4_edges, enumerate_k4_edges
from repro.experiments.fits import fit_power_law
from repro.experiments.tables import format_table
from repro.kmachine import LinkNetwork, random_edge_partition, rep_to_rvp
from repro.kmachine.partition import random_vertex_partition
from repro.kmachine.routing import (
    direct_exchange,
    lemma13_round_bound,
    valiant_exchange,
)
from repro.runtime import run

RESULTS_DIR = ROOT / "benchmarks" / "results"

#: Experiment id (the artifact name) -> (function, its small parameter set).
EXPERIMENTS: dict = {}


def experiment(name: str, **small):
    """Register the decorated function under ``name`` with its small size."""

    def register(fn):
        EXPERIMENTS[name] = (fn, small)
        return fn

    return register


class Report:
    """One experiment's tables, fits and named checks."""

    def __init__(self):
        self.tables: list[dict] = []
        self.fits: list[dict] = []
        self.checks: list[dict] = []

    def table(self, title: str, rows: list[dict]) -> None:
        self.tables.append({"title": title, "rows": rows})

    def fit(self, name: str, x, y, paper: str):
        """Fit ``y ~ x^a`` and record it next to the paper's prediction."""
        fit = fit_power_law(x, y)
        self.fits.append(
            {"name": name, "exponent": fit.exponent, "r_squared": fit.r_squared,
             "paper": paper}
        )
        return fit

    def check(self, name: str, ok, *, shape: bool = False) -> None:
        self.checks.append({"name": name, "ok": bool(ok), "shape": shape})

    def as_dict(self) -> dict:
        return {"tables": self.tables, "fits": self.fits, "checks": self.checks}


def log2ceil(n: int) -> int:
    """``ceil(log2 n)``: the default bandwidth ``B = Θ(log n)``."""
    return max(1, math.ceil(math.log2(max(2, n))))


def column(rows: list[dict], key: str) -> list:
    return [row[key] for row in rows]


@experiment("T2_pagerank_lowerbound", q=20, ks=(4, 8), trials=2)
def t2_pagerank_lowerbound(q=1000, ks=(4, 8, 16, 32), trials=5) -> Report:
    """Theorem 2 + Lemma 5: the Ω̃(n/Bk²) PageRank lower bound on the Figure-1 graph.

    Algorithm 1's measured rounds sit above the envelope ``IC/(Bk)``, and
    no machine learns more weakly-connected chains from the RVP than
    Lemma 5's ``O(n log n/k²)`` (Premise (1) of the General Lower Bound
    Theorem).
    """
    inst = repro.pagerank_lowerbound_graph(q=q, seed=0)
    n = inst.n
    B = log2ceil(n)
    rows = []
    for k in ks:
        envelope = pagerank_round_lower_bound(n, k, B)
        res = run("pagerank", inst.graph, k, seed=1, c=2, bandwidth=B).result
        max_paths = max(
            int(lemma5_measured_paths(inst, random_vertex_partition(n, k, seed=100 + t)).max())
            for t in range(trials)
        )
        rows.append({
            "k": k,
            "lb_envelope_rounds": envelope,
            "measured_rounds": res.rounds,
            "ratio": res.rounds / envelope,
            "lemma5_max_paths": max_paths,
            "lemma5_bound": lemma5_path_bound(n, k),
        })
    report = Report()
    report.table(f"T2: PageRank LB on Figure-1 graph H, n={n}, B={B}", rows)
    report.check("measured>=envelope",
                 all(r["measured_rounds"] >= r["lb_envelope_rounds"] for r in rows))
    report.check("lemma5_paths<=bound",
                 all(r["lemma5_max_paths"] <= r["lemma5_bound"] for r in rows), shape=True)
    return report


@experiment("T3_triangle_lowerbound", n=40, ks=(8,), prop2_n=60, subset_sizes=(10,),
            samples=2)
def t3_triangle_lowerbound(n=180, ks=(8, 27, 64), prop2_n=400, subset_sizes=(40, 80, 160),
                           samples=30) -> Report:
    """Theorem 3 + Proposition 2: the Ω̃(m/Bk^{5/3}) triangle lower bound on G(n, 1/2).

    The envelope ``IC/(Bk)`` is evaluated at the measured triangle count
    ``t``; Lemma 11's premise wants the per-machine local count ``t₃``
    below ``t/k``, and by pigeonhole some machine outputs ``>= t/k``
    (Lemma 9A).  Proposition 2 bounds the edges induced by random
    ``t``-subsets.
    """
    g = repro.gnp_random_graph(n, 0.5, seed=0)
    B = log2ceil(n)
    rows = []
    for k in ks:
        res = run("triangles", g, k, seed=1, bandwidth=B).result
        t = res.count
        envelope = triangle_round_lower_bound(n, k, B, t=t)
        p = random_vertex_partition(n, k, seed=2)
        rows.append({
            "k": k,
            "lb_envelope_rounds": envelope,
            "measured_rounds": res.rounds,
            "ratio": res.rounds / envelope,
            "t": t,
            "t_over_k": t / k,
            "t3_max": int(local_triangles_per_machine(g, p).max()),
            "max_output_per_machine": int(res.per_machine_output.max()),
        })
    g2 = repro.gnp_random_graph(prop2_n, 0.5, seed=3)
    rng = np.random.default_rng(4)
    prop2 = []
    for size in subset_sizes:
        threshold = proposition2_edge_bound(g2.m, g2.n, size)
        worst = max(
            induced_edge_count(g2, rng.choice(g2.n, size=size, replace=False))
            for _ in range(samples)
        )
        prop2.append(
            {"subset_size_t": size, "max_induced_edges": worst, "prop2_threshold": threshold}
        )
    report = Report()
    report.table(f"T3: triangle LB on G({n}, 1/2), B={B}", rows)
    report.table("P2: induced-subgraph edge concentration (Rödl-Ruciński)", prop2)
    report.check("measured>=envelope",
                 all(r["measured_rounds"] >= r["lb_envelope_rounds"] for r in rows))
    report.check("t3_max<t/k", all(r["t3_max"] < r["t_over_k"] for r in rows), shape=True)
    report.check("max_output>=t/k",
                 all(r["max_output_per_machine"] >= r["t_over_k"] for r in rows))
    report.check("prop2_edges<threshold",
                 all(r["max_induced_edges"] < r["prop2_threshold"] for r in prop2))
    return report


@experiment("T4_pagerank_rounds", n_gnp=200, n_star=100, n_large=2000, ks=(4, 8),
            ks_large=(8, 16))
def t4_pagerank_rounds(n_gnp=3000, n_star=2000, n_large=1_000_000, ks=(4, 8, 16, 32),
                       ks_large=(8, 16, 32, 64)) -> Report:
    """Theorem 4: PageRank in Õ(n/k²) rounds, against the Õ(n/k) baseline.

    Algorithm 1's rounds fall superlinearly in k on G(n, 6/n); the
    per-edge-forwarding baseline (Klauck et al.) loses on the star at
    every k, and disabling the heavy-vertex path regresses toward it.  At
    n=1e6 with one token per vertex the first fully-loaded iteration
    reaches the k^-2 regime (smaller n flattens the fit toward -1.5 by
    Lemma 13's max-over-links deviation term).

    The baseline is the CONGEST walk run through the Conversion Theorem,
    so these rows carry §1.3's comparison too: the converted route costs
    more than twice Algorithm 1 on the star (`star_baseline>2x_algo1`)
    and Algorithm 1 never costs more than 1.5x the converted route on
    G(n, 6/n) (`gnp_algo1<=1.5x_baseline`), at every k.
    """
    g = repro.gnp_random_graph(n_gnp, 6.0 / n_gnp, seed=1)
    B = log2ceil(n_gnp)
    gnp = []
    for k in ks:
        algo = run("pagerank", g, k, seed=2, c=0.5, bandwidth=B).result
        base = run("pagerank-baseline", g, k, seed=2, c=0.5, bandwidth=B).result
        gnp.append({
            "k": k,
            "algo1_rounds": algo.token_rounds(),
            "baseline_rounds": base.token_rounds(),
            "algo1_first_iter": algo.iteration_stats[0].rounds,
            "baseline_first_iter": base.iteration_stats[0].rounds,
        })
    g = repro.star_graph(n_star)
    B = log2ceil(n_star)
    star = []
    for k in ks:
        algo = run("pagerank", g, k, seed=3, c=2, bandwidth=B).result
        no_heavy = run(
            "pagerank", g, k, seed=3, c=2, bandwidth=B, enable_heavy_path=False
        ).result
        base = run("pagerank-baseline", g, k, seed=3, c=2, bandwidth=B).result
        star.append({
            "k": k,
            "algo1_rounds": algo.token_rounds(),
            "no_heavy_rounds": no_heavy.token_rounds(),
            "baseline_rounds": base.token_rounds(),
        })
    g = repro.random_regularish_graph(n_large, 8, seed=4)
    B = log2ceil(n_large)
    asym = []
    for k in ks_large:
        r = run("pagerank", g, k, seed=5, c=0.01, bandwidth=B, max_iterations=2).result
        asym.append({"k": k, "first_iter_rounds": r.iteration_stats[0].rounds})
    report = Report()
    report.table(f"T4: PageRank rounds vs k on G(n, 6/n), n={n_gnp}", gnp)
    report.table(f"T4 ablation: star graph n={n_star} (heavy-vertex path)", star)
    report.table(f"T4 asymptotic regime: first-iteration rounds, n={n_large}, T0=1", asym)
    fit_algo = report.fit("algo1 first iteration", column(gnp, "k"),
                          column(gnp, "algo1_first_iter"), "k^-2")
    report.fit("baseline first iteration", column(gnp, "k"),
               column(gnp, "baseline_first_iter"), "~k^-1..-2 (prior work)")
    fit_asym = report.fit("asymptotic regime", column(asym, "k"),
                          column(asym, "first_iter_rounds"), "k^-2")
    report.check("algo1_exponent<-1.3", fit_algo.exponent < -1.3, shape=True)
    report.check("asymptotic_exponent<-1.75", fit_asym.exponent < -1.75, shape=True)
    report.check("star_algo1<baseline",
                 all(r["algo1_rounds"] < r["baseline_rounds"] for r in star), shape=True)
    report.check("star_algo1<=no_heavy",
                 all(r["algo1_rounds"] <= r["no_heavy_rounds"] for r in star), shape=True)
    report.check("star_baseline>2x_algo1",
                 all(r["baseline_rounds"] > 2 * r["algo1_rounds"] for r in star), shape=True)
    report.check("gnp_algo1<=1.5x_baseline",
                 all(r["algo1_rounds"] <= 1.5 * r["baseline_rounds"] for r in gnp), shape=True)
    return report


@experiment("T5_triangle_rounds", n=40, ks=(8, 27), n_sparse=300, chung_lu_n=200,
            proxy_ks=(8,), n_large=100, ks_large=(27, 64))
def t5_triangle_rounds(n=220, ks=(8, 27, 64, 125), n_sparse=3000, chung_lu_n=1200,
                       proxy_ks=(27, 64), n_large=2400,
                       ks_large=(27, 64, 125, 216)) -> Report:
    """Theorem 5: triangles in Õ(m/k^{5/3} + n/k^{4/3}) rounds.

    On dense G(n, 1/2) the color-triplet algorithm beats the Klauck-style
    conversion baseline Õ(n^{7/3}/k²) and the Õ(m/k) broadcast strawman at
    every k, all three enumerating the same triangles.  The sparse sweep
    is the n/k^{4/3} term's regime; the ablation shows proxies cutting the
    worst per-machine send load on a heavy-tailed Chung-Lu graph; the
    communication-only sweep at larger n (local enumeration is free in
    the model) reaches the k^{-5/3} regime that per-link whp deviations
    flatten toward -1.2 at small n.
    """
    report = Report()
    g = repro.gnp_random_graph(n, 0.5, seed=0)
    B = log2ceil(n)
    dense = []
    counts_agree = True
    for k in ks:
        ours = run("triangles", g, k, seed=1, bandwidth=B).result
        conv = repro.enumerate_triangles_conversion(g, k=k, seed=1, bandwidth=B)
        bcast = repro.enumerate_triangles_broadcast(g, k=k, seed=1, bandwidth=B)
        counts_agree &= ours.count == conv.count == bcast.count
        dense.append({
            "k": k,
            "theorem5_rounds": ours.rounds,
            "conversion_rounds": conv.rounds,
            "broadcast_rounds": bcast.rounds,
            "triangles": ours.count,
        })
    report.table(f"T5: triangle rounds vs k on G({n}, 1/2), m={g.m}, B={B}", dense)
    g = repro.gnp_random_graph(n_sparse, 4.0 / n_sparse, seed=2)
    B = log2ceil(n_sparse)
    sparse = []
    for k in ks:
        ours = run("triangles", g, k, seed=3, bandwidth=B).result
        sparse.append({"k": k, "theorem5_rounds": ours.rounds, "triangles": ours.count})
    report.table(f"T5 sparse: G({n_sparse}, 4/n), m={g.m}, B={B}", sparse)
    g = repro.chung_lu_graph(chung_lu_n, exponent=2.1, avg_degree=10, seed=4)
    B = log2ceil(g.n)

    def max_send(res):
        return max(p.max_machine_sent for p in res.metrics.phase_log if "to-" in p.label)

    ablation = []
    for k in proxy_ks:
        with_p = run("triangles", g, k, seed=5, bandwidth=B, use_proxies=True).result
        without = run("triangles", g, k, seed=5, bandwidth=B, use_proxies=False).result
        ablation.append({
            "k": k,
            "max_send_with_proxies": max_send(with_p),
            "max_send_without": max_send(without),
            "rounds_with": with_p.rounds,
            "rounds_without": without.rounds,
        })
    g = repro.gnp_random_graph(n_large, 0.5, seed=9)
    B = log2ceil(n_large)
    asym = []
    for k in ks_large:
        r = run("triangles", g, k, seed=10, bandwidth=B, skip_local_enumeration=True).result
        asym.append({"k": k, "rounds": r.rounds})
    report.table("T5 ablation: proxy load balancing on a Chung-Lu graph", ablation)
    report.table(f"T5 asymptotic regime: comm-only rounds, G({n_large},1/2), m={g.m}", asym)
    ks_dense = column(dense, "k")
    fit_ours = report.fit("theorem5", ks_dense, column(dense, "theorem5_rounds"),
                          "k^-5/3 (flattened at small n)")
    report.fit("conversion", ks_dense, column(dense, "conversion_rounds"),
               "k^-2 with an n^(1/3)/k^(1/3)-larger constant (prior work)")
    report.fit("broadcast", ks_dense, column(dense, "broadcast_rounds"), "k^-1 (strawman)")
    fit_asym = report.fit("asymptotic regime", column(asym, "k"), column(asym, "rounds"),
                          "k^-5/3")
    report.check("counts_agree", counts_agree)
    report.check("theorem5<=conversion",
                 all(r["theorem5_rounds"] <= r["conversion_rounds"] for r in dense), shape=True)
    report.check("theorem5<=broadcast",
                 all(r["theorem5_rounds"] <= r["broadcast_rounds"] for r in dense), shape=True)
    report.check("theorem5_exponent<-1.1", fit_ours.exponent < -1.1, shape=True)
    report.check("asymptotic_exponent<-1.5", fit_asym.exponent < -1.5, shape=True)
    report.check("proxies_cut_max_send",
                 all(r["max_send_with_proxies"] <= r["max_send_without"] for r in ablation),
                 shape=True)
    return report


@experiment("F1_lemma4_separation", q=10, eps_grid=(0.25,))
def f1_lemma4_separation(q=150, eps_grid=(0.1, 0.15, 0.25, 0.5)) -> Report:
    """Figure 1 + Lemma 4: PageRank on H separates the two values of each bit b_i.

    The analytic Lemma-4 values match the exact walk-series reference to
    machine precision and differ by a constant factor for every reset
    probability; Algorithm 1's Monte-Carlo estimates recover (almost) all
    bits by nearest-value classification (Lemma 7's reconstruction).
    """
    inst = repro.pagerank_lowerbound_graph(q=q, seed=0)
    n = inst.n
    rows = []
    for eps in eps_grid:
        exact = inst.analytic_pagerank(eps)
        reference = repro.pagerank_walk_series(inst.graph, eps=eps)
        res = run("pagerank", inst.graph, 8, eps=eps, seed=1, c=120).result
        recovered = inst.infer_b(res.estimates, eps)
        rows.append({
            "eps": eps,
            "value_b0*n": lemma4.value_b0(eps, n) * n,
            "value_b1*n": lemma4.value_b1(eps, n) * n,
            "ratio": lemma4.separation_ratio(eps),
            "analytic_vs_ref": float(np.abs(exact - reference).max()),
            "b_recovery_rate": float((recovered == inst.b).mean()),
        })
    report = Report()
    report.table(f"F1/L4: Lemma-4 separation on H with q={q}", rows)
    report.check("analytic_matches_reference",
                 all(r["analytic_vs_ref"] < 1e-12 for r in rows))
    report.check("separation_ratio>1.05", all(r["ratio"] > 1.05 for r in rows))
    report.check("b_recovery>0.95", all(r["b_recovery_rate"] > 0.95 for r in rows), shape=True)
    return report


@experiment("L12_L14_load_balance", n=120, ks=(4,))
def l12_l14_load_balance(n=4000, ks=(8, 16, 32)) -> Report:
    """Lemmas 12 and 14: Algorithm 1's per-iteration load balance.

    In every iteration each machine sends and receives ``O(n log n/k)``
    messages whp (Lemma 12), delivered in ``Õ(n/k²)`` rounds (Lemma 14).
    """
    g = repro.gnp_random_graph(n, 5.0 / n, seed=0)
    B = log2ceil(n)
    rows = []
    for k in ks:
        res = run("pagerank", g, k, seed=1, c=1, bandwidth=B).result
        rows.append({
            "k": k,
            "worst_iter_sent": max(s.max_machine_sent for s in res.iteration_stats),
            "lemma12_bound": round(8 * (n / k) * math.log2(n)),
            "worst_iter_recv": max(s.max_machine_received for s in res.iteration_stats),
            "worst_iter_rounds": max(s.rounds for s in res.iteration_stats),
            "lemma14_bound": round(8 * (n / k**2) * math.log2(n), 1),
            "iterations": res.iterations,
        })
    report = Report()
    report.table(f"L12/L14: Algorithm-1 per-iteration load, G({n}, 5/n), B={B}", rows)
    report.check("lemma12_sent", all(r["worst_iter_sent"] <= r["lemma12_bound"] for r in rows),
                 shape=True)
    report.check("lemma12_recv", all(r["worst_iter_recv"] <= r["lemma12_bound"] for r in rows),
                 shape=True)
    report.check("lemma14_rounds",
                 all(r["worst_iter_rounds"] <= max(2, r["lemma14_bound"]) for r in rows),
                 shape=True)
    return report


@experiment("L13_routing", ks=(4,), loads=(20,), sink_k=4, sink_x=40)
def l13_routing(ks=(8, 16, 32), loads=(200, 800, 3200), sink_k=16, sink_x=2000) -> Report:
    """Lemma 13: x random-destination messages per machine route in O((x log x)/k) rounds.

    The direct schedule stays within a small constant (4x, for the whp
    deviations at small loads) of the envelope; on the adversarial
    single-sink workload Valiant two-hop routing (the randomized-proxy
    primitive) beats direct routing.
    """
    bits, B = 16, 32
    rng = np.random.default_rng(0)
    rows = []
    for k in ks:
        for x in loads:
            dests = rng.integers(0, k, size=(k, x))
            net = LinkNetwork(k, bandwidth=B)
            direct_exchange(net, np.repeat(np.arange(k), x), dests.ravel(),
                            np.full(k * x, bits))
            envelope = lemma13_round_bound(x, k, bits, B)
            rows.append({
                "k": k,
                "x": x,
                "measured_rounds": net.rounds,
                "lemma13_envelope": round(envelope, 1),
                "ratio": net.rounds / envelope,
            })
    to_sink = (np.ones(sink_x, dtype=np.int64), np.zeros(sink_x, dtype=np.int64),
               np.full(sink_x, bits))
    net_direct = LinkNetwork(sink_k, bandwidth=B)
    direct_exchange(net_direct, *to_sink)
    net_valiant = LinkNetwork(sink_k, bandwidth=B)
    valiant_exchange(net_valiant, *to_sink, rng=np.random.default_rng(1))
    sink = {"k": sink_k, "x": sink_x, "direct_rounds": net_direct.rounds,
            "valiant_rounds": net_valiant.rounds}
    report = Report()
    report.table("L13: direct routing of x random-destination messages/machine", rows)
    report.table("L13 adversarial: all messages to one sink (proxy routing wins)", [sink])
    report.check("measured<=4x_envelope",
                 all(r["measured_rounds"] <= 4 * max(1.0, r["lemma13_envelope"]) for r in rows),
                 shape=True)
    report.check("valiant<direct_on_sink", sink["valiant_rounds"] < sink["direct_rounds"],
                 shape=True)
    return report


@experiment("C1_congested_clique", ns=(27, 64))
def c1_congested_clique(ns=(64, 125, 216, 343)) -> Report:
    """Corollary 1: Θ̃(n^{1/3}) triangle enumeration in the congested clique (k = n).

    Measured rounds sit above the Ω(n^{1/3}/B) envelope and grow far
    slower than the m = Θ(n²) data volume.
    """
    rows = []
    for n in ns:
        g = repro.gnp_random_graph(n, 0.5, seed=n)
        B = log2ceil(n)
        res = repro.enumerate_triangles_congested_clique(g, seed=1, bandwidth=B)
        envelope = congested_clique_lower_bound(n, B)
        rows.append({
            "n": n,
            "measured_rounds": res.rounds,
            "lb_envelope_rounds": envelope,
            "ratio": res.rounds / envelope,
            "n_cuberoot": round(n ** (1 / 3), 2),
            "triangles": res.count,
        })
    report = Report()
    report.table("C1: congested-clique triangle enumeration, G(n, 1/2)", rows)
    fit = report.fit("rounds vs n", column(rows, "n"), column(rows, "measured_rounds"),
                     "n^(1/3)")
    report.check("measured>=envelope",
                 all(r["measured_rounds"] >= r["lb_envelope_rounds"] for r in rows))
    report.check("exponent<0.9", fit.exponent < 0.9, shape=True)
    return report


@experiment("C2_message_complexity", n=40, ks=(8, 27))
def c2_message_complexity(n=200, ks=(8, 27, 64, 125)) -> Report:
    """Corollary 2: round-optimal triangle enumeration needs Ω̃(n² k^{1/3}) messages.

    The Theorem-5 algorithm's total message count grows like m·k^{1/3},
    ruling out aggregate-at-one-machine strategies (O(m) messages) for
    round-optimal algorithms.
    """
    g = repro.gnp_random_graph(n, 0.5, seed=0)
    B = log2ceil(n)
    rows = []
    for k in ks:
        res = run("triangles", g, k, seed=1, bandwidth=B).result
        total = res.metrics.messages + res.metrics.local_messages
        rows.append({
            "k": k,
            "total_messages": total,
            "m*k^(1/3)": round(g.m * k ** (1 / 3)),
            "messages_over_m": total / g.m,
            "max_machine_recv": res.metrics.max_machine_received,
            "mean_machine_recv": res.metrics.messages / k,
        })
    report = Report()
    report.table(f"C2: message complexity of round-optimal triangles, G({n},1/2), m={g.m}",
                 rows)
    fit = report.fit("total messages vs k", column(rows, "k"),
                     column(rows, "total_messages"), "k^(1/3)")
    report.check("messages>=0.8*m*k^(1/3)",
                 all(r["total_messages"] >= r["m*k^(1/3)"] * 0.8 for r in rows), shape=True)
    report.check("0.15<exponent<0.6", 0.15 < fit.exponent < 0.6, shape=True)
    return report


@experiment("X1_subgraphs", n=24, ks=(16, 81))
def x1_subgraphs(n=90, ks=(16, 81, 256)) -> Report:
    """§1.2: the triangle techniques generalize to K4 and C4 enumeration.

    The color-4-tuple algorithm finds exactly the sequential count, its
    rounds fall with k, and it re-routes m·q(q+1)/2 edge copies (plus at
    most m for the proxy phase): m·Θ(k^{1/2}) against m·k^{1/3} for
    triangles, so richer patterns cost more.
    """
    g = repro.gnp_random_graph(n, 0.3, seed=0)
    B = log2ceil(n)
    report = Report()
    exact = True
    for pattern, local in (("k4", enumerate_k4_edges), ("c4", enumerate_c4_edges)):
        expected = local(g.n, g.edges).shape[0]
        rows = []
        for k in ks:
            res = run("subgraphs", g, k, pattern=pattern, seed=1, bandwidth=B).result
            exact &= res.count == expected
            q = res.num_colors
            rows.append({
                "k": k,
                "m": g.m,
                "rounds": res.rounds,
                "occurrences": res.count,
                "q": q,
                "edge_copies": res.metrics.messages + res.metrics.local_messages,
                "m*q(q+1)/2": g.m * q * (q + 1) // 2,
            })
        report.table(f"X1: {pattern.upper()} enumeration on G({n}, 0.3), m={g.m}", rows)
        if pattern == "k4":
            report.fit("K4 rounds vs k", column(rows, "k"), column(rows, "rounds"),
                       "superlinear-in-k speedup")
        report.check(f"{pattern}_rounds_fall_with_k", rows[0]["rounds"] > rows[-1]["rounds"],
                     shape=True)
        report.check(f"{pattern}_copies<=forwarding+m",
                     all(r["edge_copies"] <= r["m*q(q+1)/2"] + r["m"] for r in rows),
                     shape=True)
        report.check(f"{pattern}_copies>=0.9*forwarding",
                     all(r["edge_copies"] >= r["m*q(q+1)/2"] * 0.9 for r in rows), shape=True)
    report.check("counts_exact", exact)
    return report


@experiment("X2_mst", n=24, ks=(4, 8))
def x2_mst(n=300, ks=(4, 8, 16, 32)) -> Report:
    """§1.3: MST under random partition against the Ω̃(n/k²) lower bound.

    Proxy-based Borůvka on the lower-bound input (a complete graph with
    random weights) matches Kruskal's weight exactly, sits above the
    envelope, and falls superlinearly in k (the SPAA'16 algorithm is
    tight; this one is within log factors).
    """
    g = repro.complete_graph(n)
    w = np.random.default_rng(0).random(g.m)
    _, ref_total = kruskal_mst(g, w)
    B = log2ceil(n)
    rows = []
    exact = True
    for k in ks:
        res = run("mst", g, k, seed=1, bandwidth=B, weights=w).result
        exact &= res.total_weight == ref_total
        envelope = mst_round_lower_bound(n, k, B)
        rows.append({
            "k": k,
            "measured_rounds": res.rounds,
            "lb_envelope_rounds": round(envelope, 2),
            "ratio": round(res.rounds / envelope, 1),
            "phases": res.phases,
            "mst_weight": round(res.total_weight, 4),
        })
    report = Report()
    report.table(f"X2: MST on K_{n} with random weights, B={B}", rows)
    fit = report.fit("rounds vs k", column(rows, "k"), column(rows, "measured_rounds"),
                     "k^-2 (Ω̃(n/k²))")
    report.check("weight_matches_kruskal", exact)
    report.check("measured>=envelope",
                 all(r["measured_rounds"] >= r["lb_envelope_rounds"] for r in rows))
    report.check("exponent<-1.2", fit.exponent < -1.2, shape=True)
    return report


@experiment("S_sorting", n=500, ks=(4, 8))
def s_sorting(n=100_000, ks=(4, 8, 16, 32)) -> Report:
    """§1.3: distributed sample sort at Θ̃(n/k²) rounds.

    The output is globally sorted, rounds sit above the Ω̃(n/k²) envelope
    with balanced blocks, and the fit over the loaded regime (per-link
    volume far above the whp-deviation scale: k <= 16 at n=1e5)
    approaches k^-2; the all-k fit includes the flattened k=32 point.
    """
    values = np.random.default_rng(0).random(n)
    B = 64  # one element per round per link
    rows = []
    is_sorted = True
    for k in ks:
        res = run("sorting", values, k, seed=1, bandwidth=B).result
        is_sorted &= bool(np.all(np.diff(res.concatenated()) >= 0))
        envelope = sorting_round_lower_bound(n, k, B)
        rows.append({
            "k": k,
            "measured_rounds": res.rounds,
            "lb_envelope_rounds": round(envelope, 1),
            "ratio": res.rounds / envelope,
            "block_imbalance": round(res.max_block_imbalance(), 3),
        })
    report = Report()
    report.table(f"S: distributed sorting, n={n}, B={B}", rows)
    ks_, rounds = column(rows, "k"), column(rows, "measured_rounds")
    fit = report.fit("all k", ks_, rounds, "k^-2")
    fit_loaded = report.fit("loaded regime (first three k)", ks_[:3], rounds[:3], "k^-2")
    report.check("globally_sorted", is_sorted)
    report.check("measured>=envelope",
                 all(r["measured_rounds"] >= r["lb_envelope_rounds"] for r in rows))
    report.check("block_imbalance<2", all(r["block_imbalance"] < 2.0 for r in rows), shape=True)
    report.check("loaded_exponent<-1.6", fit_loaded.exponent < -1.6, shape=True)
    report.check("exponent<-1.4", fit.exponent < -1.4, shape=True)
    return report


@experiment("FN3_rep_conversion", n=60, densities=(0.1,), ks=(4, 8))
def fn3_rep_conversion(n=1500, densities=(0.05, 0.1, 0.2), ks=(4, 8, 16, 32)) -> Report:
    """Footnote 3: REP -> RVP conversion in Õ(m/k² + n/k) rounds.

    Measured rounds track the m/k²-shaped envelope (the n/k term is
    negligible at these sizes since home machines are hash-derived), and
    the k-exponent at the largest m approaches -2.
    """
    B = log2ceil(n)
    rows = []
    for p in densities:
        g = repro.gnp_random_graph(n, p, seed=int(p * 100))
        for k in ks:
            net = LinkNetwork(k, bandwidth=B)
            _, metrics = rep_to_rvp(g.edges, g.n, random_edge_partition(g.m, k, seed=1), net,
                                    seed=2)
            rows.append({
                "m": g.m,
                "k": k,
                "measured_rounds": metrics.rounds,
                # 2m endpoint records of log n bits each over B·k² link capacity.
                "m_over_Bk2": round(2 * g.m * 2 * B / (B * k * k), 1),
            })
    report = Report()
    report.table(f"FN3: REP->RVP conversion, n={n}", rows)
    biggest = [r for r in rows if r["m"] == max(column(rows, "m"))]
    fit = report.fit(f"rounds vs k at m={biggest[0]['m']}", column(biggest, "k"),
                     column(biggest, "measured_rounds"), "k^-2")
    report.check("exponent<-1.5", fit.exponent < -1.5, shape=True)
    report.check("measured<=4x_envelope",
                 all(r["measured_rounds"] <= 4 * max(1.0, r["m_over_Bk2"]) for r in rows),
                 shape=True)
    return report


def render(name: str, entry: dict) -> str:
    """One experiment's section of ``paper_tables.md``."""
    fn, _small = EXPERIMENTS[name]
    lines = [f"## {name}", "", fn.__doc__.split("\n", 1)[0], ""]
    for table in entry["tables"]:
        headers = list(table["rows"][0])
        body = [[row[h] for h in headers] for row in table["rows"]]
        lines += ["```text", f"[{table['title']}]", format_table(headers, body), "```", ""]
    if entry["fits"]:
        lines += ["| fit | exponent | r² | paper |", "|---|---:|---:|---|"]
        lines += [f"| {f['name']} | {f['exponent']:.2f} | {f['r_squared']:.3f} | {f['paper']} |"
                  for f in entry["fits"]]
        lines.append("")
    lines += ["| check | gates at | result |", "|---|---|---|"]
    lines += [f"| `{c['name']}` | {'full size' if c['shape'] else 'both sizes'} | "
              f"{'pass' if c['ok'] else '**FAIL**'} |" for c in entry["checks"]]
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    ids = list(sys.argv[1:] if argv is None else argv) or list(EXPERIMENTS)
    unknown = [name for name in ids if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s) {unknown}; choose from {list(EXPERIMENTS)}",
              file=sys.stderr)
        return 2
    json_path = RESULTS_DIR / "paper_tables.json"
    doc = json.loads(json_path.read_text(encoding="utf-8")) if json_path.exists() else {}
    failed = []
    for name in ids:
        fn, _small = EXPERIMENTS[name]
        report = fn()
        # Round-trip through JSON so stdout, .json and .md see the same values.
        doc[name] = json.loads(json.dumps(report.as_dict(), default=lambda v: v.item()))
        print(render(name, doc[name]), flush=True)
        failed += [f"{name}.{c['name']}" for c in report.checks if not c["ok"]]
    doc = {name: doc[name] for name in EXPERIMENTS if name in doc}
    RESULTS_DIR.mkdir(exist_ok=True)
    # One line per experiment: a diff names the experiment whose numbers
    # moved, and paper_tables.md shows the rows.
    json_path.write_text("{\n" + ",\n".join(
        f"{json.dumps(name)}: {json.dumps(entry, ensure_ascii=False)}"
        for name, entry in doc.items()
    ) + "\n}\n", encoding="utf-8")
    (RESULTS_DIR / "paper_tables.md").write_text(
        "# Paper tables\n\nRegenerated by `python benchmarks/paper_tables.py [ID ...]`"
        " from fixed seeds; see that script's docstring.\n\n"
        + "\n".join(render(name, entry) for name, entry in doc.items()),
        encoding="utf-8",
    )
    if failed:
        print("FAILED checks:\n  " + "\n  ".join(failed), file=sys.stderr)
        return 1
    print(f"all checks passed ({', '.join(ids)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
