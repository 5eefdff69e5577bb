"""Quickstart: the k-machine model in five minutes.

Builds a random graph, partitions it across k simulated machines via the
random vertex partition, runs the paper's two headline algorithms
(PageRank / Algorithm 1 and triangle enumeration / Theorem 5), and prints
measured round counts next to the matching lower bounds.

The architecture is layered: the *engine layer* picks how a superstep
executes (``engine="vector"``, the default, or ``"process"`` for
multiprocessing shard workers over a shared-memory graph store — with
*warm worker pools* reused across runs), the *runtime layer* shares
per-machine graph shards (:class:`repro.DistributedGraph`) and owns run
plumbing, and the *algorithm registry* (``repro.runtime``) makes every
family reachable through one ``run(name, data, k, ...)`` call.  The
*workload subsystem* (``repro.workloads``) names datasets by spec string
(``"rmat:n=1e6,avg_deg=16,seed=7"``) and caches built CSR graphs on disk
by content hash — the tour at the end generates, caches, runs, and
reruns one.  The *serve layer* (``repro.serve``) keeps all of that
resident in a long-lived daemon with a sqlite result cache, so repeated
requests are answered with zero superstep execution — the final tour
starts one in-process and round-trips it over HTTP.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import contextlib
import re

import repro


def main() -> None:
    n, k, seed = 1000, 8, 42
    g = repro.gnp_random_graph(n, 8.0 / n, seed=seed)
    print(f"input graph: n={g.n} vertices, m={g.m} edges, k={k} machines")

    # --- PageRank (Theorem 4: Õ(n/k²) rounds) --------------------------
    result = repro.distributed_pagerank(g, k=k, seed=seed, c=40)
    reference = repro.pagerank_walk_series(g, eps=result.eps)
    print("\nPageRank (Algorithm 1)")
    print(f"  rounds: {result.rounds}  (token phases only: {result.token_rounds()})")
    print(f"  messages: {result.metrics.messages}, bits: {result.metrics.bits}")
    print(f"  L1 error vs exact walk-series reference: {result.l1_error(reference):.4f}")
    lb = repro.pagerank_round_lower_bound(n, k, result.metrics.bandwidth)
    print(f"  Theorem-2 lower bound: {lb:.1f} rounds  (measured/bound = {result.rounds/lb:.1f}x)")

    top = reference.argsort()[::-1][:3]
    print("  top-3 vertices by PageRank:", ", ".join(
        f"v{v} ({result.estimates[v]:.5f} est / {reference[v]:.5f} exact)" for v in top
    ))

    # --- Triangle enumeration (Theorem 5: Õ(m/k^{5/3} + n/k^{4/3})) ----
    tri = repro.enumerate_triangles_distributed(g, k=k, seed=seed)
    print("\nTriangle enumeration (Theorem 5)")
    print(f"  triangles found: {tri.count} (exact: {repro.count_triangles(g)})")
    print(f"  rounds: {tri.rounds}, messages: {tri.metrics.messages}")
    lb3 = repro.triangle_round_lower_bound(n, k, tri.metrics.bandwidth, t=max(1, tri.count))
    print(f"  Theorem-3 lower bound at measured t: {lb3:.2f} rounds")

    # --- Distributed sorting (§1.3 extension: Θ̃(n/k²)) -----------------
    import numpy as np

    values = np.random.default_rng(seed).random(20_000)
    sorted_result = repro.distributed_sort(values, k=k, seed=seed)
    ok = bool(np.all(np.diff(sorted_result.concatenated()) >= 0))
    print("\nDistributed sorting (sample sort)")
    print(f"  n={values.size}, rounds: {sorted_result.rounds}, globally sorted: {ok}")
    lbs = repro.sorting_round_lower_bound(values.size, k, sorted_result.metrics.bandwidth)
    print(f"  §1.3 lower bound: {lbs:.1f} rounds")

    # --- Execution engines: vector (default) vs process ------------------
    # Every driver runs on engine="vector" (columnar NumPy batches in this
    # process) unless told otherwise.  engine="process" keeps that
    # vectorized exchange layer but runs each machine's per-superstep
    # compute in a pool of worker processes: the graph shards are
    # published once into a shared-memory store and the workers hold the
    # per-machine RNG streams, so results and round accounting stay
    # bit-identical while heavy per-shard compute uses every core.  The
    # heavy-token regime (c >= k / log n) is where it shines — the
    # per-machine sampling loops dominate wall-clock there.  On the CLI:
    #   python -m repro run pagerank --engine process --workers 4
    import os
    import time

    big = repro.random_regularish_graph(30_000, 8, seed=seed)
    workers = min(4, os.cpu_count() or 1)
    ptimings, rounds = {}, {}
    for engine, kwargs in (("vector", {}), ("process", {"workers": workers})):
        start = time.perf_counter()
        run = repro.runtime.run(
            "pagerank", big, 8, seed=seed, c=2, max_iterations=2,
            engine=engine, **kwargs,
        )
        ptimings[engine] = time.perf_counter() - start
        rounds[engine] = run.rounds
    assert rounds["vector"] == rounds["process"]  # still bit-identical
    print(f"\nProcess engine on n={big.n}, heavy-token regime, {workers} workers")
    print(
        f"  vector: {ptimings['vector']:.3f}s   process: {ptimings['process']:.3f}s"
        f"   speedup: {ptimings['vector'] / ptimings['process']:.2f}x"
        f" (needs multiple CPUs; this host has {os.cpu_count()})"
    )

    # --- Warm worker pools ----------------------------------------------
    # Worker pools outlive the run that spawned them: runtime.run()
    # releases its pool *warm* on completion, and the next process-engine
    # run with the same worker count reuses the same worker processes
    # (and any still-published shared-memory graph stores) — no respawn,
    # no re-publication.  Explicit teardown: repro.shutdown_worker_pools().
    from repro.kmachine import active_pools

    repro.shutdown_worker_pools()
    start = time.perf_counter()
    repro.runtime.run(
        "triangles", g, k, seed=seed, engine="process", workers=workers
    )
    cold = time.perf_counter() - start
    (pool,) = active_pools()
    pids = pool.pids
    start = time.perf_counter()
    repro.runtime.run(
        "triangles", g, k, seed=seed, engine="process", workers=workers
    )
    warm = time.perf_counter() - start
    assert active_pools() == (pool,) and pool.pids == pids  # same processes
    print(f"\nWarm worker pools ({workers} workers, pids {list(pids)})")
    print(
        f"  first run (spawns pool): {cold:.3f}s   "
        f"second run (reuses pool): {warm:.3f}s"
    )
    repro.shutdown_worker_pools()

    # --- The runtime registry -------------------------------------------
    # Every family is registered with a spec (driver, defaults, theorem
    # bounds); runtime.run() owns cluster construction, partition
    # sampling, and shard materialization.  Seeded registry runs are
    # bit-identical to the direct calls above.  On the CLI:
    #   python -m repro run triangles --n 200 --k 27
    from repro import runtime

    print(f"\nRegistered algorithms: {', '.join(runtime.available())}")
    report = runtime.run("pagerank", g, k, seed=seed, engine="vector", c=40)
    assert report.rounds == result.rounds  # same run, same accounting
    spec = report.spec
    print(f"  runtime.run('pagerank', ...): {report.rounds} rounds "
          f"({spec.bounds}; lower bound {report.bound_report.lower_bound_rounds:.1f})")

    # --- Workload tour: generate -> cache -> run -> rerun hits cache ----
    # Datasets are named by *spec strings* ("family:key=value,..."): the
    # workload subsystem parses and normalizes them (n=1e5, n=100_000 and
    # n=100000 are the same dataset), builds them through vectorized
    # samplers that never touch an edge in Python (an n=1e6 R-MAT builds
    # in seconds), and persists the CSR in a content-addressed on-disk
    # cache ($REPRO_DATA_DIR or ~/.cache/repro) — so the second
    # materialization is a snapshot load, and a rerun of the same
    # runtime.run() reuses the materialized shards too.  On the CLI:
    #   python -m repro data build "rmat:n=1e6,avg_deg=16,seed=7"
    #   python -m repro data ls
    #   python -m repro run triangles --dataset "rmat:n=1e6,avg_deg=16,seed=7"
    from repro import workloads

    dataset = "rmat:n=50000,avg_deg=12,seed=7"
    parsed = workloads.parse_spec(dataset)
    start = time.perf_counter()
    wg = workloads.materialize(dataset)
    cold = time.perf_counter() - start
    start = time.perf_counter()
    wg2 = workloads.materialize("rmat:n=5e4,seed=7,avg_deg=12.0")  # same dataset
    warm = time.perf_counter() - start
    assert (wg2.edges == wg.edges).all() and wg2.content_key == parsed.content_hash()
    print(f"\nWorkload subsystem ({', '.join(workloads.available_workloads())})")
    print(f"  {parsed.canonical()}")
    print(f"  hash {parsed.content_hash()}: n={wg.n}, m={wg.m}")
    print(f"  cold build+store: {cold:.3f}s   cached reload: {warm:.3f}s")
    wrep = runtime.run("triangles", dataset=dataset, k=16, seed=seed, engine="vector")
    wrep2 = runtime.run("triangles", dataset=dataset, k=16, seed=seed, engine="vector")
    assert wrep.result.count == wrep2.result.count
    assert wrep.distgraph is wrep2.distgraph  # shards shared via content key
    print(f"  triangles on the dataset: {wrep.result.count} "
          f"({wrep.rounds} rounds; rerun reused cached shards)")

    workloads.default_cache().evict(dataset)  # leave no quickstart residue

    # --- Serve tour: a persistent analytics daemon + result cache -------
    # Deterministic engines make completed runs data: runtime.run(...,
    # result_cache=True) persists (result, metrics) in sqlite keyed by
    # (dataset content_key, algo, canonical params, seed, engine), and a
    # repeat of the same request is answered with zero superstep
    # execution.  The serve daemon keeps the whole substrate — warm
    # pools, materialized datasets, the result cache — resident behind
    # an HTTP/JSON front end, multiplexing concurrent clients through
    # one Session (misses serialize over the substrate lock; cache hits
    # answer concurrently without it).  On the CLI:
    #   python -m repro serve --port 8642 &
    #   python -m repro client run triangles --dataset "rmat:n=1e6,avg_deg=16,seed=7" --k 8 --seed 9
    #   python -m repro client status && python -m repro client shutdown
    import tempfile

    from repro.errors import ServeError
    from repro.serve import ReproServer, ServeClient

    serve_dataset = "gnp:n=2000,avg_deg=6,seed=7"
    with tempfile.NamedTemporaryFile(suffix=".sqlite") as tmp_db:
        server = ReproServer(port=0, result_cache=tmp_db.name)
        with server.start_in_thread() as handle:
            client = ServeClient(handle.host, handle.port)
            client.wait_until_ready()
            start = time.perf_counter()
            first = client.run("triangles", dataset=serve_dataset, k=8, seed=9)
            miss_s = time.perf_counter() - start
            start = time.perf_counter()
            second = client.run("triangles", dataset=serve_dataset, k=8, seed=9)
            hit_s = time.perf_counter() - start
            assert not first["cached"] and second["cached"]
            assert second["rounds"] == first["rounds"]
            stats = client.status()["session"]
            # Daemon telemetry rides along: every component registers its
            # stats into one obs registry, GET /metrics renders them as
            # Prometheus text, and /status?history=1 returns the
            # per-minute request/latency ring.
            import urllib.request

            with urllib.request.urlopen(
                f"http://{handle.host}:{handle.port}/metrics"
            ) as reply:
                metrics_text = reply.read().decode()
            # Every registered source labels its samples with its own
            # token, so sessions alive together share one series name.
            assert re.search(
                r'^repro_session_executed\{source="\d+"\} 1$', metrics_text, re.M
            ), metrics_text
        print(f"\nServe daemon on 127.0.0.1:{handle.port} ({serve_dataset})")
        print(f"  first request (executes): {miss_s:.3f}s   "
              f"identical repeat (sqlite hit): {hit_s:.3f}s")
        print(f"  session counters: executed={stats['executed']} "
              f"cache_hits={stats['cache_hits']} "
              f"store={stats['result_store']['entries']} entries")
        print(f"  GET /metrics: {len(metrics_text.splitlines())} Prometheus "
              f"samples (plus /status?history=1 per-minute telemetry)")
    workloads.default_cache().evict(serve_dataset)

    # --- Observability tour: tracing + bound checking -------------------
    # Pass trace= to any run (CLI: --trace out.jsonl, env: $REPRO_TRACE)
    # and the engines stamp every phase with its wall-clock and
    # sub-spans; untraced runs pay a single branch per phase.  Every run
    # also carries a BoundReport comparing measured rounds against the
    # family theorem's Õ envelope (polynomial x polylog slack) and the
    # General Lower Bound Theorem's floor.  On the CLI:
    #   python -m repro run pagerank --n 2000 --k 8 --trace out.jsonl
    #   python -m repro trace summarize out.jsonl
    from repro.obs import Tracer, summarize_trace

    tracer = Tracer()  # in-memory; pass a path to stream JSONL instead
    traced = runtime.run("pagerank", g, k, seed=seed, engine="vector",
                         c=40, trace=tracer)
    assert traced.rounds == result.rounds  # tracing never changes a run
    summary = summarize_trace(tracer.events)
    heaviest = summary["groups"][0]
    bound = traced.bound_report
    print("\nObservability (repro.obs)")
    print(f"  traced {sum(grp['count'] for grp in summary['groups'])} phase "
          f"events covering {summary['coverage']:.0%} of the run window")
    print(f"  heaviest phase group: {heaviest['op']}/{heaviest['label']} "
          f"({heaviest['wall_s']:.3f}s)")
    print(f"  bound check: {bound.measured_rounds} rounds "
          f"{'within' if bound.within_envelope else 'EXCEEDS'} the "
          f"Õ({bound.upper_bound_rounds:.0f}) envelope, ok={bound.ok}")

    # --- Communication ledger -------------------------------------------
    # The same BoundReport checks the run phase by phase: every recorded
    # phase is a ledger entry of measured bits/rounds with running
    # totals, checked against the envelope and the bits budget it
    # implies (bits_budget = envelope x bandwidth), so the first phase to
    # blow the envelope is flagged, not just the sum.  `repro run`
    # prints these rows; the serve daemon returns the verdict (with the
    # flagged phases) as `bound` in every /run reply.
    assert not bound.violations
    heaviest_phase = bound.heaviest_entry
    print(f"  ledger: {len(bound.entries)} phases, "
          f"{len(bound.violations)} over the budget")
    print(f"  heaviest phase: #{heaviest_phase.index} "
          f"'{heaviest_phase.label}' ({heaviest_phase.max_link_bits} bits "
          f"on its heaviest link)")

    # --- Trace export: open a run in a timeline viewer ------------------
    # A JSONL trace converts to the Chrome trace-event format, which
    # chrome://tracing, https://ui.perfetto.dev and
    # https://www.speedscope.app all open: one named track per run,
    # phase slices with driver gaps, segment sub-spans as children.
    # On the CLI:
    #   python -m repro trace export out.jsonl
    from repro.obs import export_chrome, validate_chrome_trace

    chrome_doc = export_chrome(tracer.events)
    validate_chrome_trace(chrome_doc)  # what the CI export smoke runs
    print(f"  export: {len(chrome_doc['traceEvents'])} Chrome trace "
          f"events from the same JSONL")

    # --- Alerting input: an error storm as /metrics series -------------
    # The daemon runs no alert rules; an external alerter reads /metrics.
    with tempfile.NamedTemporaryFile(suffix=".sqlite") as tmp_db:
        server = ReproServer(port=0, result_cache=tmp_db.name)
        with server.start_in_thread() as handle:
            client = ServeClient(handle.host, handle.port)
            client.wait_until_ready()
            for _ in range(4):  # the storm: unknown algos are 400s
                with contextlib.suppress(ServeError):
                    client.run("no-such-algo", dataset=serve_dataset, k=8)
            with urllib.request.urlopen(f"http://{handle.host}:{handle.port}/metrics") as reply:
                errors = re.findall(r"^repro_\w+_errors(?:\{[^}]*\})? \S+$",
                                    reply.read().decode(), re.M)
    session_errors = r'^repro_session_errors\{source="\d+"\} 4$'
    assert re.search(session_errors, "\n".join(errors), re.M), errors
    print("\nError storm on /metrics: " + ", ".join(errors))


if __name__ == "__main__":
    main()
