"""Command-line interface: ``python -m repro <command>``.

All commands execute through the runtime registry
(:mod:`repro.runtime`): the registry owns cluster construction,
placement sampling, engine selection, and metrics collection, and the
CLI is generic over registered algorithm families.

Commands
--------
``run``          run any registered algorithm (``python -m repro run
                 triangles --n 200 --k 27``) and print a generic report:
                 theorem bound, rounds, messages/bits, lower bound, the
                 family's result summary and its checks against a
                 sequential reference (exit 1 if one fails).  A comma
                 list sweeps k instead (``--k 4,8,16``): one progress
                 line per k, a ``k | rounds`` table and the fitted
                 exponent of the round scaling.
``lowerbounds``  print the Theorem-1 cookbook table for given (n, k, B).
``trace``        inspect execution traces: ``trace summarize out.jsonl``
                 renders the per-phase wall-clock breakdown written by
                 ``run --trace`` / ``$REPRO_TRACE``; ``trace export
                 out.jsonl`` converts it to Chrome trace-event JSON for
                 ``chrome://tracing``, Perfetto or speedscope.
``data``         manage the workload subsystem's content-addressed graph
                 cache: ``data build <spec>``, ``data ls``, ``data info
                 <spec|hash>``, ``data rm <spec|hash|--all>``.
``serve``        run the persistent analytics daemon: warm pools,
                 held dataset graphs, and the sqlite result cache stay
                 live across requests (``python -m repro serve --port
                 8642 --prewarm "rmat:n=1e6,avg_deg=16,seed=7"``).
``client``       talk to a running daemon: ``client run <algo> --dataset
                 <spec>``, ``client status``, ``client health``,
                 ``client shutdown``.

``run`` also accepts ``--dataset <spec>`` (e.g. ``--dataset
rmat:n=1e6,avg_deg=16,seed=7``), replacing the built-in ``--graph/--n``
input with a named workload resolved through the on-disk cache.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

import repro
from repro import runtime
from repro._util import check_input_int, check_seed, polylog
from repro.errors import ReproError
from repro.kmachine.engine import DEFAULT_ENGINE, ENGINES

__all__ = ["main", "build_parser"]


def _print_table(headers, rows) -> None:
    from repro.experiments.tables import format_table

    print(format_table(headers, rows))


def _graph_from_args(args) -> "repro.Graph":
    n = args.n
    if args.graph == "gnp":
        return repro.gnp_random_graph(n, min(1.0, args.avg_degree / n), seed=args.seed)
    if args.graph == "dense":
        return repro.gnp_random_graph(n, 0.5, seed=args.seed)
    if args.graph == "star":
        return repro.star_graph(n)
    if args.graph == "powerlaw":
        return repro.chung_lu_graph(n, avg_degree=args.avg_degree, seed=args.seed)
    if args.graph == "lb":
        return repro.pagerank_lowerbound_graph(q=max(1, (n - 1) // 4), seed=args.seed).graph
    raise SystemExit(f"unknown graph family {args.graph!r}")


def _input_from_args(spec: "runtime.AlgorithmSpec", args):
    """Build the spec's input from CLI arguments (graph family or values)."""
    check_seed(args.seed)
    if getattr(args, "dataset", None):
        if spec.input_kind == "values":
            raise ReproError(
                f"--dataset describes a graph; {spec.name!r} takes values input"
            )
        from repro import workloads

        return workloads.materialize(args.dataset)
    check_input_int(args.n, "--n", 1)
    if spec.input_kind == "values":
        return np.random.default_rng(args.seed).random(args.n)
    return _graph_from_args(args)


def _parse_set_params(pairs) -> dict:
    """Parse repeated ``--set key=value`` options with literal-ish coercion.

    Coercion is shared with the dataset-spec grammar
    (:func:`repro.workloads.literal_value`), so large sizes spell the
    same everywhere: ``--set n=1e6`` and ``--set n=1_000_000`` are both
    integers, while ``--set eps=2.0`` stays a float.
    """
    from repro.workloads import literal_value

    params: dict = {}
    for pair in pairs or ():
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ReproError(f"--set expects key=value, got {pair!r}")
        params[key] = literal_value(raw)
    return params


def cmd_run(args) -> int:
    spec = runtime.get_spec(args.algo)
    sweep = len(args.k) > 1
    if sweep and spec.fix_k is not None:
        raise ReproError(
            f"{spec.name!r} fixes k from its input; a k-sweep would run every point "
            f"at the same k, so pass one --k"
        )
    params = _parse_set_params(args.set)
    # Before the input is built; a run() argument such as k or seed is
    # not a family parameter either, so it cannot collide with one.
    spec.check_params(params)
    data = _input_from_args(spec, args)
    tracer = None
    if args.trace:
        # One tracer shared by every k, so a sweep lands in a single trace
        # file (run() only closes tracers it opened).
        from repro.obs.trace import Tracer

        tracer = Tracer(args.trace)
    try:
        reports = []
        for k in args.k:
            rep = runtime.run(
                args.algo, data, k, engine=args.engine, workers=args.workers,
                seed=args.seed, trace=tracer, **params
            )
            reports.append(rep)
            if sweep:
                wall = f"{rep.wall_seconds:.3f}" if rep.wall_seconds is not None else "-"
                print(f"[sweep] algo={args.algo} k={k} rounds={rep.round_value()} "
                      f"wall_s={wall}", flush=True)
    finally:
        if tracer is not None:
            tracer.close()
    rc = _print_sweep(spec, reports) if sweep else _print_run(spec, data, rep)
    if args.trace:
        print(f"\ntrace written to {args.trace} "
              f"(render with: python -m repro trace summarize {args.trace})")
    return rc


def _conservation_check(metrics) -> tuple[str, str, bool]:
    """The ``conservation`` check row: the run's totals match its phase log."""
    try:
        metrics.check_conservation()
    except AssertionError as exc:
        return "conservation", str(exc), False
    return "conservation", "totals match the phase log", True


def _print_run(spec, data, rep) -> int:
    """One run's report table; 1 if conservation or a family check failed."""
    size = f"{data.n} / {data.m}" if hasattr(data, "m") else str(rep.n)
    engine_label = (
        f"{rep.engine} ({rep.workers} workers)" if rep.workers else rep.engine
    )
    rows = [
        # rep.k, not args.k: fixed-k families (congested clique) override it.
        ["n (/ m) / k / B", f"{size} / {rep.k} / {rep.bandwidth}"],
        ["engine", engine_label],
        ["rounds", rep.rounds],
        ["messages / bits", f"{rep.metrics.messages} / {rep.metrics.bits}"],
    ]
    if rep.first_superstep_seconds is not None:
        rows.append(["first superstep", f"{rep.first_superstep_seconds:.3f}s"])
    if rep.wall_seconds is not None:
        rows.append(["total wall", f"{rep.wall_seconds:.3f}s"])
    # The bound report's rows cover the theorem prose, the matching
    # lower bound and the per-phase ledger verdict.
    rows.extend(list(pair) for pair in rep.bound_report.rows())
    if spec.summarize is not None:
        rows.extend([label, value] for label, value in spec.summarize(rep.result))
    checks = [_conservation_check(rep.metrics)]
    if spec.check is not None:
        checks += spec.check(data, rep)
    rows.extend([label, value if ok else f"{value}  FAILED"] for label, value, ok in checks)
    _print_table([spec.title, "value"], rows)
    return 0 if all(ok for _, _, ok in checks) else 1


def _print_sweep(spec, reports) -> int:
    """A k-sweep's ``k | rounds`` table and its fitted scaling exponent."""
    ks = [rep.k for rep in reports]
    rounds = [rep.round_value() for rep in reports]
    _print_table(["k", "rounds"], list(zip(ks, rounds)))
    if all(v > 0 for v in rounds):
        from repro.experiments.fits import fit_power_law

        fit = fit_power_law(ks, rounds)
        target = f"   (paper: {spec.fit_target})" if spec.fit_target else ""
        print(f"\nfit: rounds ~ k^{fit.exponent:.2f}{target}")
    return 0


def cmd_lowerbounds(args) -> int:
    n, k = args.n, args.k
    B = args.bandwidth or polylog(n, factor=1)

    def cell(bound, *bound_args) -> str:
        try:
            return f"{bound(*bound_args):.4g}"
        except ValueError:
            return "-"  # outside the theorem's stated domain (tiny n/k)

    rows = [
        ["PageRank (Thm 2)", cell(repro.pagerank_round_lower_bound, n, k, B)],
        ["Triangles (Thm 3)", cell(repro.triangle_round_lower_bound, n, k, B)],
        ["Congested clique triangles (Cor 1, k=n)", cell(repro.congested_clique_lower_bound, n, B)],
        ["Triangle messages (Cor 2)", cell(repro.triangle_message_lower_bound, n, k)],
        ["Sorting (§1.3)", cell(repro.sorting_round_lower_bound, n, k, B)],
        ["MST (§1.3)", cell(repro.mst_round_lower_bound, n, k, B)],
    ]
    print(f"General Lower Bound Theorem cookbook — n={n}, k={k}, B={B}\n")
    _print_table(["problem", "lower bound (rounds)"], rows)
    return 0


def _format_bytes(nbytes: int) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if nbytes < 1024 or unit == "GiB":
            return f"{nbytes:.1f} {unit}" if unit != "B" else f"{nbytes} B"
        nbytes /= 1024
    return f"{nbytes:.1f} GiB"  # pragma: no cover - unreachable


def cmd_data(args) -> int:
    """``data {build,ls,info,rm}`` — the on-disk graph cache."""
    from repro import workloads

    cache = workloads.default_cache()
    if args.data_command == "build":
        spec = workloads.parse_spec(args.spec)
        cached_before = (
            not args.no_cache and spec.cacheable and cache.has(spec)
        )
        g = cache.materialize(spec, use_cache=not args.no_cache)
        source = "built (no-cache)" if args.no_cache else (
            "cache hit" if cached_before else "built"
        )
        rows = [
            ["spec", spec.canonical()],
            ["hash", spec.content_hash()],
            ["n / m", f"{g.n} / {g.m}"],
            ["source", source],
        ]
        if spec.cacheable and not args.no_cache:
            rows.append(["path", str(cache.info(spec).path)])
        _print_table(["dataset", "value"], rows)
        return 0
    if args.data_command == "ls":
        entries = cache.entries()
        if not entries:
            print(f"cache at {cache.graphs_dir} is empty")
            return 0
        rows = [
            [e.key[:12], e.family, e.n, e.m, _format_bytes(e.nbytes), e.spec]
            for e in entries
        ]
        _print_table(["hash", "family", "n", "m", "size", "spec"], rows)
        total = sum(e.nbytes for e in entries)
        print(f"\n{len(entries)} dataset(s), {_format_bytes(total)} "
              f"(cap {_format_bytes(cache.max_bytes)}) at {cache.graphs_dir}")
        return 0
    if args.data_command == "info":
        e = cache.info(args.spec)
        rows = [
            ["spec", e.spec],
            ["hash", e.key],
            ["family", e.family],
            ["n / m", f"{e.n} / {e.m}"],
            ["directed", e.directed],
            ["size", _format_bytes(e.nbytes)],
            ["path", str(e.path)],
        ]
        _print_table(["dataset", "value"], rows)
        return 0
    if args.data_command == "rm":
        if args.all:
            removed = cache.clear()
            print(f"removed {removed} dataset(s)")
            return 0
        if not args.spec:
            raise ReproError("data rm needs a spec/hash or --all")
        if not cache.evict(args.spec):
            print(f"no cached dataset for {args.spec!r}", file=sys.stderr)
            return 1
        print(f"removed {args.spec}")
        return 0
    raise SystemExit(f"unknown data command {args.data_command!r}")


def cmd_serve(args) -> int:
    """``serve`` — run the persistent analytics daemon (blocks)."""
    from repro.serve import ReproServer

    result_cache: "bool | str" = True
    if args.result_db:
        if args.result_db.lower() in ("none", "off"):
            result_cache = False
        else:
            result_cache = args.result_db
    server = ReproServer(
        host=args.host,
        port=args.port,
        result_cache=result_cache,
        queue_limit=args.queue_limit,
        timeout=args.timeout,
        prewarm=args.prewarm or (),
    )
    store = server.session.store
    print(f"repro serve: listening on http://{args.host}:{args.port}")
    print(f"  result cache: {store.path if store is not None else 'disabled'}")
    if args.prewarm:
        print(f"  prewarming {len(args.prewarm)} dataset(s)")
    print("  POST /run, GET /status[?history=1], GET /metrics, "
          "GET /health, POST /shutdown")
    server.serve_forever()
    print("repro serve: stopped")
    return 0


def cmd_client(args) -> int:
    """``client {run,status,health,shutdown}`` — talk to a daemon."""
    from repro.serve import ServeClient

    client = ServeClient(host=args.host, port=args.port, timeout=args.timeout)
    if args.client_command == "health":
        reply = client.health()
        print(f"ok (uptime {reply['uptime_s']:.1f}s)")
        return 0
    if args.client_command == "status":
        reply = client.status()
        session = reply["session"]
        rows = [
            ["served", reply["served"]],
            ["uptime", f"{reply['uptime_s']:.1f}s"],
            ["requests", session["requests"]],
            ["result-cache hits", session["cache_hits"]],
            ["executed", session["executed"]],
            ["errors / rejected / timeouts",
             f"{session['errors']} / {session['rejected']} / {session['timeouts']}"],
            ["in flight", f"{session['inflight']} (limit {session['queue_limit']})"],
            ["resident datasets", session["resident_datasets"]],
        ]
        store = session.get("result_store")
        if store:
            rows.append(["result store",
                         f"{store['entries']} entries at {store['path']} "
                         f"({store['hits']} hits / {store['misses']} misses)"])
        _print_table(["daemon", "value"], rows)
        return 0
    if args.client_command == "shutdown":
        client.shutdown()
        print("daemon stopping")
        return 0
    if args.client_command == "run":
        params = _parse_set_params(args.set)
        report = client.run(
            args.algo,
            dataset=args.dataset,
            k=args.k,
            seed=args.seed,
            engine=args.engine,
            workers=args.workers,
            params=params or None,
        )
        rows = [
            ["n / k / B", f"{report['n']} / {report['k']} / {report['bandwidth']}"],
            ["engine", report["engine"]],
            ["served from result cache", report["cached"]],
            ["rounds", report["rounds"]],
            ["messages / bits", f"{report['messages']} / {report['bits']}"],
            ["daemon time", f"{report['elapsed_s']:.3f}s"],
        ]
        for label, value in report.get("summary", []):
            rows.append([label, value])
        _print_table([f"{report['algo']} @ {args.host}:{args.port}", "value"], rows)
        return 0
    raise SystemExit(f"unknown client command {args.client_command!r}")


def cmd_trace(args) -> int:
    """``trace {summarize,export}`` — render or convert a trace file."""
    from repro.obs import format_summary, read_trace, summarize_trace

    if args.trace_command == "summarize":
        events = read_trace(args.path)
        print(format_summary(summarize_trace(events), top=args.top))
        return 0
    if args.trace_command == "export":
        from repro.obs.export import default_export_path, write_export

        events = read_trace(args.path)
        path = write_export(events, args.out or default_export_path(args.path))
        print(f"wrote chrome export to {path}\nopen it in chrome://tracing, "
              f"https://ui.perfetto.dev or https://www.speedscope.app")
        return 0
    raise SystemExit(f"unknown trace command {args.trace_command!r}")


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="k-machine model algorithms from 'On the Distributed "
        "Complexity of Large-Scale Graph Computations' (SPAA 2018).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def intish(raw: str) -> int:
        # Accept 1e6 / 1_000_000 spellings for sizes (shared with the
        # dataset-spec grammar's integer coercion).
        from repro.workloads import literal_value

        value = literal_value(raw)
        if not isinstance(value, int) or isinstance(value, bool):
            raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}")
        return value

    def k_list(raw: str) -> list[int]:
        # One k runs once; a comma list sweeps k (distinct values only: a
        # repeated k adds no point to the fitted exponent).
        ks = [intish(part) for part in raw.split(",")]
        if len(set(ks)) != len(ks):
            raise argparse.ArgumentTypeError(f"repeated k in {raw!r}")
        return ks

    p = sub.add_parser("run", help="run any registered algorithm, at one k or a k-sweep")
    p.add_argument("algo", choices=runtime.available(), help="registered algorithm")
    p.add_argument("--n", type=intish, default=500, help="problem size")
    p.add_argument(
        "--k", type=k_list, default=[8], metavar="K[,K...]",
        help="number of machines; a comma list (e.g. 4,8,16) sweeps k and "
        "fits the exponent of the round scaling",
    )
    p.add_argument("--seed", type=int, default=1, help="random seed")
    p.add_argument(
        "--graph",
        choices=("gnp", "dense", "star", "powerlaw", "lb"),
        default="gnp",
        help="input graph family",
    )
    p.add_argument("--avg-degree", type=float, default=8.0)
    p.add_argument(
        "--engine",
        choices=sorted(ENGINES),
        default=DEFAULT_ENGINE,
        help="execution backend: vectorized batches in this process, or "
        "multiprocessing shard workers (identical results and round "
        "accounting on both)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="W",
        help="worker-pool size for --engine process "
        "(default: CPU count, capped at k); pools stay warm across "
        "the runs of one command (e.g. a sweep's k-points)",
    )
    p.add_argument(
        "--dataset",
        metavar="SPEC",
        default=None,
        help="workload dataset spec replacing --graph/--n, e.g. "
        "'rmat:n=1e6,avg_deg=16,seed=7' (resolved through the "
        "content-addressed on-disk cache; see 'python -m repro data')",
    )
    p.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a per-phase execution trace (JSONL) to PATH, every k of "
        "a sweep in one file; render it with 'python -m repro trace "
        "summarize PATH' ($REPRO_TRACE=PATH works for any run)",
    )
    p.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="family parameter override (repeatable), e.g. --set pattern=c4",
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("lowerbounds", help="print the Theorem-1 cookbook table")
    p.add_argument("--n", type=intish, default=100_000)
    p.add_argument("--k", type=int, default=32)
    p.add_argument("--bandwidth", type=int, default=None)
    p.set_defaults(func=cmd_lowerbounds)

    p = sub.add_parser("data", help="manage the on-disk workload dataset cache")
    dsub = p.add_subparsers(dest="data_command", required=True)
    d = dsub.add_parser("build", help="materialize a dataset spec (cached)")
    d.add_argument("spec", help="dataset spec, e.g. rmat:n=1e6,avg_deg=16,seed=7")
    d.add_argument(
        "--no-cache",
        action="store_true",
        help="build fresh without reading or writing the on-disk cache",
    )
    d.set_defaults(func=cmd_data)
    d = dsub.add_parser("ls", help="list cached datasets")
    d.set_defaults(func=cmd_data)
    d = dsub.add_parser("info", help="show one cached dataset")
    d.add_argument("spec", help="dataset spec or (abbreviated) content hash")
    d.set_defaults(func=cmd_data)
    d = dsub.add_parser("rm", help="remove cached datasets")
    d.add_argument("spec", nargs="?", default=None,
                   help="dataset spec or (abbreviated) content hash")
    d.add_argument("--all", action="store_true", help="remove every cached dataset")
    d.set_defaults(func=cmd_data)

    p = sub.add_parser("trace", help="inspect execution trace files")
    tsub = p.add_subparsers(dest="trace_command", required=True)
    t = tsub.add_parser(
        "summarize", help="per-phase wall-clock breakdown of a trace file"
    )
    t.add_argument("path", help="trace JSONL written by --trace / $REPRO_TRACE")
    t.add_argument("--top", type=int, default=5,
                   help="heaviest phase groups and links shown")
    t.set_defaults(func=cmd_trace)
    t = tsub.add_parser(
        "export", help="convert a trace to Chrome trace-event JSON "
        "(chrome://tracing, Perfetto, speedscope)"
    )
    t.add_argument("path", help="trace JSONL written by --trace / $REPRO_TRACE")
    t.add_argument(
        "--out", metavar="PATH", default=None,
        help="output file (default: <trace>.chrome.json next to the input)",
    )
    t.set_defaults(func=cmd_trace)

    p = sub.add_parser("serve", help="run the persistent analytics daemon")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642)
    p.add_argument(
        "--queue-limit", type=int, default=16,
        help="max requests admitted at once (beyond it: HTTP 429)",
    )
    p.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="seconds a queued run may wait for the execution substrate "
        "before HTTP 503 (default: wait forever)",
    )
    p.add_argument(
        "--result-db", default=None, metavar="PATH",
        help="sqlite result-cache file (default: $REPRO_RESULT_DB or "
        "<cache root>/results.sqlite; 'none' disables result caching)",
    )
    p.add_argument(
        "--prewarm", action="append", metavar="SPEC", default=None,
        help="dataset spec to materialize before accepting traffic and "
        "hold until shutdown, so no request reads it again (repeatable; "
        "shards are built per request)",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("client", help="talk to a running analytics daemon")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642)
    p.add_argument("--timeout", type=float, default=600.0,
                   help="client-side request timeout (seconds)")
    csub = p.add_subparsers(dest="client_command", required=True)
    cr = csub.add_parser("run", help="submit one run request")
    cr.add_argument("algo", help="registered algorithm name")
    cr.add_argument("--dataset", required=True, metavar="SPEC",
                    help="workload dataset spec, e.g. rmat:n=1e6,avg_deg=16,seed=7")
    cr.add_argument("--k", type=int, default=None)
    cr.add_argument("--seed", type=int, default=None,
                    help="run seed (cacheable runs need one)")
    cr.add_argument("--engine", choices=sorted(ENGINES), default=None,
                    help=f"execution backend (daemon default: {DEFAULT_ENGINE})")
    cr.add_argument("--workers", type=int, default=None)
    cr.add_argument("--set", action="append", metavar="KEY=VALUE",
                    help="family parameter override (repeatable)")
    cr.set_defaults(func=cmd_client)
    for name, doc in (("status", "daemon/session/result-store counters"),
                      ("health", "liveness probe"),
                      ("shutdown", "ask the daemon to stop")):
        cc = csub.add_parser(name, help=doc)
        cc.set_defaults(func=cmd_client)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        # Warm pools let a single command's runs (a sweep's k-points)
        # share worker processes; the command boundary is where they are
        # torn down deterministically.  No pool exists unless the
        # process backend was loaded.
        if "repro.kmachine.parallel" in sys.modules:
            from repro.kmachine.parallel import shutdown_worker_pools

            shutdown_worker_pools()


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
