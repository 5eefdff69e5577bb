"""The work done inside the fresh child interpreters ``bench.py`` spawns.

``python -m e2elib.child MODE CONFIG_JSON`` runs one mode and prints its
result as the last line of stdout.  Each mode is a plain function of a
config dict so the harness test can call it in-process.
"""

import time

# Taken before ``import repro`` (and numpy): the cold set-up clock starts here.
_ENTERED = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

__all__ = ["MODES", "main"]


class _FirstActivity(Exception):
    def __init__(self, at: float) -> None:
        self.at = at


def timed_loop(seconds: float, min_count: int, body) -> list[float]:
    """Call ``body`` until ``seconds`` are used and ``min_count`` calls made.

    A call that would overrun ``seconds`` (judged by the median so far)
    is not started.  Returns each call's duration.
    """
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        body()
        durations.append(time.perf_counter() - t0)
        used = time.perf_counter() - start
        if len(durations) >= min_count and used + statistics.median(durations) > seconds:
            return durations


def peak_rss_mb() -> float:
    """MiB of the largest process: this one or any child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, reaped) / 1024.0


def _ops(cfg: dict) -> list[tuple[str, str, dict]]:
    """``(algo, dataset, run kwargs)`` of one pass."""
    from e2elib.ops import run_kwargs

    return [(algo, cfg["dataset"], run_kwargs(cfg, cfg["run_seed"])) for algo in cfg["ops"]]


def pool_cold_start_s(workers: int) -> float:
    """Seconds to start a worker pool when none is warm."""
    from repro.kmachine.parallel import shutdown_worker_pools
    from repro.kmachine.parallel.pool import acquire_pool, release_pool

    shutdown_worker_pools()
    start = time.perf_counter()
    pool = acquire_pool(workers, holder=object())
    seconds = time.perf_counter() - start
    release_pool(pool, discard=True)
    return seconds


def first_activity(cfg: dict, entered: float) -> dict:
    """Seconds from ``entered`` to the engine's first phase activity.

    The first op goes through ``runtime.run`` with a tracer whose
    ``mark`` — which the engine calls exactly once, at its first phase
    activity — aborts the run, so set-up is paid in full and the
    superstep stream not at all.  The process engine acquires its worker
    pool lazily just after that point, so a cold pool start is timed
    separately and added.
    """
    from repro import obs, runtime

    class StopAtFirstActivity(obs.Tracer):
        def mark(self, t=None):
            raise _FirstActivity(time.perf_counter() if t is None else t)

    algo, dataset, kwargs = _ops(cfg)[0]
    imported = time.perf_counter()
    try:
        runtime.run(algo, dataset=dataset, trace=StopAtFirstActivity(), **kwargs)
    except _FirstActivity as hit:
        setup_s = hit.at - entered
    else:
        raise RuntimeError(f"{algo} finished without any engine phase activity")
    pool_s = pool_cold_start_s(kwargs["workers"]) if cfg["engine"] == "process" else 0.0
    return {"setup_s": setup_s + pool_s, "import_s": imported - entered, "pool_start_s": pool_s}


def build(cfg: dict) -> dict:
    """Generate and store the datasets (disk-cold), settle the run seed, prime shard snapshots."""
    from repro import workloads

    from e2elib.table import DRAW_STRIDE, MAX_DRAWS, NOMINAL_TOLERANCE, sum_sims

    build_s = load_mb = 0.0
    for dataset in cfg["datasets"]:
        t0 = time.perf_counter()
        graph = workloads.materialize(dataset)
        build_s += time.perf_counter() - t0
        load_mb += (graph.indptr.nbytes + graph.indices.nbytes + graph.edges.nbytes) / 2**20
    run_seed = cfg["seed"]
    if cfg["kind"] == "run" and "nominal_messages" in cfg:
        # A whole pass tells its simulated messages (and stores the shard
        # snapshot the timed set-ups then load).
        for draw in range(MAX_DRAWS):
            run_seed = cfg["seed"] + draw * DRAW_STRIDE
            ops = untraced_pass({**cfg, "run_seed": run_seed})["ops"]
            messages = sum_sims([op["sim"] for op in ops if "sim" in op])["messages"]
            if abs(messages / cfg["nominal_messages"] - 1.0) <= NOMINAL_TOLERANCE:
                break
    elif cfg["kind"] == "run":
        # The first set-up builds and stores the shard snapshot the timed
        # set-ups then load: disk-warm means it exists.
        first_activity(cfg, time.perf_counter())
    import numpy

    return {
        "layers": {"workloads.build_s": build_s, "workloads.load_mb": load_mb},
        "run_seed": run_seed,
        "host": {"python": sys.version.split()[0], "numpy": numpy.__version__},
    }


def cold(cfg: dict, entered: float | None = None) -> dict:
    return first_activity(cfg, time.perf_counter() if entered is None else entered)


def untraced_pass(cfg: dict) -> dict:
    """One pass through ``runtime.run``; an op that raises is recorded, not fatal."""
    from e2elib.ops import digest_result, run_untraced, sim_counts

    outcomes = []
    start = time.perf_counter()
    for algo, dataset, kwargs in _ops(cfg):
        try:
            outcomes.append((algo, *run_untraced(algo, dataset, **kwargs)))
        except Exception as exc:  # noqa: BLE001 - the run continues, the op counts as failed
            outcomes.append((algo, exc, None))
    wall_s = time.perf_counter() - start
    # Digests are taken after the clock stops.
    ops, results = [], []
    for algo, report, op_wall_s in outcomes:
        if isinstance(report, Exception):
            ops.append({"algo": algo, "error": f"{type(report).__name__}: {report}"})
            results.append(None)
        else:
            ops.append({"algo": algo, "wall_s": op_wall_s, "sim": sim_counts(report.metrics),
                        "digest": digest_result(report.result)})
            results.append(report.result)
    return {"wall_s": wall_s, "ops": ops, "results": results}


def _reference_checks(cfg: dict, pass_: dict) -> list[str]:
    """Reasons the last pass's outputs are wrong (empty when all are right)."""
    from repro import workloads

    from e2elib.checks import check_result

    graph = workloads.materialize(cfg["dataset"])
    reasons = []
    for op, result in zip(pass_["ops"], pass_["results"]):
        if result is None:
            continue  # already counted as a failed op
        reason = check_result(op["algo"], graph, result, cfg["run_seed"])
        if reason is not None:
            reasons.append(f"{op['algo']}: {reason}")
    return reasons


def _tally(passes: list[dict]) -> tuple[int, int]:
    ops = [op for p in passes for op in p["ops"]]
    return len(ops), sum("error" in op for op in ops)


def _strip(pass_: dict) -> dict:
    return {"wall_s": pass_["wall_s"], "ops": pass_["ops"]}


def passes(cfg: dict) -> dict:
    """Warm-up, timed untraced passes, peak RSS, then the output checks."""
    from repro.kmachine.parallel import shutdown_worker_pools

    from e2elib.table import ops_identity

    untraced_pass(cfg)
    timed: list[dict] = []
    timed_loop(cfg["seconds"], cfg["min_passes"], lambda: timed.append(untraced_pass(cfg)))
    shutdown_worker_pools()  # reap the workers so their RSS is counted
    rss = peak_rss_mb()
    attempted, failed = _tally(timed)
    reasons = []
    if any(ops_identity(p["ops"]) != ops_identity(timed[0]["ops"]) for p in timed):
        reasons.append("simulated counts or digests differ between passes")
    reasons += _reference_checks(cfg, timed[-1])
    checks = len(cfg["ops"]) + 1
    return {
        "passes": [_strip(p) for p in timed], "peak_rss_mb": rss,
        "attempted": attempted + checks, "failed": failed + len(reasons), "reasons": reasons,
    }


def staged_pass(rec, cfg: dict) -> dict:
    """One traced staged pass: every op layer by layer under ``rec``."""
    from e2elib.ops import staged_op

    layers: dict[str, float] = {}
    ops, results = [], []
    layer_sum = wall = 0.0
    for algo, dataset, kwargs in _ops(cfg):
        try:
            out = staged_op(rec, algo, dataset, **kwargs)
        except Exception as exc:  # noqa: BLE001 - counted as a failed op, as in untraced_pass
            ops.append({"algo": algo, "error": f"{type(exc).__name__}: {exc}"})
            results.append(None)
            continue
        for name, value in out["layers"].items():
            layers[name] = layers.get(name, 0.0) + value
        layer_sum += out["layer_sum_s"]
        wall += out["wall_s"]
        ops.append({"algo": algo, "sim": out["sim"], "digest": out["digest"]})
        results.append(out["result"])
    return {"layers": layers, "layer_sum_s": layer_sum, "wall_s": wall, "ops": ops,
            "results": results}


def _probes(cfg: dict) -> dict[str, float]:
    """Layer costs the steady-state passes never pay, measured once each."""
    from repro import workloads

    from e2elib.ops import distgraph_s
    from e2elib.table import DRAW_STRIDE

    algo, dataset, kwargs = _ops(cfg)[0]
    data = workloads.materialize(dataset)
    # The passes' seed samples the placement whose snapshot is on disk; the next
    # draw's, a placement nothing has seen (what a serve miss pays).
    out = {
        "kmachine.distgraph.snapshot_load_s": distgraph_s(algo, data, kwargs["k"],
                                                          cfg["run_seed"]),
        "kmachine.distgraph.build_s": distgraph_s(algo, data, kwargs["k"],
                                                  cfg["run_seed"] + DRAW_STRIDE),
    }
    if cfg["engine"] == "process":
        out["kmachine.parallel.pool_cold_start_s"] = pool_cold_start_s(kwargs["workers"])
    return out


def staged(cfg: dict) -> dict:
    """Warm-up, then (untraced ``runtime.run``, traced staged pass) pairs."""
    from repro.kmachine.parallel import shutdown_worker_pools

    from e2elib.spans import BudgetError, SpanRecorder, budget_residual, self_times, write_jsonl
    from e2elib.table import ops_identity, sum_sims

    untraced_pass(cfg)
    plain: list[dict] = []
    traced: list[dict] = []
    spans: list[dict] = []
    span_problems: list[str] = []

    def pair() -> None:
        plain.append(untraced_pass(cfg))
        rec = SpanRecorder(run_id=f"{cfg['workload']}/{len(traced)}")
        traced.append(staged_pass(rec, cfg))
        spans.extend(rec.spans)
        if min(self_times(rec.spans).values()) < -1e-6:
            span_problems.append("a span's children outlast it")

    timed_loop(cfg["seconds"], cfg["min_pairs"], pair)
    # Host interference only ever slows a pass, so the fastest pass of each
    # kind is the cleanest: its layers are the budget table, whole.
    best = min(traced, key=lambda p: p["wall_s"])
    run_s = min(p["wall_s"] for p in plain)
    layers = dict(best["layers"])
    layers.update(_probes(cfg))
    shutdown_worker_pools()
    if cfg.get("trace_path"):
        write_jsonl(cfg["trace_path"], spans)

    attempted, failed = _tally(plain + traced)
    reasons = sorted(set(span_problems))
    if any(ops_identity(p["ops"]) != ops_identity(plain[0]["ops"]) for p in plain + traced):
        reasons.append("staged passes do not reproduce the untraced counts and digests")
    # Gated: the staged pass's spans against its own root span, one clock in
    # one pass.  Against the untraced wall the residual is reported, not
    # gated: identical passes differ by more than the tolerance on a busy host.
    try:
        budget_residual(best["layer_sum_s"], best["wall_s"])
    except BudgetError as exc:
        reasons.append(str(exc))
    reasons += _reference_checks(cfg, traced[-1])
    layers["runtime.run_s"] = run_s
    layers["runtime.residual_s"] = run_s - best["layer_sum_s"]
    layers["runtime.budget_residual_frac"] = abs(run_s - best["layer_sum_s"]) / run_s
    layers["obs.trace_overhead_ratio"] = best["wall_s"] / run_s
    layers["obs.trace_coverage"] = layers.pop("_covered_s", 0.0) / layers.pop("_runner_s", 1.0)
    for key, value in sum_sims([op["sim"] for op in best["ops"] if "sim" in op]).items():
        layers[f"sim.{key}"] = value
    checks = len(cfg["ops"]) + 2
    return {
        "layers": layers, "ops": best["ops"], "staged_wall_s": best["wall_s"],
        "run_walls_s": [p["wall_s"] for p in plain],
        "attempted": attempted + checks, "failed": failed + len(reasons), "reasons": reasons,
    }


def _serve(cfg: dict) -> dict:
    from e2elib.serve_mix import serve

    return serve(cfg)


MODES = {"build": build, "cold": cold, "passes": passes, "staged": staged, "serve": _serve}


def main(argv: list[str]) -> int:
    mode, cfg = argv[1], json.loads(argv[2])
    result = cold(cfg, _ENTERED) if mode == "cold" else MODES[mode](cfg)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
