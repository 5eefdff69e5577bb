"""One algorithm run, two ways: untraced through ``runtime.run`` and staged.

The staged form calls, in ``runtime.run``'s order, the same public
functions ``runtime.run`` calls, each under a harness span, and reads the
program's existing ``repro.obs.Tracer`` phase events as children of the
runner span.  Nothing is added inside ``src/``; that the staged form is
the same computation is checked by comparing its simulated counts and
result digest with the untraced run's.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time

import numpy as np

from e2elib.table import SIM_KEYS, WORKERS

__all__ = ["run_kwargs", "sim_counts", "digest_result", "run_untraced", "staged_op", "distgraph_s"]

#: Tracer segment -> per-layer metric, by the module that does the work.
_ENGINE_SEGMENTS = {
    "pack_s": "kmachine.engine.pack_s",
    "account_s": "kmachine.engine.account_s",
    "deliver_s": "kmachine.engine.deliver_s",
    "kernel_s": "kmachine.engine.kernel_s",
    "assemble_s": "kmachine.engine.assemble_s",
    "ship_s": "kmachine.parallel.ship_s",
    "unpack_s": "kmachine.parallel.unpack_s",
    "pool_wait_s": "kmachine.parallel.pool_wait_s",
}
_ENGINE_OPS = {
    "exchange": "kmachine.engine.exchange_s",
    "exchange_batches": "kmachine.engine.exchange_s",
    "account_phase": "kmachine.engine.account_phase_s",
    "map_machines": "kmachine.engine.map_s",
}


def run_kwargs(cfg: dict, seed: int) -> dict:
    """Keyword arguments shared by ``runtime.run`` and the staged form."""
    return {
        "k": cfg["k"], "seed": seed, "engine": cfg["engine"],
        "workers": WORKERS if cfg["engine"] == "process" else None,
    }


def sim_counts(metrics) -> dict[str, int]:
    """The simulated quantities no host-side change may move."""
    return {key: int(getattr(metrics, key)) for key in SIM_KEYS}


def digest_result(result) -> str:
    """sha256 over a family result's arrays and scalars (metrics excluded)."""
    h = hashlib.sha256()
    for field in dataclasses.fields(result):
        value = getattr(result, field.name)
        if isinstance(value, np.ndarray):
            h.update(field.name.encode())
            h.update(str(value.dtype).encode())
            h.update(np.ascontiguousarray(value).tobytes())
        elif isinstance(value, (bool, int, float, str)):
            h.update(f"{field.name}={value!r}".encode())
    return h.hexdigest()


def run_untraced(algo: str, dataset: str, **kwargs):
    """``(report, wall_s)`` of one ``runtime.run`` with tracing off."""
    from repro import runtime

    start = time.perf_counter()
    report = runtime.run(algo, dataset=dataset, trace=False, **kwargs)
    return report, time.perf_counter() - start


def distgraph_s(algo: str, data, k: int, seed: int) -> float:
    """Seconds ``cached_distgraph`` takes, its in-memory LRU empty, for the
    placement ``seed`` samples: a snapshot load if one is on disk, else a
    shard build plus the snapshot store."""
    from repro.kmachine.cluster import Cluster
    from repro.kmachine.distgraph import cached_distgraph, clear_distgraph_cache
    from repro.runtime import get_spec

    spec = get_spec(algo)
    with Cluster(k=k, n=spec.cluster_n(data), seed=seed, engine="vector") as cluster:
        placement = spec.sample_placement(cluster, data)
    clear_distgraph_cache()
    start = time.perf_counter()
    cached_distgraph(data, placement)
    return time.perf_counter() - start


def staged_op(rec, algo: str, dataset: str, *, k: int, seed: int, engine: str,
              workers: int | None) -> dict:
    """Run ``algo`` layer by layer under ``rec``; returns its layer values.

    The returned dict carries ``layers`` (per-layer metric -> seconds or
    count for this op), ``layer_sum_s`` (sum of the top-level layer
    spans, the number the wall budget is checked with), ``wall_s`` (the
    root span), ``sim``, ``digest`` and ``result``.
    """
    from repro import obs, workloads
    from repro.kmachine.cluster import Cluster
    from repro.kmachine.distgraph import cached_distgraph
    from repro.runtime import get_spec

    with rec.span(f"op.{algo}", algo=algo, engine=engine) as root:
        spec = get_spec(algo)
        with rec.span("workloads.load"):
            data = workloads.materialize(workloads.parse_spec(dataset))
        params = dict(spec.default_params)
        if "seed" in params and params["seed"] is None:
            params["seed"] = seed
        tracer_t0 = time.perf_counter()
        tracer = obs.Tracer()
        with rec.span("kmachine.cluster.start"):
            cluster = Cluster(k=k, n=spec.cluster_n(data), seed=seed, engine=engine,
                              workers=workers)
        tracer.run_start(algo=spec.name, n=data.n, m=int(data.m), k=k,
                         bandwidth=int(cluster.bandwidth), engine=engine, workers=workers)
        try:
            with rec.span("kmachine.partition.sample"):
                placement = spec.sample_placement(cluster, data)
            with rec.span("kmachine.distgraph.lru_hit"):
                distgraph = cached_distgraph(data, placement)
            cluster.engine.tracer = tracer
            with rec.span(f"core.{algo}.runner") as runner:
                result = spec.runner(data, cluster, distgraph, params)
        finally:
            with rec.span("kmachine.cluster.close"):
                cluster.close()
        metrics = cluster.metrics
        tracer.run_end(algo=spec.name, cached=False, wall_s=time.perf_counter() - tracer_t0,
                       setup_s=None, metrics=metrics)
        with rec.span("obs.bound"):
            obs.compute_bound_report(spec, n=data.n, k=k, bandwidth=metrics.bandwidth,
                                     metrics=metrics, result=result, m=int(data.m))
        with rec.span("obs.ledger"):
            obs.compute_ledger_report(spec, n=data.n, k=k, bandwidth=metrics.bandwidth,
                                      metrics=metrics, m=int(data.m), events=tracer.events)

    layers = _span_layers(rec, root)
    layers.update(_phase_layers(rec, runner, algo, engine, tracer.events, tracer_t0,
                                workers or 1))
    return {
        "layers": layers,
        "layer_sum_s": sum(rec.duration(s["id"]) for s in rec.children(root)),
        "wall_s": rec.duration(root),
        "sim": sim_counts(metrics),
        "digest": digest_result(result),
        "result": result,
    }


def _span_layers(rec, root: int) -> dict[str, float]:
    """Per-layer seconds of the harness spans directly under ``root``."""
    return {f"{s['name']}_s": s["end"] - s["start"] for s in rec.children(root)}


def _phase_layers(rec, runner: int, algo: str, engine: str, events: list[dict],
                  tracer_t0: float, workers: int) -> dict[str, float]:
    """Read the Tracer's phase events as child spans of the runner span."""
    layers: dict[str, float] = {}

    def bump(name: str, value: float) -> None:
        layers[name] = layers.get(name, 0.0) + value

    covered = driver = map_wall = worker_kernel = 0.0
    phases = 0
    for event in events:
        if event.get("event") != "phase":
            continue
        phases += 1
        wall = float(event["wall_s"])
        # ``at`` is stamped when the phase ends, on the tracer's clock.
        end = tracer_t0 + float(event["at"])
        rec.add(f"phase.{event['op']}", end - wall, end, runner, label=event.get("label", ""),
                driver_s=event.get("driver_s", 0.0), segments=event.get("segments", {}))
        covered += wall
        driver += float(event.get("driver_s", 0.0))
        op = event["op"]
        if op == "resident":
            where = "kmachine.parallel" if engine == "process" else "kmachine.engine"
            bump(f"{where}.resident_s", wall)
        else:
            bump(_ENGINE_OPS[op], wall)
        for segment, seconds in event.get("segments", {}).items():
            if segment in _ENGINE_SEGMENTS:
                bump(_ENGINE_SEGMENTS[segment], float(seconds))
        if op == "map_machines" and engine == "process":
            map_wall += wall
            worker_kernel += float(event.get("segments", {}).get("kernel_s", 0.0))
    runner_s = rec.duration(runner)
    layers["kmachine.engine.phases"] = phases
    layers[f"core.{algo}.driver_s"] = driver
    # In-runner work the trace does not attribute: the family's local finalize.
    layers[f"core.{algo}.uncovered_s"] = runner_s - covered - driver
    layers["obs.trace_events"] = len(events)
    layers["_covered_s"] = covered + driver
    layers["_runner_s"] = runner_s
    if map_wall > 0:
        # The slowest worker sets the phase: 1.0 means perfectly even kernels.
        layers["kmachine.parallel.kernel_balance"] = worker_kernel / (workers * map_wall)
    return layers
