"""The ``serve-mix`` workload: a daemon subprocess under a hit/miss script.

``python -m repro serve`` runs with a fresh result db; the harness
populates the hot keys, then one closed-loop ``ServeClient`` (it sends its
next request when the previous reply arrives) drains a seeded script per
pass: ~92% result-cache hits on the hot keys and ~8%
misses with fresh run seeds, spread over more datasets than the
Session's dataset LRU holds.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

from e2elib.child import peak_rss_mb, timed_loop
from e2elib.spans import SpanRecorder, write_jsonl

__all__ = ["make_script", "serve"]

REQUEST_TIMEOUT_S = 120.0


def hot_keys(cfg: dict) -> list[dict]:
    """connectivity + mst on the hot datasets, triangles on the first."""
    hot = cfg["datasets"][: cfg["hot_datasets"]]
    keys = [{"algo": algo, "dataset": ds, "seed": cfg["seed"]}
            for ds in hot for algo in ("connectivity", "mst")]
    keys.append({"algo": "triangles", "dataset": hot[0], "seed": cfg["seed"]})
    return keys


def make_script(cfg: dict, pass_index: int) -> list[dict]:
    """The seeded request script of one pass; ``cached`` is the expected flag.

    The composition is the same in every pass and for every seed — hits
    spread evenly over the hot keys, misses alternating connectivity and
    mst and cycling through the datasets — and the seed only orders it, so
    that a pass is the same amount of work whatever the seed.
    """
    total = cfg["requests_per_pass"]
    misses = max(2, 2 * round(total * cfg["miss_share"] / 2))
    hot, datasets = hot_keys(cfg), cfg["datasets"]
    script = [{**hot[j % len(hot)], "cached": True} for j in range(total - misses)]
    for j in range(misses):
        # Run seeds above the hot seed and unique across passes: always a miss.
        script.append({
            "algo": ("connectivity", "mst")[j % 2],
            "dataset": datasets[(j // 2 + pass_index) % len(datasets)],
            "seed": cfg["seed"] + 1 + pass_index * total + j, "cached": False,
        })
    random.Random(f"{cfg['seed']}/{pass_index}").shuffle(script)
    return script


class Daemon:
    """``python -m repro serve`` on a free port with its own result db."""

    def __init__(self, workdir: Path, tag: str) -> None:
        from repro.serve import ServeClient

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        self.port = port
        self.db = workdir / f"results-{tag}.sqlite"
        self._log = open(workdir / f"daemon-{tag}.log", "w")
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", str(port)],
            env={**os.environ, "REPRO_RESULT_DB": str(self.db)},
            stdout=subprocess.DEVNULL, stderr=self._log,
        )
        self.client = ServeClient(port=port, timeout=REQUEST_TIMEOUT_S)

    def stop(self) -> None:
        from repro.errors import ServeError

        try:
            self.client.shutdown()
        except ServeError:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._log.close()


def send(client, cfg: dict, request: dict) -> dict:
    """One request, timed from the client; never raises."""
    from repro.errors import ServeError

    start = time.perf_counter()
    try:
        reply = client.run(request["algo"], dataset=request["dataset"], k=cfg["k"],
                           seed=request["seed"], engine=cfg["engine"])
        error = None
    except ServeError as exc:
        reply, error = None, str(exc)
    end = time.perf_counter()
    if error is None and reply["cached"] is not request["cached"]:
        error = f"cached={reply['cached']}, script says {request['cached']}"
    return {"request": request, "reply": reply, "error": error, "start": start, "end": end}


def start_and_populate(cfg: dict, workdir: Path, tag: str) -> tuple[Daemon, dict]:
    """Daemon spawn -> ``/health`` ok -> hot keys populated, timed."""
    daemon = Daemon(workdir, tag)
    try:
        daemon.client.wait_until_ready(deadline=60.0, interval=0.01)
    except BaseException:
        daemon.stop()
        raise
    healthy = time.perf_counter()
    populated = [send(daemon.client, cfg, {**key, "cached": False}) for key in hot_keys(cfg)]
    done = time.perf_counter()
    errors = [o["error"] for o in populated if o["error"]]
    return daemon, {
        "setup_s": done - daemon.spawned, "start_s": healthy - daemon.spawned,
        "spawned": daemon.spawned, "healthy": healthy, "done": done,
        "errors": errors, "populated": populated,
    }


def drain(cfg: dict, port: int, script: list[dict]) -> dict:
    """Closed loop, one client: the next request goes out when the last one returned."""
    from repro.serve import ServeClient

    client = ServeClient(port=port, timeout=REQUEST_TIMEOUT_S)
    start = time.perf_counter()
    outcomes = [send(client, cfg, request) for request in script]
    end = time.perf_counter()
    executed = [o["reply"] for o in outcomes if o["reply"] and not o["reply"]["cached"]]
    return {
        "start": start, "end": end, "wall_s": end - start, "outcomes": outcomes,
        "rounds": sum(r["rounds"] for r in executed),
        "messages": sum(r["messages"] for r in executed),
        "run_s": sum(r["wall_seconds"] for r in executed),
    }


def drop_new_snapshots(keep: set[str]) -> None:
    """Delete what the data directory gained since ``keep`` was listed.

    Every miss stores a shard snapshot and the store then walks the whole
    directory, so a pass would cost more than the pass before it (1.63 s
    -> 2.04 s over ten passes in scratch) and the fastest pass would always
    be the first one.  Called between passes, off the clock: every pass
    starts beside the populated directory and ends beside 20 more snapshots.
    """
    from repro import workloads

    graphs = workloads.default_cache().graphs_dir
    for name in set(os.listdir(graphs)) - keep:
        (graphs / name).unlink(missing_ok=True)


def _latencies_ms(passes: list[dict], cached: bool) -> list[float]:
    return [(o["end"] - o["start"]) * 1e3 for p in passes for o in p["outcomes"]
            if o["reply"] and o["reply"]["cached"] is cached]


def _summary_checks(cfg: dict, passes: list[dict]) -> tuple[int, list[str]]:
    """Check one reply per distinct key against the references; hits must agree."""
    from repro import workloads

    from e2elib.checks import check_summary

    seen: dict[tuple, dict] = {}
    reasons = []
    for outcome in (o for p in passes for o in p["outcomes"] if o["reply"]):
        request = outcome["request"]
        key = (request["algo"], request["dataset"], request["seed"])
        summary = dict(outcome["reply"].get("summary", []))
        if key in seen and seen[key] != summary:
            reasons.append(f"{key}: replies for one key disagree")
        seen.setdefault(key, summary)
    graphs: dict[str, object] = {}
    checked = set()
    for (algo, dataset, seed), summary in seen.items():
        is_hot = seed == cfg["seed"]  # miss seeds are all above it
        # Misses of one (algo, dataset) differ only in MST weights: check one.
        group = (algo, dataset, is_hot)
        if group in checked:
            continue
        checked.add(group)
        if dataset not in graphs:
            graphs[dataset] = workloads.materialize(dataset)
        reason = check_summary(algo, graphs[dataset], summary, seed, exact_weight=is_hot)
        if reason is not None:
            reasons.append(f"{algo} on {dataset}: {reason}")
    return len(checked) + 1, reasons


def _first_pass_identity(pass_: dict) -> tuple[dict, str]:
    """Simulated counts and a digest of the first timed pass (fixed by the seed)."""
    replies = sorted(
        ((o["request"]["algo"], o["request"]["dataset"], o["request"]["seed"], o["reply"])
         for o in pass_["outcomes"] if o["reply"]),
        key=lambda row: row[:3],
    )
    executed = [reply for *_, reply in replies if not reply["cached"]]
    sim = {key: sum(r[key] for r in executed) for key in ("rounds", "phases", "messages", "bits")}
    sim["max_link_bits"] = max(
        (r["bound"]["measured_max_link_bits"] for r in executed if r.get("bound")), default=0)
    material = [[a, d, s, r["rounds"], r["bits"], r.get("summary")] for a, d, s, r in replies]
    return sim, hashlib.sha256(json.dumps(material, sort_keys=True).encode()).hexdigest()


def _probes(cfg: dict, db: Path) -> dict[str, float]:
    """Direct calls on the db and the data directory as the daemon left them."""
    from repro import workloads
    from repro.runtime import Session
    from repro.serve import ResultStore

    from e2elib.ops import distgraph_s

    # What a miss pays before it runs: the dataset load when the Session's LRU
    # evicted it, then shards for a placement nothing has seen.
    t0 = time.perf_counter()
    data = workloads.materialize(cfg["datasets"][-1])
    out = {"workloads.load_s": time.perf_counter() - t0,
           "kmachine.distgraph.build_s": distgraph_s("connectivity", data, cfg["k"],
                                                     cfg["seed"] + 1_000_003)}
    with ResultStore(db) as store:
        keys = [row["key"] for row in store.rows()][:64]
        out["serve.results.row_kb"] = os.path.getsize(db) / max(1, len(store)) / 1024.0
        gets, puts, got = [], [], []
        for key in keys:
            t0 = time.perf_counter()
            got.append(store.get(key))
            gets.append((time.perf_counter() - t0) * 1e3)
        for key, (result, metrics, meta) in zip(keys, got):
            t0 = time.perf_counter()
            store.put(f"probe-{key}", content_key=meta["content_key"], algo=meta["algo"],
                      params_json=meta["params"], seed=meta["seed"], engine=meta["engine"],
                      n=meta["n"], k=meta["k"], result=result, metrics=metrics)
            puts.append((time.perf_counter() - t0) * 1e3)
        out["serve.results.get_ms"] = statistics.median(gets)
        out["serve.results.put_ms"] = statistics.median(puts)
        hits, hot = [], hot_keys(cfg)
        with Session(result_cache=store) as session:
            for i in range(64):
                key = hot[i % len(hot)]
                t0 = time.perf_counter()
                report = session.run(key["algo"], dataset=key["dataset"], k=cfg["k"],
                                     seed=key["seed"], engine=cfg["engine"])
                hits.append((time.perf_counter() - t0) * 1e3)
                if not report.cached:
                    raise RuntimeError(f"in-process Session missed hot key {key}")
        out["serve.session.hit_ms"] = statistics.median(hits)
    return out


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _record_spans(rec: SpanRecorder, setup: dict, passes: list[dict]) -> None:
    root = rec.add("serve-mix", setup["spawned"], passes[-1]["end"], None)
    rec.add("serve.daemon.start", setup["spawned"], setup["healthy"], root)
    populate = rec.add("serve.populate", setup["healthy"], setup["done"], root)
    groups = [(populate, setup["populated"])]
    groups += [(rec.add(f"serve.pass.{i}", p["start"], p["end"], root), p["outcomes"])
               for i, p in enumerate(passes)]
    for parent, outcomes in groups:
        for o in outcomes:
            request = rec.add("serve.request", o["start"], o["end"], parent,
                              algo=o["request"]["algo"], cached=o["request"]["cached"])
            if o["reply"] is None:
                continue
            # The reply says how long the daemon held the request, not when:
            # centre it in the client-observed interval.
            slack = max(0.0, (o["end"] - o["start"]) - o["reply"]["elapsed_s"]) / 2
            handled = rec.add("serve.daemon.handle", o["start"] + slack, o["end"] - slack, request)
            if not o["reply"]["cached"]:
                run_s = min(o["reply"]["wall_seconds"], o["reply"]["elapsed_s"])
                rec.add("runtime.run", o["end"] - slack - run_s, o["end"] - slack, handled)


def serve(cfg: dict) -> dict:
    """Set-up repeats, warm-up pass, timed passes, checks (and probes when tracing)."""
    from repro import workloads

    workdir = Path(cfg["workdir"])
    setups = []
    daemon = None
    for repeat in range(cfg["setup_repeats"]):
        if daemon is not None:
            daemon.stop()
        daemon, setup = start_and_populate(cfg, workdir, f"{cfg['trace']}-{repeat}")
        setups.append(setup)
    populated = set(os.listdir(workloads.default_cache().graphs_dir))
    passes: list[dict] = []

    def one_pass() -> None:
        passes.append(drain(cfg, daemon.port, make_script(cfg, len(passes))))
        drop_new_snapshots(populated)

    try:
        one_pass()  # warm-up
        timed_loop(cfg["seconds"], cfg["min_passes"], one_pass)
        status = daemon.client.status()["session"]
    finally:
        daemon.stop()
    timed = passes[1:]
    rss = peak_rss_mb()

    outcomes = [o for p in timed for o in p["outcomes"]]
    reasons = [f"{o['request']['algo']}: {o['error']}" for o in outcomes if o["error"]]
    reasons += [f"populate: {e}" for s in setups for e in s["errors"]]
    checks, check_reasons = _summary_checks(cfg, timed)
    reasons += check_reasons
    if status["errors"] or status["rejected"]:
        reasons.append(f"daemon counted {status['errors']} errors, {status['rejected']} rejected")
    sim, digest = _first_pass_identity(timed[0])
    hits, misses = _latencies_ms(timed, True), _latencies_ms(timed, False)
    result = {
        "passes": [{"wall_s": p["wall_s"], "rounds": p["rounds"], "messages": p["messages"],
                    "run_s": p["run_s"],
                    "requests": len(p["outcomes"]),
                    "hit_ms": statistics.median(_latencies_ms([p], True)),
                    "miss_ms": statistics.median(_latencies_ms([p], False))} for p in timed],
        "setup_samples_s": [s["setup_s"] for s in setups],
        "peak_rss_mb": rss, "sim": sim, "digest": digest,
        "hits": len(hits), "misses": len(misses),
        "attempted": len(outcomes) + checks,
        "failed": len(reasons), "reasons": reasons,
        "layers": {
            "serve.daemon.requests_per_s": statistics.median(
                len(p["outcomes"]) / p["wall_s"] for p in timed),
            "serve.daemon.hit_p50_ms": statistics.median(hits),
            "serve.daemon.miss_p50_ms": statistics.median(misses),
            "serve.daemon.hit_p90_ms": _percentile(hits, 0.90),
            "serve.daemon.hit_p99_ms": _percentile(hits, 0.99),
            "serve.daemon.start_s": statistics.median(s["start_s"] for s in setups),
            "serve.daemon.errors": status["errors"],
            "serve.daemon.rejected": status["rejected"],
            "serve.daemon.http_ms": statistics.median(
                (o["end"] - o["start"] - o["reply"]["elapsed_s"]) * 1e3
                for o in outcomes if o["reply"] and o["reply"]["cached"]),
            "serve.daemon.reply_kb": statistics.median(
                len(json.dumps(o["reply"])) / 1024.0 for o in outcomes if o["reply"]),
            "serve.session.wait_ms": statistics.median(
                (o["reply"]["elapsed_s"] - o["reply"]["wall_seconds"]) * 1e3
                for o in outcomes if o["reply"] and not o["reply"]["cached"]),
        },
    }
    if cfg["trace"]:
        result["layers"].update(_probes(cfg, daemon.db))
        rec = SpanRecorder(run_id=cfg["workload"])
        _record_spans(rec, setups[-1], timed)
        if cfg.get("trace_path"):
            write_jsonl(cfg["trace_path"], rec.spans)
    return result
