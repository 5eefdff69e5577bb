"""Tracer unit tests: no-op contract, event schema, JSONL round-trip."""

import json

import numpy as np
import pytest

import repro
from repro import runtime
from repro.kmachine import Cluster
from repro.obs.trace import (
    NULL_TRACER,
    TRACE_ENV,
    TRACE_SCHEMA_VERSION,
    NullTracer,
    TraceError,
    Tracer,
    read_trace,
    resolve_tracer,
)


@pytest.fixture
def graph():
    return repro.gnp_random_graph(120, 8 / 120, seed=5)


class TestNullTracer:
    def test_disabled_and_stateless(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.top_links == 0
        # The no-op path must stay allocation-free: no instance dict,
        # no per-call state.
        assert NullTracer.__slots__ == ()
        assert NULL_TRACER.emit({"event": "phase"}) is None
        assert NULL_TRACER.phase("exchange", "x", 0.1, segments={}) is None
        assert NULL_TRACER.close() is None

    def test_engines_default_to_the_shared_singleton(self):
        for engine in ("message", "vector"):
            with Cluster(k=4, n=1000, engine=engine) as cluster:
                assert cluster.engine.tracer is NULL_TRACER

    def test_untraced_run_attaches_no_tracer(self, graph):
        rep = runtime.run("pagerank", graph, 4, seed=1, engine="vector")
        assert rep.tracer is None


class TestTracerEvents:
    def test_in_memory_events_with_header(self):
        tracer = Tracer()
        assert tracer.enabled is True
        assert tracer.events[0]["event"] == "trace_start"
        assert tracer.events[0]["schema"] == TRACE_SCHEMA_VERSION

    def test_seq_monotonic_and_at_nondecreasing(self):
        tracer = Tracer()
        for i in range(5):
            tracer.emit({"event": "phase", "op": "exchange", "label": str(i)})
        stamped = tracer.events[1:]
        seqs = [e["seq"] for e in stamped]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        ats = [e["at"] for e in stamped]
        assert ats == sorted(ats)

    def test_phase_event_carries_stats(self):
        from repro.kmachine.metrics import PhaseStats

        tracer = Tracer()
        stats = PhaseStats(rounds=3, messages=7, bits=24, max_link_bits=24,
                           max_machine_sent=7, max_machine_received=7,
                           label="tokens")
        tracer.phase("exchange_batches", "tokens", 0.25,
                     segments={"pack_s": 0.1}, stats=stats,
                     top_links=[[0, 1, 24]])
        event = tracer.events[-1]
        assert event["rounds"] == 3 and event["bits"] == 24
        assert event["segments"] == {"pack_s": 0.1}
        assert event["top_links"] == [[0, 1, 24]]

    def test_driver_gap_attributed_to_phases(self):
        import time

        tracer = Tracer()
        # No mark yet: nothing to attribute (setup must never be charged).
        tracer.phase("account_phase", "pre", 0.0)
        assert tracer.events[-1]["driver_s"] == 0.0
        tracer.mark()
        time.sleep(0.02)
        tracer.phase("account_phase", "a", 0.0)
        assert tracer.events[-1]["driver_s"] >= 0.015
        # The mark advances with each phase: back-to-back phases don't
        # re-charge the same gap.
        tracer.phase("account_phase", "b", 0.0)
        assert tracer.events[-1]["driver_s"] < 0.015
        # run_end resets the mark so a shared tracer never charges
        # inter-run gaps to the next run's first phase.
        tracer.run_end(algo="x", cached=False, wall_s=0.0, setup_s=None)
        time.sleep(0.02)
        tracer.phase("account_phase", "c", 0.0)
        assert tracer.events[-1]["driver_s"] == 0.0

    def test_concurrent_emitters_keep_seq_order_and_sane_gaps(self, tmp_path):
        import threading

        path = tmp_path / "t.jsonl"
        with Tracer(path, keep_events=True) as tracer:
            tracer.mark()

            def emitter(label):
                for i in range(50):
                    tracer.phase("exchange", f"{label}/{i}", 0.0)

            threads = [threading.Thread(target=emitter, args=(t,))
                       for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        # seq/at stamped under the same lock as the write: the JSONL is
        # in seq order with at nondecreasing, and every driver_s is a
        # non-negative gap (no racing reads of the shared mark).
        lines = [json.loads(line) for line in
                 path.read_text().strip().splitlines()]
        stamped = lines[1:]
        assert [e["seq"] for e in stamped] == list(range(1, 201))
        ats = [e["at"] for e in stamped]
        assert ats == sorted(ats)
        assert all(e["driver_s"] >= 0.0 for e in stamped)
        assert lines == tracer.events

    def test_file_tracer_writes_jsonl_and_close_is_idempotent(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Tracer(path) as tracer:
            tracer.emit({"event": "run_start", "algo": "x"})
        tracer.close()
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["event"] == "trace_start"


class TestResolveTracer:
    def test_none_without_env_is_disabled(self, monkeypatch):
        monkeypatch.delenv(TRACE_ENV, raising=False)
        tracer, owned = resolve_tracer(None)
        assert tracer is NULL_TRACER and owned is False

    def test_none_with_env_opens_the_env_path(self, tmp_path, monkeypatch):
        path = tmp_path / "env.jsonl"
        monkeypatch.setenv(TRACE_ENV, str(path))
        tracer, owned = resolve_tracer(None)
        try:
            assert owned is True and tracer.path == path
        finally:
            tracer.close()

    def test_bool_and_instance_semantics(self):
        tracer, owned = resolve_tracer(True)
        assert tracer.enabled and owned is True
        tracer2, owned2 = resolve_tracer(tracer)
        assert tracer2 is tracer and owned2 is False
        null, owned3 = resolve_tracer(False)
        assert null is NULL_TRACER and owned3 is False


# Each family on its own input: pagerank on a sparse G(n, p), the baseline
# on a star (one hot receiver), sorting on values rather than a graph.
TRACED_INPUTS = {
    "pagerank": lambda: repro.gnp_random_graph(120, 8 / 120, seed=5),
    "pagerank-baseline": lambda: repro.star_graph(120),
    "sorting": lambda: np.random.default_rng(5).random(3000),
}


class TestTracedRuns:
    @pytest.mark.parametrize("algo", sorted(TRACED_INPUTS))
    @pytest.mark.parametrize("engine", ["message", "vector"])
    def test_round_trip_schema(self, tmp_path, engine, algo):
        # Every phase is charged through one of the engine's primitives.
        path = tmp_path / "run.jsonl"
        rep = runtime.run(algo, TRACED_INPUTS[algo](), 4, seed=1, engine=engine,
                          trace=path)
        assert rep.wall_seconds is not None and rep.wall_seconds > 0
        events = read_trace(path)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "trace_start"
        assert "run_start" in kinds and "run_end" in kinds
        phases = [e for e in events if e["event"] == "phase"]
        assert phases, "traced run emitted no phase events"
        for event in phases:
            assert event["wall_s"] >= 0
            assert event["op"] in ("exchange_batches", "account_phase",
                                   "map_machines", "resident")
        end = next(e for e in events if e["event"] == "run_end")
        assert end["cached"] is False
        assert end["rounds"] == rep.rounds

    def test_phase_wall_covers_run_window(self, graph, tmp_path):
        from repro.obs import summarize_trace

        path = tmp_path / "cov.jsonl"
        runtime.run("pagerank", graph, 4, seed=1, engine="vector", trace=path)
        summary = summarize_trace(read_trace(path))
        # Acceptance at 1e6 scale asks for >= 90%; tiny runs are noisier
        # but the segments must still account for most of the window.
        assert summary["coverage"] is not None
        assert summary["coverage"] > 0.5

    def test_driver_attribution_covers_accounting_drivers(self, tmp_path):
        from repro.obs import summarize_trace

        # Connectivity's driver only *accounts* traffic (account_phase),
        # so without driver_s attribution its trace would carry ~no time.
        # Larger than the shared fixture so the superstep stream outweighs
        # timing noise and the model-free finalize tail.
        graph = repro.gnp_random_graph(3000, 8 / 3000, seed=5)
        path = tmp_path / "conn.jsonl"
        runtime.run("connectivity", graph, 4, seed=1, engine="vector",
                    trace=path)
        summary = summarize_trace(read_trace(path))
        assert summary["coverage"] is not None
        assert summary["coverage"] > 0.3
        assert sum(g["driver_s"] for g in summary["groups"]) > 0

    def test_process_engine_segments(self, graph, tmp_path):
        path = tmp_path / "proc.jsonl"
        runtime.run("pagerank", graph, 4, seed=1, engine="process", workers=2,
                    trace=path)
        events = read_trace(path)
        maps = [e for e in events
                if e["event"] == "phase" and e["op"] == "map_machines"
                and "ship_s" in (e.get("segments") or {})]
        assert maps, "process engine emitted no shipped map_machines phases"
        for event in maps:
            # assemble_s appears only on group-assembled supersteps.
            assert set(event["segments"]) - {"assemble_s"} == {
                "ship_s", "kernel_s", "pool_wait_s", "unpack_s"}
            assert all(v >= 0 for v in event["segments"].values())
        assert any("assemble_s" in e["segments"] for e in maps), (
            "pagerank emitted no worker-assembled supersteps")

    def test_shared_tracer_spans_multiple_runs(self, graph):
        tracer = Tracer()
        for k in (3, 4):
            runtime.run("pagerank", graph, k, seed=1, engine="vector",
                        trace=tracer)
        starts = [e for e in tracer.events if e["event"] == "run_start"]
        ends = [e for e in tracer.events if e["event"] == "run_end"]
        assert len(starts) == 2 and len(ends) == 2


class TestReadTraceValidation:
    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"event":"phase"}\n')
        with pytest.raises(TraceError, match="trace_start"):
            read_trace(path)

    def test_future_schema_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps(
            {"event": "trace_start", "schema": TRACE_SCHEMA_VERSION + 1}
        ) + "\n")
        with pytest.raises(TraceError, match="schema"):
            read_trace(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"event":"trace_start","schema":1}\nnot json\n')
        with pytest.raises(TraceError, match="not valid JSON"):
            read_trace(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError, match="cannot read"):
            read_trace(tmp_path / "nope.jsonl")
