"""Trace export tests: Chrome trace-event documents."""

import json

import pytest

import repro
from repro import runtime
from repro.obs.export import (
    default_export_path,
    export_chrome,
    validate_chrome_trace,
    write_export,
)
from repro.obs.trace import TraceError, Tracer, read_trace


@pytest.fixture
def graph():
    return repro.gnp_random_graph(120, 8 / 120, seed=5)


@pytest.fixture
def traced_events(graph, tmp_path):
    path = tmp_path / "run.jsonl"
    runtime.run("pagerank", graph, 4, seed=1, engine="vector", trace=path)
    return read_trace(path)


def synthetic_events():
    """A hand-built trace exercising every exporter branch."""
    return [
        {"event": "trace_start", "schema": 1, "unix_time": 1.0},
        {"event": "run_start", "algo": "pagerank", "engine": "vector",
         "n": 100, "m": 400, "k": 4, "bandwidth": 32, "at": 0.0},
        {"event": "phase", "op": "exchange", "label": "ranks",
         "at": 0.010, "wall_s": 0.008, "driver_s": 0.002,
         "rounds": 2, "bits": 64, "segments": {"pack_s": 0.003,
                                               "apply_s": 0.004}},
        # Segments summed across workers exceed the wall: args-only.
        {"event": "phase", "op": "map_machines", "label": "step",
         "at": 0.020, "wall_s": 0.009, "driver_s": 0.0,
         "segments": {"kernel_s": 0.030, "ship_s": 0.001}},
        {"event": "run_end", "algo": "pagerank", "cached": False,
         "rounds": 12, "phases": 2, "wall_s": 0.021, "setup_s": 0.001,
         "at": 0.021},
    ]


class TestChromeExport:
    def test_real_trace_is_schema_valid(self, traced_events):
        doc = export_chrome(traced_events)
        validate_chrome_trace(doc)  # must not raise
        names = {e["name"] for e in doc["traceEvents"]}
        assert any(name.startswith("exchange") for name in names)

    def test_round_trips_through_json(self, traced_events, tmp_path):
        out = write_export(traced_events, tmp_path / "t.json")
        doc = json.loads(out.read_text())
        validate_chrome_trace(doc)
        assert doc["otherData"]["exporter"] == "repro trace export"
        assert doc["otherData"]["trace_schema"] == traced_events[0]["schema"]

    def test_process_engine_trace_is_schema_valid(self, graph, tmp_path):
        path = tmp_path / "proc.jsonl"
        runtime.run("pagerank", graph, 4, seed=1, engine="process",
                    workers=2, trace=path)
        doc = export_chrome(read_trace(path))
        validate_chrome_trace(doc)

    def test_multi_run_trace_gets_one_track_per_run(self, graph):
        tracer = Tracer()
        for algo in ("pagerank", "triangles"):
            runtime.run(algo, graph, 4, seed=1, engine="vector",
                        trace=tracer)
        doc = export_chrome(tracer.events)
        validate_chrome_trace(doc)
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert len(meta) == 2
        assert {e["tid"] for e in meta} == {1, 2}
        track_names = [e["args"]["name"] for e in meta]
        assert any("pagerank" in name for name in track_names)
        assert any("triangles" in name for name in track_names)

    def test_synthetic_layout(self):
        doc = export_chrome(synthetic_events())
        validate_chrome_trace(doc)
        by_name = {e["name"]: e for e in doc["traceEvents"]
                   if e["ph"] == "X"}
        run = by_name["pagerank"]
        assert run["cat"] == "run"
        assert run["args"]["engine"] == "vector" and run["args"]["k"] == 4
        # driver slice sits immediately before its phase.
        driver = by_name["driver:ranks"]
        phase = by_name["exchange:ranks"]
        assert driver["ts"] + driver["dur"] == pytest.approx(phase["ts"])
        # Fitting segments become child slices laid out sequentially.
        pack, apply = by_name["pack_s"], by_name["apply_s"]
        assert pack["ts"] == pytest.approx(phase["ts"])
        assert apply["ts"] == pytest.approx(pack["ts"] + pack["dur"])
        # Oversubscribed worker segments stay in args, off the timeline.
        assert "kernel_s" not in by_name
        step = by_name["map_machines:step"]
        assert step["args"]["segments"]["kernel_s"] == 0.030

    def test_phase_before_any_run_start_lands_in_a_track(self):
        events = [
            {"event": "trace_start", "schema": 1},
            {"event": "phase", "op": "exchange", "label": "bare",
             "at": 0.005, "wall_s": 0.005, "driver_s": 0.0},
        ]
        doc = export_chrome(events)
        validate_chrome_trace(doc)
        assert any(e["name"] == "exchange:bare" for e in doc["traceEvents"])


class TestValidator:
    def test_rejects_non_object(self):
        with pytest.raises(TraceError, match="traceEvents"):
            validate_chrome_trace([])

    def test_rejects_negative_ts(self):
        doc = {"traceEvents": [
            {"name": "x", "ph": "X", "ts": -1.0, "dur": 1.0,
             "pid": 1, "tid": 1},
        ]}
        with pytest.raises(TraceError, match="non-negative"):
            validate_chrome_trace(doc)

    def test_rejects_unsupported_phase_type(self):
        doc = {"traceEvents": [
            {"name": "x", "ph": "B", "ts": 0, "dur": 0, "pid": 1, "tid": 1},
        ]}
        with pytest.raises(TraceError, match="unsupported ph"):
            validate_chrome_trace(doc)

    def test_rejects_overlapping_slices_on_one_track(self):
        doc = {"traceEvents": [
            {"name": "a", "ph": "X", "ts": 0.0, "dur": 10.0,
             "pid": 1, "tid": 1},
            {"name": "b", "ph": "X", "ts": 5.0, "dur": 10.0,
             "pid": 1, "tid": 1},
        ]}
        with pytest.raises(TraceError, match="overlaps"):
            validate_chrome_trace(doc)

    def test_accepts_nesting_and_cross_track_overlap(self):
        doc = {"traceEvents": [
            {"name": "outer", "ph": "X", "ts": 0.0, "dur": 10.0,
             "pid": 1, "tid": 1},
            {"name": "inner", "ph": "X", "ts": 2.0, "dur": 4.0,
             "pid": 1, "tid": 1},
            # Same window on another track: fine, tracks are independent.
            {"name": "other", "ph": "X", "ts": 5.0, "dur": 10.0,
             "pid": 1, "tid": 2},
        ]}
        validate_chrome_trace(doc)


class TestDispatchAndPaths:
    def test_default_export_path(self, tmp_path):
        assert default_export_path(tmp_path / "run.jsonl") == (
            tmp_path / "run.chrome.json"
        )
        assert default_export_path("t.json") == default_export_path("t")

    def test_cli_export_round_trip(self, graph, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "cli.jsonl"
        runtime.run("triangles", graph, 4, seed=1, trace=trace)
        out = tmp_path / "cli.chrome.json"
        assert main(["trace", "export", str(trace), "--out", str(out)]) == 0
        validate_chrome_trace(json.loads(out.read_text()))
        assert str(out) in capsys.readouterr().out
