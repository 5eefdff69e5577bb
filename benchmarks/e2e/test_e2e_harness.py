"""Tier-1 tests of the end-to-end benchmark harness itself.

They drive the same functions ``bench.py`` drives, over a tiny workload
table, mostly in-process (one test goes through real child interpreters).
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

E2E_DIR = Path(__file__).resolve().parent
if str(E2E_DIR) not in sys.path:
    sys.path.insert(0, str(E2E_DIR))

import bench  # noqa: E402
import compare  # noqa: E402
from e2elib import child, spans, table  # noqa: E402

SMALL = {"min_passes": 2, "min_pairs": 1, "setup_repeats": 1}
TINY = {
    "pagerank-vector": {"kind": "run", "ops": ["pagerank"], "n": 300, "avg_deg": 8, "k": 4,
                        "engine": "vector", **SMALL},
    "triangles-process": {"kind": "run", "ops": ["triangles"], "n": 300, "avg_deg": 8, "k": 8,
                          "engine": "process", **SMALL},
    "boruvka-account": {"kind": "run", "ops": ["mst", "connectivity"], "n": 400, "avg_deg": 8,
                        "k": 4, "engine": "vector", **SMALL},
    "serve-mix": {"kind": "serve", "n": 300, "avg_deg": 6, "k": 4, "engine": "vector",
                  "datasets": 3, "hot_datasets": 2, "requests_per_pass": 40, "miss_share": 0.1,
                  **SMALL, "min_passes": 1},
}
DECLARED = table.load_declarations()


@pytest.fixture
def inprocess(monkeypatch):
    """A ``spawn`` that calls the child mode here, with the children's environment."""
    def spawn(mode: str, cfg: dict) -> dict:
        for key, value in bench.child_env(Path(cfg["workdir"])).items():
            if key.startswith("REPRO_") or key == "PYTHONPATH":
                monkeypatch.setenv(key, value)
        return json.loads(json.dumps(child.MODES[mode](cfg)))

    return spawn


def test_declared_workloads_match_the_table():
    assert DECLARED["workloads"] == list(table.WORKLOADS) == list(TINY)


@pytest.mark.parametrize("name", list(TINY))
def test_workload_emits_exactly_the_declared_metrics(name, inprocess, tmp_path):
    records = {}
    for trace in (0, 1):
        records[trace] = bench.run_workload(
            name, TINY[name], seed=3, seconds=0.0, trace=trace, declared=DECLARED,
            spawn=inprocess, work_root=tmp_path / "work", trace_dir=tmp_path)
        # At n = 300 a pass is ~50 ms: one scheduling hiccup between two spans is 5% of it.
        assert [r for r in records[trace]["reasons"] if "residual" not in r] == []
        assert records[trace]["attempted"] > records[trace]["failed"]
    assert set(records[0]["metrics"]) == set(DECLARED["end_to_end"])
    assert all(cell["value"] > 0 for cell in records[0]["metrics"].values())
    layers = records[1]["metrics"]
    assert set(layers) == set(DECLARED["per_layer"])
    assert records[0]["identity"] == records[1]["identity"]

    def busy(prefix: str) -> bool:
        return any(cell["value"] != 0 for metric, cell in layers.items()
                   if metric.startswith(prefix))

    assert busy("serve.") == (name == "serve-mix")
    assert busy("kmachine.parallel.") == (name == "triangles-process")
    assert layers["sim.rounds"]["value"] > 0

    recorded = [json.loads(line) for line in (tmp_path / f"trace-{name}.jsonl").read_text()
                .splitlines()]
    assert recorded and {"name", "start", "end", "parent", "run_id"} <= set(recorded[0])
    if name == "serve-mix":
        own = spans.self_times(recorded)
    else:
        # Span ids restart with each staged pass's recorder.
        own = {}
        for run_id in {s["run_id"] for s in recorded}:
            own.update({(run_id, k): v for k, v in spans.self_times(
                [s for s in recorded if s["run_id"] == run_id]).items()})
        assert 0 <= layers["runtime.budget_residual_frac"]["value"] <= 1
    assert min(own.values()) >= -1e-6


def test_setup_and_passes_through_real_child_interpreters(tmp_path):
    record = bench.run_workload(
        "pagerank-vector", TINY["pagerank-vector"], seed=3, seconds=0.0, trace=0,
        declared=DECLARED, work_root=tmp_path / "work")
    assert record["correct"], record["reasons"]
    assert len(record["samples"]["wall_s"]) == 2 and len(record["samples"]["setup_s"]) == 1
    # A fresh interpreter pays the import: set-up cannot be faster than a warm pass here.
    assert record["metrics"]["setup_s"]["value"] > record["metrics"]["wall_s"]["value"]
    assert not (tmp_path / "work").exists() or not any((tmp_path / "work").iterdir())


def test_raising_op_lands_in_failed_and_the_run_continues(inprocess, tmp_path):
    wl = {**TINY["pagerank-vector"], "ops": ["pagerank", "no-such-family"]}
    record = bench.run_workload("pagerank-vector", wl, seed=3, seconds=0.0, trace=0,
                                declared=DECLARED, spawn=inprocess, work_root=tmp_path)
    passes = len(record["samples"]["wall_s"])
    assert passes >= 2 and record["failed"] == passes and not record["correct"]
    assert record["attempted"] > record["failed"]
    assert record["identity"]["pagerank"]["digest"]
    assert record["identity"]["no-such-family"] == {"sim": None, "digest": None}


def test_run_seed_is_redrawn_until_a_pass_has_the_nominal_messages(inprocess, tmp_path):
    def run(wl: dict, where: str) -> dict:
        return bench.run_workload("boruvka-account", wl, seed=3, seconds=0.0, trace=0,
                                  declared=DECLARED, spawn=inprocess, work_root=tmp_path / where)

    wl = TINY["boruvka-account"]
    plain = run(wl, "plain")
    messages = sum(op["sim"]["messages"] for op in plain["identity"].values())
    assert plain["run_seed"] == 3
    assert run({**wl, "nominal_messages": messages}, "nominal")["run_seed"] == 3
    # Out of reach: the last draw is used, and the checks follow it (MST weights too).
    last = run({**wl, "nominal_messages": 10 * messages}, "never")
    assert last["run_seed"] == 3 + (table.MAX_DRAWS - 1) * table.DRAW_STRIDE
    assert last["correct"], last["reasons"]
    assert last["identity"] != plain["identity"]


def test_budget_check_fires_on_doctored_spans():
    rec = spans.SpanRecorder("t")
    root = rec.add("op", 0.0, 10.0, None)
    rec.add("load", 0.0, 1.0, root)
    runner = rec.add("runner", 1.0, 9.9, root)
    rec.add("phase", 2.0, 5.0, runner)
    layer_sum = sum(rec.duration(s["id"]) for s in rec.children(root))
    assert spans.budget_residual(layer_sum, 10.0) == pytest.approx(0.01)
    assert spans.self_times(rec.spans)[runner] == pytest.approx(5.9)
    with pytest.raises(spans.BudgetError, match="residual"):
        spans.budget_residual(layer_sum - rec.duration(runner), 10.0)  # a layer went missing
    rec.spans[-1]["parent"] = 99
    with pytest.raises(spans.BudgetError, match="unknown parent"):
        spans.self_times(rec.spans)


def test_finalize_metrics_rejects_undeclared_and_unmeasured_names():
    declared = {"wall_s": {"unit": "s"}, "setup_s": {"unit": "s"}}
    with pytest.raises(KeyError, match="not declared"):
        table.finalize_metrics({"wall_s": 1.0, "setup_s": 1.0, "extra": 1.0}, declared, False)
    with pytest.raises(KeyError, match="not measured"):
        table.finalize_metrics({"wall_s": 1.0}, declared, fill_missing=False)
    filled = table.finalize_metrics({"wall_s": 1.0}, declared, fill_missing=True)
    assert filled["setup_s"] == {"value": 0.0, "unit": "s"}


def _suite(wall: list[float], failed: int = 0, digest: str = "d") -> dict:
    record = {
        "samples": {"wall_s": wall}, "identity": {"op": {"sim": {"rounds": 5}, "digest": digest}},
        "failed": failed, "attempted": 10,
        "metrics": {m: {"value": 1.0} for m in DECLARED["end_to_end"]},
    }
    record["metrics"]["wall_s"] = {"value": min(wall)}
    return {"workloads": {"w": {"trace0": record, "trace1": record}}}


def test_compare_classifies_ok_regressed_unresolved():
    steady = [1.00, 1.01, 0.99, 1.00, 1.02]

    def verdicts(a, b):
        rows, problems = compare.compare(a, b, DECLARED)
        return {metric: verdict for _, metric, *_, verdict in rows}, problems

    got, problems = verdicts(_suite(steady), _suite([x * 1.05 for x in steady]))
    assert got["wall_s"] == "ok" and problems == []
    got, problems = verdicts(_suite(steady), _suite([x * 1.30 for x in steady]))
    assert got["wall_s"] == "regressed" and any("regressed" in p for p in problems)
    noisy = [1.0, 1.4, 0.7, 1.2, 0.9]
    got, problems = verdicts(_suite(steady), _suite(noisy))
    assert got["wall_s"] == "unresolved" and problems == []
    got, _ = verdicts(_suite(noisy), _suite([0.5, 0.6, 0.4, 0.55, 0.45]))
    assert got["wall_s"] == "ok"  # every B sample beats every A sample
    _, problems = verdicts(_suite(steady), _suite(steady, failed=1))
    assert any("fail ratio rose" in p for p in problems)
    _, problems = verdicts(_suite(steady), _suite(steady, digest="moved"))
    assert any("counts or digests differ" in p for p in problems)


def test_empty_checkout_exits_nonzero_without_a_result(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(bench, "SRC_DIR", tmp_path / "src")
    assert bench.main(["--workload", "serve-mix", "--seed", "1", "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""
    assert os.listdir(tmp_path) == []
