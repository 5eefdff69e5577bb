"""The paper-table runner (``benchmarks/paper_tables.py``) at its small sizes.

Every experiment runs its own function at its small parameter set, so an
API drift in any code path the full table takes fails here, in tier-1.
The guards keep that script the only paper-table runner: one experiment
per artifact, a failed check fails the run by name, and no private
stopwatch or pytest-benchmark timer comes back under ``benchmarks/``.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmarks"

_spec = importlib.util.spec_from_file_location("paper_tables", BENCH_DIR / "paper_tables.py")
paper_tables = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paper_tables)

ARTIFACTS = [
    "T2_pagerank_lowerbound", "T3_triangle_lowerbound", "T4_pagerank_rounds",
    "T5_triangle_rounds", "F1_lemma4_separation", "L12_L14_load_balance", "L13_routing",
    "C1_congested_clique", "C2_message_complexity", "X1_subgraphs", "X2_mst",
    "S_sorting", "FN3_rep_conversion",
]

#: Exactness and sandwich checks that must gate at the small size too.
SMALL_SIZE_GATES = {
    "T2_pagerank_lowerbound": {"measured>=envelope"},
    "T3_triangle_lowerbound": {"measured>=envelope", "prop2_edges<threshold"},
    "T5_triangle_rounds": {"counts_agree"},
    "F1_lemma4_separation": {"analytic_matches_reference"},
    "X1_subgraphs": {"counts_exact"},
    "X2_mst": {"weight_matches_kruskal"},
    "S_sorting": {"globally_sorted"},
}


def test_one_experiment_per_artifact():
    assert list(paper_tables.EXPERIMENTS) == ARTIFACTS


@pytest.mark.parametrize("name", ARTIFACTS)
def test_small_run(name):
    fn, small = paper_tables.EXPERIMENTS[name]
    report = fn(**small)
    assert report.tables and all(table["rows"] for table in report.tables)
    gated = {c["name"] for c in report.checks if not c["shape"]}
    assert SMALL_SIZE_GATES.get(name, set()) <= gated
    failed = [c["name"] for c in report.checks if not c["ok"] and not c["shape"]]
    assert not failed, failed


def test_a_failed_check_fails_main_by_name(monkeypatch, tmp_path, capsys):
    # T2's small run passes every check, shape checks included.
    name = "T2_pagerank_lowerbound"
    fn, small = paper_tables.EXPERIMENTS[name]
    monkeypatch.setattr(paper_tables, "RESULTS_DIR", tmp_path)
    monkeypatch.setitem(paper_tables.EXPERIMENTS, name, (functools.partial(fn, **small), small))
    assert paper_tables.main([name]) == 0
    assert (tmp_path / "paper_tables.json").exists() and (tmp_path / "paper_tables.md").exists()

    monkeypatch.setattr(paper_tables, "pagerank_round_lower_bound", lambda n, k, B: 1e9)
    assert paper_tables.main([name]) == 1
    assert f"{name}.measured>=envelope" in capsys.readouterr().err
    assert "**FAIL**" in (tmp_path / "paper_tables.md").read_text()


def test_unknown_id_is_refused_before_anything_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(paper_tables, "RESULTS_DIR", tmp_path)
    assert paper_tables.main(["T9_nope"]) == 2
    assert "T9_nope" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_committed_table_covers_every_experiment_and_passes():
    results = BENCH_DIR / "results"
    doc = json.loads((results / "paper_tables.json").read_text(encoding="utf-8"))
    assert list(doc) == ARTIFACTS
    failed = [f"{name}.{c['name']}" for name, entry in doc.items()
              for c in entry["checks"] if not c["ok"]]
    assert not failed, failed
    rendered = (results / "paper_tables.md").read_text(encoding="utf-8")
    assert all(f"## {name}\n" in rendered for name in ARTIFACTS)


def test_no_private_stopwatch_under_benchmarks():
    pattern = re.compile(r"pytest_benchmark|perf_counter")
    offenders = [
        str(path.relative_to(ROOT)) for path in BENCH_DIR.rglob("*.py")
        if "e2e" not in path.relative_to(BENCH_DIR).parts
        and pattern.search(path.read_text(encoding="utf-8"))
    ]
    assert not offenders, offenders
