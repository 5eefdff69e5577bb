"""Reachability: every module under ``src/repro`` is loaded by a product path.

A fresh interpreter runs every registered family once at a small ``n``
on the default engine plus one run on the process engine, imports the
CLI, serve and trace modules, and executes every ``repro`` import
statement of ``benchmarks/paper_tables.py``, ``examples/*.py`` and
``benchmarks/e2e/**``.  A module file that none of this loads has no
product caller: delete it, or give it one, or add it to
:data:`ALLOWLIST` with the entry point that does load it.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: Module files no in-process scan can load, each with the entry point
#: that does.
ALLOWLIST = {
    "repro/__main__.py": "`python -m repro` runs it as __main__ (repro.cli.main)",
}

#: Modules the daemon, the client and the trace verbs load.
ENTRY_MODULES = [
    "repro.cli",
    "repro.serve.daemon",
    "repro.serve.client",
    "repro.obs.export",
    "repro.obs.summarize",
    "repro.obs.alerts",
]

_SCAN = textwrap.dedent("""
    import json, sys

    import numpy as np

    import repro
    from repro import runtime
    from repro.kmachine.parallel import shutdown_worker_pools

    graph = repro.gnp_random_graph(40, 0.15, seed=1)
    values = np.random.default_rng(1).random(200)
    for name in runtime.available():
        data = values if runtime.get_spec(name).input_kind == "values" else graph
        runtime.run(name, data, 4, seed=1, engine="vector")
    try:
        runtime.run("pagerank", graph, 4, seed=1, engine="process", workers=1)
    finally:
        shutdown_worker_pools()
    for module in json.loads(sys.argv[1]):
        __import__(module)
    for statement in json.loads(sys.argv[2]):
        exec(statement, {})
    print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "repro")))
""")


def repro_imports(paths) -> list[str]:
    """Every import statement naming a ``repro`` module in ``paths``, unparsed."""
    statements = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name.split(".")[0] == "repro" for name in names):
                statements.add(ast.unparse(node))
    return sorted(statements)


def unreached(root: Path, loaded, allowlist) -> list[str]:
    """``root``-relative ``.py`` paths whose module is not in ``loaded`` nor allowlisted."""
    missing = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root.parent)
        parts = list(rel.with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        if ".".join(parts) not in loaded and rel.as_posix() not in allowlist:
            missing.append(rel.as_posix())
    return missing


def test_every_module_is_reached_by_a_product_path(tmp_path):
    callers = [
        REPO / "benchmarks" / "paper_tables.py",
        *sorted((REPO / "examples").glob("*.py")),
        *sorted((REPO / "benchmarks" / "e2e").rglob("*.py")),
    ]
    done = subprocess.run(
        [sys.executable, "-c", _SCAN, json.dumps(ENTRY_MODULES),
         json.dumps(repro_imports(callers))],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC), "REPRO_DATA_DIR": str(tmp_path)},
    )
    assert done.returncode == 0, done.stderr
    missing = unreached(SRC / "repro", set(json.loads(done.stdout)), ALLOWLIST)
    assert not missing, f"no product path loads {', '.join(missing)}"


def test_allowlist_entries_exist_and_name_their_entry_point():
    for rel, entry_point in ALLOWLIST.items():
        assert (SRC / rel).is_file(), rel
        assert entry_point.strip(), rel


def test_scan_names_an_unloaded_module(tmp_path):
    pkg = tmp_path / "repro"
    (pkg / "sub").mkdir(parents=True)
    for rel in ("__init__.py", "sub/__init__.py", "sub/used.py", "sub/orphan.py", "__main__.py"):
        (pkg / rel).write_text("")
    loaded = {"repro", "repro.sub", "repro.sub.used"}
    assert unreached(pkg, loaded, ALLOWLIST) == ["repro/sub/orphan.py"]


def test_import_collection_finds_nested_and_aliased_imports(tmp_path):
    script = tmp_path / "caller.py"
    script.write_text(textwrap.dedent("""
        import os
        import repro.graphs as g
        from repro import runtime

        def late():
            from repro.obs.export import validate_chrome_trace
    """))
    assert repro_imports([script]) == [
        "from repro import runtime",
        "from repro.obs.export import validate_chrome_trace",
        "import repro.graphs as g",
    ]
