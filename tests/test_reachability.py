"""Reachability: every function under ``src/repro`` is called by a product path.

A fresh interpreter installs a ``sys.setprofile``/``threading.setprofile``
hook that records every Python function called (forked process-engine
workers log theirs to a file), then drives the product paths in-process:

* every registered family through ``repro.cli.main`` ``run``, which calls
  ``runtime.run``, the family's ``spec.check`` and the conservation
  check; one PageRank and one triangles run on the process engine;
* the CLI's ``--k`` sweep, ``trace summarize``/``export``, ``data
  build`` (every dataset family), ``ls``/``info``/``rm`` and
  ``lowerbounds``;
* a daemon on port 0 started with a prewarmed dataset, answering one
  miss, one hit, ``/metrics``, ``/status?history=1`` and ``client``
  ``health``/``status``/``shutdown``;
* every paper-table experiment of ``benchmarks/paper_tables.py`` at its
  small size, the quick examples in :data:`EXAMPLES`, and every ``repro``
  import statement of ``benchmarks/``, ``examples/`` and the harness.

A non-dunder function or method defined in ``src/repro`` that none of this
calls has no product caller, and neither has a module none of it loads:
delete it, move it to ``tests/`` (an oracle or a fixture, see
``tests/oracles.py``), or add it to :data:`ALLOWLIST` with the entry point
that does reach it.

``python tests/test_reachability.py`` runs the same scan and prints every
uncalled function (module, qualname, lines), allowlisted or not.
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

#: ``path::qualname`` (a function) or ``path`` (a whole module, kept for
#: paper-side theory only) -> the entry point that reaches it.
ALLOWLIST = {
    "repro/__main__.py": "`python -m repro` runs it as __main__ (repro.cli.main)",
    "repro/cli.py::cmd_serve": "`python -m repro serve` blocks in serve_forever; CI's daemon "
                               "smoke runs it (the scan starts ReproServer in a thread)",
    # Paper-side theory whose caller is to be the lower-bound premises
    # table (ROADMAP item 3(c)).
    "repro/info/": "the surprisal accounts of repro.core.lowerbounds",
    "repro/core/lowerbounds/": "`repro lowerbounds`, the paper tables and "
                               "examples/lower_bound_cookbook.py call part of each module",
    "repro/core/pagerank/lemma4.py::max_safe_delta": "the PageRank premises row",
    # Crash and error paths.
    "repro/core/pagerank/tokens.py::_no_local_neighbors": "a token at a vertex whose home "
                                                           "shard has no neighbours for it",
    "repro/kmachine/parallel/engine.py::ProcessEngine._crash": "a worker dies mid-superstep",
    "repro/kmachine/parallel/pool.py::WorkerPool.poll": "ProcessEngine._crash drains the "
                                                         "surviving workers' replies",
    "repro/kmachine/parallel/shipping.py::discard": "a failed superstep frees the "
                                                    "shipments in flight",
    "repro/obs/bounds.py::LedgerEntry.as_dict": "a /run reply for a run with over-budget "
                                                "phases lists them",
    "repro/serve/results.py::ResultStore.close": "`repro serve --result-db PATH` closes its "
                                                 "own store at shutdown",
    # What only the benchmark harness and the long example call.
    "repro/kmachine/cluster.py::Cluster.bandwidth": "benchmarks/e2e/e2elib/ops.py::staged_op",
    "repro/kmachine/metrics.py::Metrics.max_link_bits": "benchmarks/e2e/e2elib/ops.py::"
                                                        "sim_counts",
    "repro/kmachine/distgraph.py::clear_distgraph_cache": "benchmarks/e2e/e2elib/ops.py::"
                                                          "distgraph_s",
    "repro/serve/results.py::ResultStore.rows": "benchmarks/e2e/e2elib/serve_mix.py",
    "repro/kmachine/parallel/pool.py::active_pools": "examples/quickstart.py (warm pools)",
    "repro/kmachine/parallel/pool.py::WorkerPool.pids": "examples/quickstart.py (warm pools)",
}

#: Directories whose modules may be allowlisted whole: the paper-side
#: theory that waits for the lower-bound premises table.
THEORY_MODULES = ("repro/info/", "repro/core/lowerbounds/")

#: The examples quick enough to run in the scan (``quickstart.py`` takes
#: about 35 s).
EXAMPLES = ("lower_bound_cookbook.py", "network_infrastructure.py", "social_triangles.py")

_SCAN = textwrap.dedent("""
    import contextlib, gc, importlib.util, io, json, os, runpy, sys, threading, urllib.request

    seen = set()


    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)


    def worker_hook(frame, event, arg):
        # A forked worker logs each new code object as it first runs it:
        # workers end by being terminated, so nothing is left to write then.
        if event == "call" and frame.f_code not in seen:
            seen.add(frame.f_code)
            log.write(f"{frame.f_code.co_filename}\\t{frame.f_code.co_firstlineno}\\n")
            log.flush()


    def follow_worker():
        global log
        log = open(f"worker-{os.getpid()}.log", "w")
        sys.setprofile(worker_hook)
        threading.setprofile(worker_hook)


    sys.setprofile(hook)
    threading.setprofile(hook)
    os.register_at_fork(after_in_child=follow_worker)

    from repro import runtime
    from repro.cli import main as cli
    from repro.kmachine.distgraph import clear_distgraph_cache
    from repro.serve import ReproServer, ServeClient

    src, out, repo = sys.argv[1:4]
    examples, statements = json.loads(sys.argv[4]), json.loads(sys.argv[5])


    def run_cli(*argv):
        assert cli(list(argv)) == 0, argv


    dataset = "gnp:n=300,avg_deg=6,seed=3"
    with open("graph.tsv", "w") as fh:
        fh.write("# a comment\\n0 1\\n1 2\\n2 0\\n2 5\\n")
    with contextlib.redirect_stdout(io.StringIO()):
        for name in runtime.available():
            run_cli("run", name, "--n", "40", "--k", "4")
        # PageRank keeps resident worker state; the triangles run is large
        # enough that its payloads travel through shared memory.
        run_cli("run", "pagerank", "--n", "40", "--engine", "process", "--workers", "1")
        run_cli("run", "triangles", "--n", "1500", "--engine", "process", "--workers", "1")
        run_cli("run", "mst", "--n", "60", "--k", "4,8")
        run_cli("run", "triangles", "--n", "60", "--trace", "trace.jsonl")
        run_cli("trace", "summarize", "trace.jsonl")
        run_cli("trace", "export", "trace.jsonl")
        # Leaves the dataset in the graph cache for the daemon's prewarm to load.
        run_cli("run", "triangles", "--dataset", dataset, "--k", "4", "--seed", "9")
        for spec in ("rmat:n=500,avg_deg=4,seed=1", "gnp:n=20001,avg_deg=1,seed=1",
                     "chung-lu:n=200,seed=1", "planted-triangles:n=60,triangles=5,noise_p=0.1",
                     "edgelist:path=graph.tsv"):
            run_cli("data", "build", spec)
        assert cli(["data", "build", "nosuch:n=1"]) == 2  # names the known families
        run_cli("data", "ls")
        run_cli("data", "info", dataset)
        run_cli("lowerbounds", "--n", "1000", "--k", "8")

        # A daemon starts in a process of its own: release the graphs the
        # runs above still hold, so its prewarm reads the cached npz.
        clear_distgraph_cache()
        gc.collect()
        server = ReproServer(port=0, prewarm=[dataset])
        with server.start_in_thread() as daemon, ServeClient(daemon.host, daemon.port) as client:
            client.wait_until_ready()
            port = str(daemon.port)
            request = ("run", "pagerank", "--dataset", dataset, "--k", "4", "--seed", "9",
                       "--set", "c=2")
            for argv in (("health",), request, request, ("status",)):
                run_cli("client", "--port", port, *argv)
            for path in ("/metrics", "/status?history=1"):
                urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=30).read()
            run_cli("client", "--port", port, "shutdown")
        run_cli("data", "rm", dataset)
        run_cli("data", "rm", "--all")

        tables = os.path.join(repo, "benchmarks", "paper_tables.py")
        module_spec = importlib.util.spec_from_file_location("paper_tables", tables)
        paper_tables = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(paper_tables)
        for fn, small in paper_tables.EXPERIMENTS.values():
            fn(**small)
        for example in examples:
            sys.argv = [example]
            runpy.run_path(os.path.join(repo, "examples", example), run_name="__main__")
        for statement in statements:
            exec(statement, {})

    sys.setprofile(None)
    threading.setprofile(None)
    sites = {(code.co_filename, code.co_firstlineno) for code in seen}
    for name in os.listdir("."):
        if name.startswith("worker-"):
            with open(name) as fh:
                sites.update((path, int(line)) for path, line in
                             (row.rstrip("\\n").split("\\t") for row in fh))
    called = sorted((os.path.relpath(path, src), line) for path, line in sites
                    if path.startswith(src))
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "repro")
    with open(out, "w") as fh:
        json.dump({"called": called, "loaded": loaded}, fh)
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


def definitions(root: Path) -> list[tuple[str, str, int, int]]:
    """``(path, qualname, first line, last line)`` of every non-dunder def under ``root``.

    ``first line`` is the first decorator's line when there is one, the
    line a function's code object reports as its ``co_firstlineno``.
    """
    found = []

    def visit(node, rel, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    found.append((rel, qualname, first, child.end_lineno))
                visit(child, rel, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, rel, prefix + child.name + ".")
            else:
                visit(child, rel, prefix)

    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root.parent).as_posix()
        visit(ast.parse(path.read_text(), filename=str(path)), rel, "")
    return found


def allowlisted(rel: str, qualname: str, allowlist) -> bool:
    return f"{rel}::{qualname}" in allowlist or any(
        "::" not in key and rel.startswith(key) for key in allowlist
    )


def uncalled(root: Path, called, allowlist=()) -> list[tuple[str, str, int, int]]:
    """The definitions under ``root`` whose ``(path, first line)`` is not in ``called``."""
    called = {tuple(site) for site in called}
    return [d for d in definitions(root)
            if (d[0], d[2]) not in called and not allowlisted(d[0], d[1], allowlist)]


def unreached(root: Path, loaded, allowlist) -> list[str]:
    """``root``-relative ``.py`` paths whose module is not in ``loaded`` nor allowlisted."""
    missing = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root.parent)
        parts = list(rel.with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        if ".".join(parts) not in loaded and not allowlisted(rel.as_posix(), "", allowlist):
            missing.append(rel.as_posix())
    return missing


def scan(workdir: Path) -> dict:
    """Run the product paths under the profile hook; ``{"called", "loaded"}``."""
    out = workdir / "scan.json"
    callers = [
        REPO / "benchmarks" / "paper_tables.py",
        *sorted((REPO / "examples").glob("*.py")),
        *sorted((REPO / "benchmarks" / "e2e").rglob("*.py")),
    ]
    done = subprocess.run(
        [sys.executable, "-c", _SCAN, str(SRC) + os.sep, str(out), str(REPO),
         json.dumps(EXAMPLES), json.dumps(repro_imports(callers))],
        capture_output=True, text=True, cwd=workdir,
        env={**os.environ, "PYTHONPATH": str(SRC), "REPRO_DATA_DIR": str(workdir)},
    )
    assert done.returncode == 0, done.stderr
    return json.loads(out.read_text())


def test_every_function_is_called_by_a_product_path(tmp_path):
    result = scan(tmp_path)
    missing = unreached(SRC / "repro", set(result["loaded"]), ALLOWLIST)
    assert not missing, f"no product path loads {', '.join(missing)}"
    dead = uncalled(SRC / "repro", result["called"], ALLOWLIST)
    assert not dead, "no product path calls " + ", ".join(f"{p}::{q}" for p, q, _, _ in dead)


def test_allowlist_entries_exist_and_name_their_entry_point():
    defined = {f"{rel}::{qualname}" for rel, qualname, _, _ in definitions(SRC / "repro")}
    for key, entry_point in ALLOWLIST.items():
        assert entry_point.strip(), key
        if "::" in key:
            assert key in defined, key
        else:
            assert (SRC / key).exists(), key
            assert key.endswith("__main__.py") or key.startswith(THEORY_MODULES), key
    assert len(ALLOWLIST) < 25


def test_scan_names_a_planted_uncalled_function(tmp_path):
    pkg = tmp_path / "repro"
    pkg.mkdir()
    (pkg / "mod.py").write_text(textwrap.dedent("""
        def used():
            def inner():
                pass

        class Thing:
            def __init__(self):
                pass

            @property
            def value(self):
                return 1

            def planted(self):
                pass
    """))
    called = [("repro/mod.py", 2), ("repro/mod.py", 10)]
    names = [qualname for _, qualname, _, _ in uncalled(pkg, called)]
    assert names == ["used.<locals>.inner", "Thing.planted"]
    assert uncalled(pkg, called, {"repro/mod.py::Thing.planted": "x"})[0][1] == (
        "used.<locals>.inner")


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


def test_scan_names_an_unloaded_module(tmp_path):
    pkg = tmp_path / "repro"
    (pkg / "sub").mkdir(parents=True)
    for rel in ("__init__.py", "sub/__init__.py", "sub/used.py", "sub/orphan.py", "__main__.py"):
        (pkg / rel).write_text("")
    loaded = {"repro", "repro.sub", "repro.sub.used"}
    assert unreached(pkg, loaded, ALLOWLIST) == ["repro/sub/orphan.py"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        result = scan(Path(tmp))
    rows = uncalled(SRC / "repro", result["called"])
    for rel, qualname, first, last in rows:
        mark = "  (allowlisted)" if allowlisted(rel, qualname, ALLOWLIST) else ""
        print(f"{rel:45s} {qualname:50s} {last - first + 1:4d}{mark}")
    total = len(definitions(SRC / "repro"))
    print(f"\n{len(rows)} of {total} functions uncalled, "
          f"{sum(last - first + 1 for *_, first, last in rows)} lines")
