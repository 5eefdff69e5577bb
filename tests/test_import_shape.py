"""Import-shape budget: a cold run loads only the modules it runs.

A fresh interpreter does ``from repro import obs, runtime`` and starts a
vector PageRank on a tiny dataset, stopped at the engine's first phase
activity by a tracer whose ``mark`` raises (the end-to-end harness's
set-up probe).  Nothing from another family, the serve daemon, the
process backend, trace export or alerting may be loaded by then.  The
test counts modules and times nothing.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

#: ``fnmatch`` patterns no module loaded by the first phase may match.
FORBIDDEN = [
    "repro.serve*",
    "repro.kmachine.parallel*",
    "multiprocessing",
    "multiprocessing.*",
    "repro.obs.export",
    "repro.obs.alerts",
    "repro.core.triangles*",
    "repro.core.mst*",
    "repro.experiments*",
    "repro.info*",
]

_PROBE = textwrap.dedent("""
    import json, sys
    from fnmatch import fnmatchcase

    from repro import obs, runtime

    class FirstActivity(Exception):
        pass

    class StopAtFirstActivity(obs.Tracer):
        def mark(self, t=None):
            raise FirstActivity

    try:
        runtime.run("pagerank", dataset="gnp:n=64,avg_deg=4,seed=1", k=4, seed=1,
                    engine="vector", trace=StopAtFirstActivity())
    except FirstActivity:
        pass
    else:
        raise AssertionError("pagerank finished without any engine phase activity")
    forbidden = json.loads(sys.argv[1])
    print(json.dumps({
        "loaded": sorted(m for m in sys.modules
                         if any(fnmatchcase(m, p) for p in forbidden)),
        "available": list(runtime.available()),
    }))
""")


def test_cold_pagerank_imports_only_what_it_runs(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(FORBIDDEN)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src), "REPRO_DATA_DIR": str(tmp_path)},
    )
    assert done.returncode == 0, done.stderr
    shape = json.loads(done.stdout)
    assert shape["loaded"] == []
    assert shape["available"] == [
        "congested-clique-triangles", "connectivity", "mst", "pagerank",
        "pagerank-baseline", "sorting", "subgraphs", "triangles", "triangles-conversion",
    ]
