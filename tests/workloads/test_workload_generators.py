"""Generator correctness: seeded determinism goldens + structural invariants.

Goldens pin a blake2b hash of each family's CSR arrays at fixed
parameters; any drift in sampling order is a semantic change to the
dataset a spec names (and therefore to every on-disk cache entry), so it
must be intentional and bump :data:`repro.workloads.spec.SPEC_FORMAT_VERSION`.
Regenerate with ``REPRO_REGEN_GOLDEN=1`` (same flag as tests/golden).

The hypothesis suite checks the invariants every consumer relies on:
canonical sorted CSR (bit-identical to the validating constructor's),
no self-loops, no duplicate edges, and degree sum equal to ``2m``.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.graphs.graph import Graph
from repro.workloads import build_dataset

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_workloads.json"
REGEN_ENV = "REPRO_REGEN_GOLDEN"

#: One fixed spec per generated family (file-backed families excluded).
GOLDEN_SPECS = [
    "rmat:n=2000,avg_deg=8,seed=7",
    "gnp:n=2000,avg_deg=6,seed=7",
    "gnp:n=30000,avg_deg=4,seed=7",  # sparse sampler above the quadratic limit
    "chung-lu:n=1000,exponent=2.5,avg_deg=8,seed=7",
    "planted-triangles:n=600,triangles=50,noise_p=0.01,seed=7",
]


def _csr_hash(g: Graph) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(np.int64(g.n).tobytes())
    h.update(np.int64(g.m).tobytes())
    h.update(np.ascontiguousarray(g.edges).tobytes())
    h.update(np.ascontiguousarray(g.indptr).tobytes())
    h.update(np.ascontiguousarray(g.indices).tobytes())
    return h.hexdigest()


def _compute_all() -> dict:
    return {spec: _csr_hash(build_dataset(spec)) for spec in GOLDEN_SPECS}


def test_regenerate_golden_workloads():
    if not os.environ.get(REGEN_ENV):
        pytest.skip(f"set {REGEN_ENV}=1 to regenerate {GOLDEN_PATH.name}")
    GOLDEN_PATH.write_text(json.dumps(_compute_all(), indent=2) + "\n")
    pytest.fail(
        f"regenerated {GOLDEN_PATH.name}; review the diff, commit it, and "
        f"rerun without {REGEN_ENV} (sampling-order changes must also bump "
        f"SPEC_FORMAT_VERSION)"
    )


@pytest.mark.parametrize("spec", GOLDEN_SPECS)
def test_generator_matches_golden(spec):
    if os.environ.get(REGEN_ENV):
        pytest.skip("regenerating")
    assert GOLDEN_PATH.exists(), f"missing {GOLDEN_PATH.name}; run with {REGEN_ENV}=1"
    golden = json.loads(GOLDEN_PATH.read_text())
    assert _csr_hash(build_dataset(spec)) == golden[spec], (
        f"{spec} drifted from its golden CSR hash; if intentional, bump "
        f"SPEC_FORMAT_VERSION and regenerate with {REGEN_ENV}=1"
    )


@pytest.mark.parametrize("spec", GOLDEN_SPECS)
def test_generator_deterministic(spec):
    a, b = build_dataset(spec), build_dataset(spec)
    assert a.n == b.n and np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)


def _check_invariants(g: Graph):
    """Sorted canonical CSR, no self-loops/duplicates, degree-sum = 2m."""
    e = g.edges
    assert np.all(e[:, 0] != e[:, 1]), "self-loop"
    assert np.all(e[:, 0] < e[:, 1]), "non-canonical undirected row"
    keys = e[:, 0] * np.int64(g.n) + e[:, 1]
    assert np.all(np.diff(keys) > 0), "unsorted or duplicate edges"
    assert int(g.degrees().sum()) == 2 * g.m
    assert g.indptr[0] == 0 and int(g.indptr[-1]) == g.indices.size
    # Per-row adjacency sorted strictly ascending.
    row_starts = np.repeat(g.indptr[:-1], np.diff(g.indptr))
    interior = np.arange(g.indices.size) > row_starts
    assert np.all(np.diff(g.indices)[interior[1:]] > 0), "unsorted adjacency row"
    # The trusted fast path must agree bit-for-bit with the validating
    # constructor (which would also reject any duplicate the fast path let
    # through).
    ref = Graph(n=g.n, edges=e.copy(), directed=False)
    assert np.array_equal(ref.indptr, g.indptr)
    assert np.array_equal(ref.indices, g.indices)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(8, 400), avg=st.floats(0.5, 12.0), seed=st.integers(0, 2**31))
def test_rmat_invariants(n, avg, seed):
    _check_invariants(build_dataset(f"rmat:n={n},avg_deg={avg},seed={seed}"))


@settings(max_examples=15, deadline=None)
@given(n=st.integers(8, 400), avg=st.floats(0.0, 12.0), seed=st.integers(0, 2**31))
def test_gnp_invariants(n, avg, seed):
    _check_invariants(build_dataset(f"gnp:n={n},avg_deg={avg},seed={seed}"))


@settings(max_examples=15, deadline=None)
@given(n=st.integers(8, 300), exponent=st.floats(1.5, 4.0), avg=st.floats(0.5, 12.0),
       seed=st.integers(0, 2**31))
def test_chung_lu_invariants(n, exponent, avg, seed):
    _check_invariants(build_dataset(
        f"chung-lu:n={n},exponent={exponent},avg_deg={avg},seed={seed}"))


@settings(max_examples=15, deadline=None)
@given(n=st.integers(8, 300), frac=st.floats(0.0, 1.0), noise=st.floats(0.0, 0.1),
       seed=st.integers(0, 2**31))
def test_planted_triangles_invariants(n, frac, noise, seed):
    t = int(frac * (n // 3))
    g = build_dataset(f"planted-triangles:n={n},triangles={t},noise_p={noise},seed={seed}")
    _check_invariants(g)
    assert g.m >= 3 * t


def test_planted_triangles_without_noise_are_disjoint_triangles():
    g = build_dataset("planted-triangles:n=100,triangles=20,seed=4")
    assert g.n == 100 and g.m == 60
    deg = g.degrees()
    assert np.all(deg[:60] == 2) and np.all(deg[60:] == 0)
    # Every edge joins two vertices of the same planted triple.
    assert np.array_equal(g.edges[:, 0] // 3, g.edges[:, 1] // 3)


def test_gnp_sparse_sampler_reaches_large_n():
    g = build_dataset("gnp:n=100000,avg_deg=4,seed=1")
    assert g.n == 100_000
    # Binomial mean n*avg/2 = 200k; a 5-sigma band is ~±2.2k.
    assert abs(g.m - 200_000) < 5_000
    _check_invariants(g)


def test_rmat_hits_requested_edge_count():
    g = build_dataset("rmat:n=4096,avg_deg=10,seed=3")
    assert g.m == 4096 * 10 // 2


def test_rmat_skew_is_heavy_tailed():
    g = build_dataset("rmat:n=4096,avg_deg=16,seed=3")
    d = np.sort(g.degrees())[::-1]
    # Top 1% of vertices hold far more than 1% of the volume.
    assert d[: len(d) // 100].sum() > 3 * (d.sum() // 100)


def test_quadratic_families_refuse_large_n():
    with pytest.raises(WorkloadError, match="n <= 20000"):
        build_dataset("chung-lu:n=50000,seed=1")
    with pytest.raises(WorkloadError, match="n <= 20000"):
        build_dataset("planted-triangles:n=50000,triangles=10,noise_p=0.1,seed=1")
    # Noise-free planted triangles are linear and allowed at any n.
    g = build_dataset("planted-triangles:n=50000,triangles=10,seed=1")
    assert g.m == 30


def test_adapters_match_legacy_generators():
    import repro

    g = build_dataset("chung-lu:n=500,exponent=2.5,avg_deg=8,seed=3")
    ref = repro.chung_lu_graph(500, exponent=2.5, avg_degree=8.0, seed=3)
    assert np.array_equal(g.edges, ref.edges)
    g = build_dataset("gnp:n=500,avg_deg=6,seed=3")
    ref = repro.gnp_random_graph(500, 6.0 / 499, seed=3)
    assert np.array_equal(g.edges, ref.edges)


def test_content_key_set_on_built_graphs():
    from repro.workloads import parse_spec

    spec = "rmat:n=100,seed=1"
    g = build_dataset(spec)
    assert g.content_key == parse_spec(spec).content_hash()


# ----------------------------------------------------------------------
# One builder per family: no ``jobs=`` / ``--jobs`` / ``REPRO_BUILD_JOBS``
# selects a second one, and the worker pool has no client in this package.

def test_workloads_package_imports_nothing_from_kmachine():
    import ast

    import repro.workloads

    offenders = []
    for path in sorted(Path(repro.workloads.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
                if node.module == "repro":
                    names += [f"repro.{alias.name}" for alias in node.names]
            else:
                continue
            offenders += [
                (path.name, node.lineno, name)
                for name in names
                if f"{name}.".startswith("repro.kmachine.")
            ]
    assert offenders == []


def test_no_jobs_parameter_or_flag_is_left():
    import inspect

    from repro import workloads
    from repro.cli import build_parser

    for fn in (build_dataset, workloads.GraphCache.materialize, workloads.materialize):
        assert "jobs" not in inspect.signature(fn).parameters, fn
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["data", "build", "rmat:n=100", "--jobs", "2"])
    assert exc.value.code == 2


def test_build_jobs_env_is_not_read(monkeypatch):
    from repro.kmachine.parallel import active_pools, shutdown_worker_pools

    spec = "rmat:n=8000,avg_deg=6,seed=2"
    shutdown_worker_pools()
    monkeypatch.delenv("REPRO_BUILD_JOBS", raising=False)
    unset = _csr_hash(build_dataset(spec))
    monkeypatch.setenv("REPRO_BUILD_JOBS", "2")
    assert _csr_hash(build_dataset(spec)) == unset
    assert active_pools() == ()
