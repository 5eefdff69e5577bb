"""Tests for the ``python -m repro`` CLI."""

import dataclasses
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro import runtime
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_pagerank_defaults(self):
        args = build_parser().parse_args(["run", "pagerank"])
        assert args.n == 500 and args.k == [8] and args.graph == "gnp"

    def test_sweep_parses_ks(self):
        args = build_parser().parse_args(["run", "pagerank", "--k", "2,4,8"])
        assert args.k == [2, 4, 8]

    @pytest.mark.parametrize("ks", ["4,x", "8,8", "4,", "2.5"])
    def test_malformed_k_list_is_a_usage_error(self, ks, capsys):
        # Non-integers and repeated k exit 2 with a usage message, not a
        # traceback or a fit over one distinct k.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["run", "pagerank", "--k", ks])
        assert exc.value.code == 2
        assert "argument --k" in capsys.readouterr().err

    def test_rejects_unknown_graph(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "pagerank", "--graph", "nope"])

    def test_deleted_verbs_are_gone(self):
        for verb in ("pagerank", "triangles", "sort", "mst", "sweep"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([verb])

    def test_run_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nope"])

    def test_run_accepts_every_registered_algorithm(self):
        from repro import runtime

        for name in runtime.available():
            args = build_parser().parse_args(["run", name])
            assert args.algo == name


class TestCommands:
    def test_pagerank_runs(self, capsys):
        rc = main(["run", "pagerank", "--n", "120", "--k", "4", "--set", "c=8"])
        assert rc == 0
        out = capsys.readouterr().out
        for label in ("rounds", "lower bound", "L1 error vs reference"):
            assert label in out

    def test_pagerank_below_the_theorem_domain_prints_no_bound(self, capsys):
        # Theorem 2 needs n >= 5: the bound row is left out, not an uncaught ValueError.
        rc = main(["run", "pagerank", "--graph", "star", "--n", "4"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(line.strip().startswith("upper envelope") for line in lines)
        assert not any(line.strip().startswith("lower bound") for line in lines)

    def test_triangles_runs(self, capsys):
        rc = main(["run", "triangles", "--n", "60", "--k", "8", "--graph", "dense"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "occurrences" in out and "Theorem 5" in out and "lower bound" in out

    def test_sort_runs(self, capsys):
        rc = main(["run", "sorting", "--n", "2000", "--k", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "globally sorted" in out and "block imbalance" in out

    def test_mst_runs(self, capsys):
        rc = main(["run", "mst", "--n", "80", "--k", "4"])
        assert rc == 0
        row = next(line for line in capsys.readouterr().out.splitlines() if "Kruskal" in line)
        weight, ref = row.split()[-2:]
        assert ref == f"({weight})"

    def test_lowerbounds_runs(self, capsys):
        rc = main(["lowerbounds", "--n", "10000", "--k", "16"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("PageRank", "Triangles", "Sorting", "MST"):
            assert name in out

    def test_lowerbounds_out_of_domain_prints_dash(self, capsys):
        # Theorem 2 needs n >= 5: its row is "-", the others still print.
        rc = main(["lowerbounds", "--n", "4", "--k", "2"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()

        def cell(problem):
            return next(line for line in lines if problem in line).split()[-1]

        assert cell("PageRank (Thm 2)") == "-"
        assert cell("MST (§1.3)") != "-"

    def test_lowerbounds_n_accepts_scientific(self, capsys):
        assert main(["lowerbounds", "--n", "1e6", "--k", "16"]) == 0
        assert "n=1000000, k=16" in capsys.readouterr().out

    def test_sweep_pagerank(self, capsys):
        rc = main(["run", "pagerank", "--n", "300", "--k", "4,8", "--set", "c=2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("[sweep] algo=pagerank") == 2
        assert "fit: rounds ~ k^" in out and "(paper: -2 (Thm 4))" in out
        # A sweep prints the k | rounds table, not one report per k.
        assert "L1 error vs reference" not in out

    def test_sweep_triangles(self, capsys):
        rc = main(["run", "triangles", "--n", "80", "--graph", "dense", "--k", "8,27"])
        assert rc == 0
        assert "Thm 5" in capsys.readouterr().out

    def test_sweep_refuses_a_fixed_k_family(self, capsys):
        # The congested clique runs at k = n whatever --k says: a sweep
        # would print rows labelled with k values it never ran.
        rc = main(["run", "congested-clique-triangles", "--n", "30", "--k", "4,8"])
        assert rc == 2
        assert "'congested-clique-triangles' fixes k from its input" in capsys.readouterr().err

    def test_sweep_writes_one_trace(self, tmp_path, capsys):
        from repro.obs import read_trace

        path = tmp_path / "sweep.jsonl"
        rc = main(["run", "pagerank", "--n", "120", "--k", "4,8", "--set", "c=2",
                   "--trace", str(path)])
        assert rc == 0
        runs = [e["k"] for e in read_trace(path) if e["event"] == "run_start"]
        assert runs == [4, 8]

    def test_star_family(self, capsys):
        rc = main(["run", "pagerank", "--n", "200", "--k", "4", "--graph", "star",
                   "--set", "c=4"])
        assert rc == 0

    def test_lb_family(self, capsys):
        rc = main(["run", "pagerank", "--n", "201", "--k", "4", "--graph", "lb",
                   "--set", "c=8"])
        assert rc == 0

    def test_powerlaw_family(self, capsys):
        rc = main(["run", "triangles", "--n", "100", "--k", "8", "--graph", "powerlaw"])
        assert rc == 0


#: The four enumeration families compare their rows with the sequential
#: enumeration of the whole input.
ENUMERATION_FAMILIES = [
    "congested-clique-triangles", "subgraphs", "triangles", "triangles-conversion",
]

#: The row each family's ``check`` prints; every registered family has one.
CHECK_LABELS = {
    **dict.fromkeys(ENUMERATION_FAMILIES, "occurrences (vs sequential)"),
    "connectivity": "components (vs union-find)",
    "mst": "weight (vs Kruskal)",
    "pagerank": "L1 error vs reference",
    "pagerank-baseline": "L1 error vs reference",
    "sorting": "globally sorted",
}


class TestGenericRun:
    @pytest.mark.parametrize("name", runtime.available())
    def test_run_every_registered_family(self, name, capsys):
        spec = runtime.get_spec(name)
        assert spec.check is not None
        rc = main(["run", name, "--n", "60", "--k", "8", "--graph", "dense"])
        assert rc == 0, name
        out = capsys.readouterr().out
        assert spec.bounds.split()[0] in out
        assert "rounds" in out
        # A family's check row is the last row of the table, after its summary.
        assert out.splitlines()[-1].strip().startswith(CHECK_LABELS[name])

    @pytest.mark.parametrize("algo, doctor, label, argv", [
        ("mst", lambda r: dataclasses.replace(r, total_weight=r.total_weight + 1e-6),
         "weight (vs Kruskal)", ["--n", "200", "--k", "4"]),
        ("sorting", lambda r: dataclasses.replace(r, blocks=r.blocks[::-1]),
         "globally sorted", ["--n", "200", "--k", "4"]),
        # The two lowest-labelled components merged into one.
        ("connectivity", lambda r: dataclasses.replace(r, labels=np.where(
            r.labels == np.unique(r.labels)[1], r.labels.min(), r.labels)),
         "components (vs union-find)", ["--n", "200", "--k", "4", "--avg-degree", "1"]),
        # One dropped occurrence row.
        *[(name, lambda r: dataclasses.replace(r, triangles=r.triangles[1:]),
           "occurrences (vs sequential)", ["--n", "40", "--k", "4", "--graph", "dense"])
          for name in ENUMERATION_FAMILIES],
    ], ids=["mst", "sorting", "connectivity", *ENUMERATION_FAMILIES])
    def test_a_doctored_result_fails_its_check(self, algo, doctor, label, argv, monkeypatch,
                                               capsys):
        real_run = runtime.run

        def doctored_run(*args, **kwargs):
            rep = real_run(*args, **kwargs)
            rep.result = doctor(rep.result)
            return rep

        monkeypatch.setattr(runtime, "run", doctored_run)
        rc = main(["run", algo, *argv])
        assert rc == 1
        row = next(line for line in capsys.readouterr().out.splitlines()
                   if line.strip().startswith(label))
        assert row.endswith("FAILED")

    def test_run_with_engine_and_set_param(self, capsys):
        rc = main(
            ["run", "subgraphs", "--n", "40", "--k", "16", "--graph", "dense",
             "--engine", "vector", "--set", "pattern=c4"]
        )
        assert rc == 0
        assert "vector" in capsys.readouterr().out

    def test_run_bad_set_pair(self, capsys):
        rc = main(["run", "pagerank", "--n", "40", "--k", "4", "--set", "oops"])
        assert rc == 2
        assert "--set expects key=value, got 'oops'" in capsys.readouterr().err

    def test_run_rejects_reserved_set_keys(self, capsys):
        # A --set collision with run()'s own kwargs would otherwise raise
        # a raw TypeError from runtime.run(); none is a family parameter.
        for key in ("k", "seed", "engine", "workers", "bandwidth", "cluster", "placement"):
            rc = main(["run", "pagerank", "--n", "40", "--k", "4", "--set", f"{key}=3"])
            assert rc == 2
            assert f"no parameter {key!r}; it accepts: c, " in capsys.readouterr().err

    def test_sweep_accepts_set_params(self, capsys):
        rc = main(
            ["run", "subgraphs", "--n", "40", "--graph", "dense",
             "--k", "16,81", "--set", "pattern=c4"]
        )
        assert rc == 0
        assert "fit: rounds ~ k^" in capsys.readouterr().out

    def test_run_bad_param_reports_repro_error(self, capsys):
        # An invalid family parameter surfaces as exit code 2, not a traceback.
        rc = main(["run", "pagerank", "--n", "40", "--k", "4", "--set", "eps=2.0"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, named", [
        (["run", "pagerank", "--n", "0"], "--n must be an integer >= 1, got 0"),
        (["run", "pagerank", "--n", "-5"], "--n must be an integer >= 1, got -5"),
        (["data", "build", "rmat:n=0,avg_deg=2,seed=1"], "parameter 'n' must be >= 1"),
        (["run", "triangles", "--seed", "-1"], "seed must be an integer >= 0, got -1"),
        (["run", "pagerank", "--set", "nope=1"], "no parameter 'nope'; it accepts: c, "),
        (["run", "pagerank", "--k", "0"], "requires k >= 2, got k=0"),
        (["run", "pagerank", "--set", "oops"], "--set expects key=value, got 'oops'"),
        (["run", "congested-clique-triangles", "--n", "20", "--k", "4,8"],
         "fixes k from its input"),
        (["run", "sorting", "--dataset", "gnp:n=10,avg_deg=2,seed=1"],
         "--dataset describes a graph; 'sorting' takes values input"),
        (["data", "rm"], "data rm needs a spec/hash or --all"),
    ])
    def test_bad_input_exits_2_without_a_traceback(self, argv, named, tmp_path):
        src = Path(__file__).resolve().parents[2] / "src"
        done = subprocess.run(
            [sys.executable, "-m", "repro", *argv], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src), "REPRO_DATA_DIR": str(tmp_path)},
        )
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr
        assert "error:" in done.stderr and named in done.stderr

    def test_n_below_the_average_degree_runs(self, capsys):
        # The default gnp input caps p = --avg-degree / --n at 1.
        assert main(["run", "pagerank", "--n", "3"]) == 0
        assert " 3 / 3 / 8 / " in capsys.readouterr().out  # n / m / k: the triangle K3

    def test_a_failed_check_still_exits_1(self, tmp_path):
        # Exit 1 is a wrong result only: the usage errors above exit 2.
        code = textwrap.dedent("""
            import dataclasses, sys
            from repro import runtime
            from repro.cli import main

            real_run = runtime.run

            def doctored_run(*args, **kwargs):
                rep = real_run(*args, **kwargs)
                rep.result = dataclasses.replace(rep.result, triangles=rep.result.triangles[1:])
                return rep

            runtime.run = doctored_run
            sys.exit(main(["run", "triangles", "--n", "40", "--k", "8", "--graph", "dense"]))
        """)
        src = Path(__file__).resolve().parents[2] / "src"
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src), "REPRO_DATA_DIR": str(tmp_path)},
        )
        assert done.returncode == 1, done.stderr
        assert "FAILED" in done.stdout and "error:" not in done.stderr

    def test_set_coerces_large_int_spellings(self):
        from repro.cli import _parse_set_params

        params = _parse_set_params(["a=1e6", "b=1_000_000", "c=2.5", "d=2.0", "e=c4"])
        assert params["a"] == 10**6 and isinstance(params["a"], int)
        assert params["b"] == 10**6 and isinstance(params["b"], int)
        assert params["c"] == 2.5
        assert params["d"] == 2.0 and isinstance(params["d"], float)
        assert params["e"] == "c4"

    def test_n_flag_accepts_scientific_and_underscores(self):
        args = build_parser().parse_args(["run", "pagerank", "--n", "1e3"])
        assert args.n == 1000
        args = build_parser().parse_args(["run", "sorting", "--n", "2_000"])
        assert args.n == 2000
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "pagerank", "--n", "1.5"])


@pytest.fixture
def data_dir(tmp_path, monkeypatch):
    from repro.workloads import DATA_DIR_ENV

    monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path / "data"))
    return tmp_path / "data"


class TestDataCommands:
    SPEC = "gnp:n=300,avg_deg=4,seed=5"

    def test_build_then_hit(self, data_dir, capsys):
        assert main(["data", "build", self.SPEC]) == 0
        assert "built" in capsys.readouterr().out
        assert main(["data", "build", self.SPEC]) == 0
        assert "cache hit" in capsys.readouterr().out
        # --no-cache rebuilds and must say so, even with an entry present.
        assert main(["data", "build", self.SPEC, "--no-cache"]) == 0
        assert "built (no-cache)" in capsys.readouterr().out

    def test_ls_and_info_and_rm(self, data_dir, capsys):
        main(["data", "build", self.SPEC])
        capsys.readouterr()
        assert main(["data", "ls"]) == 0
        out = capsys.readouterr().out
        assert "gnp" in out and "1 dataset(s)" in out
        assert main(["data", "info", self.SPEC]) == 0
        assert "path" in capsys.readouterr().out
        assert main(["data", "rm", self.SPEC]) == 0
        capsys.readouterr()
        assert main(["data", "ls"]) == 0
        assert "empty" in capsys.readouterr().out

    def test_rm_all(self, data_dir, capsys):
        main(["data", "build", self.SPEC])
        main(["data", "build", "gnp:n=300,avg_deg=4,seed=6"])
        capsys.readouterr()
        assert main(["data", "rm", "--all"]) == 0
        assert "removed 2" in capsys.readouterr().out

    def test_rm_missing_is_error(self, data_dir, capsys):
        assert main(["data", "rm", self.SPEC]) == 1
        capsys.readouterr()
        # An unknown hash prefix is a cache miss, not an unknown family.
        assert main(["data", "rm", "8c27904f"]) == 1
        err = capsys.readouterr().err
        assert "no cached dataset for '8c27904f'" in err and "family" not in err
        assert main(["data", "info", "8c27904f"]) == 2
        err = capsys.readouterr().err
        assert "hash prefix '8c27904f'" in err and "family" not in err

    def test_bad_spec_reports_error(self, data_dir, capsys):
        assert main(["data", "build", "nope:n=3"]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["data", "rm", "rmta:n=10"]) == 2  # a typo is still a typo
        assert "unknown workload family 'rmta'" in capsys.readouterr().err

    def test_run_with_dataset(self, data_dir, capsys):
        rc = main(["run", "triangles", "--dataset", self.SPEC, "--k", "4",
                   "--engine", "vector"])
        assert rc == 0
        assert "rounds" in capsys.readouterr().out

    def test_run_dataset_rejected_for_values_input(self, data_dir, capsys):
        assert main(["run", "sorting", "--dataset", self.SPEC, "--k", "4"]) == 2
        assert "takes values input" in capsys.readouterr().err

    def test_sweep_with_dataset(self, data_dir, capsys):
        rc = main(["run", "pagerank", "--dataset", self.SPEC,
                   "--k", "4,8", "--set", "c=2"])
        assert rc == 0
        assert "fit: rounds ~ k^" in capsys.readouterr().out


#: ``python -m repro run pagerank --n 200 --k 4 --set c=2`` as printed
#: before the package surfaces became lazy, minus the two wall-clock rows,
#: plus the family check's row (the last).
RUN_PAGERANK_OUTPUT = [
    'PageRank (Algorithm 1)                                                                                  value',
    '----------------------  -------------------------------------------------------------------------------------',
    '       n (/ m) / k / B                                                                    200 / 800 / 4 / 256',
    '                engine                                                                                 vector',
    '                rounds                                                                                    194',
    '       messages / bits                                                                           6383 / 58697',
    '               theorem                                                             Õ(n/k²) rounds (Theorem 4)',
    '        upper envelope                           194 rounds within Õ-envelope 3,200 (core 12.5 × polylog 256)',
    '       measured / core                                                                                   15.5',
    '           lower bound                                                   194 rounds above lower bound 0.01215',
    "         heaviest link                                                  624 bits in phase 'pagerank/tokens/0'",
    '                ledger                           183 phases within round budget 3,200 (cumulative 194 rounds)',
    "       ledger headroom  heaviest link 624 bits in phase 0 'pagerank/tokens/0' = 0.08% of the link-bits budget",
    '            iterations                                                                                     61',
    '          token rounds                                                                                     72',
    '         tokens/vertex                                                                                     16',
    ' L1 error vs reference                                                                                0.07994',
]
_WALL_CLOCK_ROWS = ("first superstep", "total wall")


def test_run_pagerank_output_is_unchanged():
    """A fresh ``python -m repro run`` (the lean import path) prints the same report."""
    src = Path(__file__).resolve().parents[2] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "repro", "run", "pagerank", "--n", "200", "--k", "4",
         "--set", "c=2"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert sum(line.strip().startswith(_WALL_CLOCK_ROWS) for line in lines) == 2
    kept = [line for line in lines if not line.strip().startswith(_WALL_CLOCK_ROWS)]
    assert kept == RUN_PAGERANK_OUTPUT
