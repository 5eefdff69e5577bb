"""Tests for the ``python -m repro`` CLI."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_pagerank_defaults(self):
        args = build_parser().parse_args(["pagerank"])
        assert args.n == 1000 and args.k == 8 and args.graph == "gnp"

    def test_sweep_parses_ks(self):
        args = build_parser().parse_args(["sweep", "--ks", "2,4,8"])
        assert args.ks == "2,4,8"

    def test_rejects_unknown_graph(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["pagerank", "--graph", "nope"])

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
        rc = main(["pagerank", "--n", "120", "--k", "4", "--tokens", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rounds" in out and "Theorem-2" in out

    def test_pagerank_below_the_theorem_domain_prints_no_bound(self, capsys):
        # Theorem 2 needs n >= 5: the bound is "-", not an uncaught ValueError.
        rc = main(["pagerank", "--graph", "star", "--n", "4"])
        assert rc == 0
        row = next(line for line in capsys.readouterr().out.splitlines() if "Theorem-2" in line)
        assert row.split()[-1] == "-"

    def test_triangles_runs(self, capsys):
        rc = main(["triangles", "--n", "60", "--k", "8", "--graph", "dense"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "triangles" in out and "Theorem-3" in out

    def test_sort_runs(self, capsys):
        rc = main(["sort", "--n", "2000", "--k", "4"])
        assert rc == 0
        assert "globally sorted" in capsys.readouterr().out

    def test_mst_runs(self, capsys):
        rc = main(["mst", "--n", "80", "--k", "4"])
        assert rc == 0
        assert "Kruskal" in capsys.readouterr().out

    def test_lowerbounds_runs(self, capsys):
        rc = main(["lowerbounds", "--n", "10000", "--k", "16"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("PageRank", "Triangles", "Sorting", "MST"):
            assert name in out

    def test_sweep_pagerank(self, capsys):
        rc = main(
            ["sweep", "--problem", "pagerank", "--n", "300", "--ks", "4,8", "--tokens", "2"]
        )
        assert rc == 0
        assert "fit: rounds ~ k^" in capsys.readouterr().out

    def test_sweep_triangles(self, capsys):
        rc = main(
            ["sweep", "--problem", "triangles", "--n", "80", "--graph", "dense", "--ks", "8,27"]
        )
        assert rc == 0
        assert "Thm 5" in capsys.readouterr().out

    def test_star_family(self, capsys):
        rc = main(["pagerank", "--n", "200", "--k", "4", "--graph", "star", "--tokens", "4"])
        assert rc == 0

    def test_lb_family(self, capsys):
        rc = main(["pagerank", "--n", "201", "--k", "4", "--graph", "lb", "--tokens", "8"])
        assert rc == 0

    def test_powerlaw_family(self, capsys):
        rc = main(["triangles", "--n", "100", "--k", "8", "--graph", "powerlaw"])
        assert rc == 0


class TestGenericRun:
    def test_run_every_registered_family(self, capsys):
        from repro import runtime

        for name in runtime.available():
            rc = main(["run", name, "--n", "60", "--k", "8", "--graph", "dense"])
            assert rc == 0, name
            out = capsys.readouterr().out
            assert runtime.get_spec(name).bounds.split()[0] in out
            assert "rounds" in out

    def test_run_with_engine_and_set_param(self, capsys):
        rc = main(
            ["run", "subgraphs", "--n", "40", "--k", "16", "--graph", "dense",
             "--engine", "vector", "--set", "pattern=c4"]
        )
        assert rc == 0
        assert "vector" in capsys.readouterr().out

    def test_run_bad_set_pair(self):
        with pytest.raises(SystemExit):
            main(["run", "pagerank", "--n", "40", "--k", "4", "--set", "oops"])

    def test_run_rejects_reserved_set_keys(self):
        # A --set collision with run()'s own kwargs would otherwise raise
        # a raw TypeError from runtime.run().
        for key in ("k", "seed", "engine"):
            with pytest.raises(SystemExit, match=f"--{key} flag"):
                main(["run", "pagerank", "--n", "40", "--k", "4", "--set", f"{key}=3"])
        for key in ("bandwidth", "cluster", "placement"):
            with pytest.raises(SystemExit, match="not settable"):
                main(["run", "pagerank", "--n", "40", "--k", "4", "--set", f"{key}=3"])

    def test_sweep_accepts_set_params(self, capsys):
        rc = main(
            ["sweep", "--problem", "subgraphs", "--n", "40", "--graph", "dense",
             "--ks", "16,81", "--set", "pattern=c4"]
        )
        assert rc == 0
        assert "fit: rounds ~ k^" in capsys.readouterr().out

    def test_run_bad_param_reports_repro_error(self, capsys):
        # An invalid family parameter surfaces as exit code 2, not a traceback.
        rc = main(["run", "pagerank", "--n", "40", "--k", "4", "--set", "eps=2.0"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_set_coerces_large_int_spellings(self):
        from repro.cli import _parse_set_params

        params = _parse_set_params(["a=1e6", "b=1_000_000", "c=2.5", "d=2.0", "e=c4"])
        assert params["a"] == 10**6 and isinstance(params["a"], int)
        assert params["b"] == 10**6 and isinstance(params["b"], int)
        assert params["c"] == 2.5
        assert params["d"] == 2.0 and isinstance(params["d"], float)
        assert params["e"] == "c4"

    def test_n_flag_accepts_scientific_and_underscores(self):
        args = build_parser().parse_args(["pagerank", "--n", "1e3"])
        assert args.n == 1000
        args = build_parser().parse_args(["sort", "--n", "2_000"])
        assert args.n == 2000
        with pytest.raises(SystemExit):
            build_parser().parse_args(["pagerank", "--n", "1.5"])


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

    def test_run_dataset_rejected_for_values_input(self, data_dir):
        with pytest.raises(SystemExit, match="values"):
            main(["run", "sorting", "--dataset", self.SPEC, "--k", "4"])

    def test_sweep_with_dataset(self, data_dir, capsys):
        rc = main(["sweep", "--problem", "pagerank", "--dataset", self.SPEC,
                   "--ks", "4,8", "--tokens", "2"])
        assert rc == 0
        assert "fit: rounds ~ k^" in capsys.readouterr().out


#: ``python -m repro run pagerank --n 200 --k 4 --set c=2`` as printed
#: before the package surfaces became lazy, minus the two wall-clock rows.
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
