"""Tests for the dataset-spec grammar, normalization, and content hashing."""

import pytest

from repro.errors import WorkloadError
from repro.workloads import (
    DatasetSpec,
    available_workloads,
    literal_value,
    parse_spec,
    workload_families,
)

#: Every generated family: the ones that take a vertex count ``n``.
GENERATED = sorted(
    f.name for f in workload_families() if any(p.name == "n" for p in f.params)
)
#: Required parameters (besides ``n``) a family's spec must spell out.
REQUIRED_EXTRA = {"planted-triangles": ",triangles=1"}


class TestLiteralValue:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("true", True),
            ("False", False),
            ("42", 42),
            ("-7", -7),
            ("1_000_000", 1_000_000),
            ("1e6", 1_000_000),
            ("2E3", 2000),
            ("1e+4", 10_000),
            ("2.5", 2.5),
            ("1.5e3", 1500.0),
            ("0.0", 0.0),
            ("c4", "c4"),
            ("graph.tsv", "graph.tsv"),
        ],
    )
    def test_coercion(self, raw, expected):
        value = literal_value(raw)
        assert value == expected and type(value) is type(expected)

    def test_scientific_int_is_int_not_float(self):
        # The satellite fix: n=1e6 must reach int-typed parameters.
        assert literal_value("1e6") == 10**6 and isinstance(literal_value("1e6"), int)

    def test_decimal_point_stays_float(self):
        assert isinstance(literal_value("2.0"), float)

    def test_overflowing_exponent_does_not_raise(self):
        # 1e400 overflows int(float(...)); it must coerce (to float inf)
        # rather than traceback, so spec validation can reject it cleanly.
        assert literal_value("1e400") == float("inf")
        with pytest.raises(WorkloadError, match="integer"):
            parse_spec("rmat:n=1e400")


class TestParse:
    def test_normalization_fills_defaults_and_sorts_keys(self):
        s = parse_spec("rmat:n=1000,seed=7")
        assert s.family == "rmat"
        assert s.params == {
            "n": 1000, "avg_deg": 16.0, "a": 0.57, "b": 0.19, "c": 0.19, "seed": 7,
        }
        assert s.canonical() == "rmat:a=0.57,avg_deg=16.0,b=0.19,c=0.19,n=1000,seed=7"

    def test_equivalent_spellings_share_one_hash(self):
        variants = [
            "rmat:n=1000,seed=7",
            "rmat:seed=7,n=1000",
            "rmat:n=1e3,seed=7,avg_deg=16",
            "rmat: n = 1_000 , seed = 7 ",
        ]
        hashes = {parse_spec(v).content_hash() for v in variants}
        assert len(hashes) == 1

    def test_different_params_different_hash(self):
        a = parse_spec("rmat:n=1000,seed=7").content_hash()
        b = parse_spec("rmat:n=1000,seed=8").content_hash()
        c = parse_spec("sbm:n=1000,seed=7").content_hash()
        assert len({a, b, c}) == 3

    def test_parse_is_idempotent(self):
        s = parse_spec("gnp:n=100,seed=1")
        assert parse_spec(s) is s
        assert isinstance(s, DatasetSpec)

    def test_int_param_coerces_scientific(self):
        assert parse_spec("rmat:n=1e6").params["n"] == 10**6

    def test_float_param_accepts_int_literal(self):
        assert parse_spec("rmat:n=100,avg_deg=16").params["avg_deg"] == 16.0

    def test_builtin_families_registered(self):
        names = available_workloads()
        for expected in ("rmat", "sbm", "geometric", "smallworld", "gnp",
                         "chung-lu", "planted-triangles", "edgelist", "metis"):
            assert expected in names


class TestParseErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "nope:n=10",                      # unknown family
            "rmat:n=10,zzz=3",                # unknown parameter
            "rmat:n=ten",                     # non-integer int param
            "rmat:n=1.5",                     # fractional int param
            "rmat:n=10,n=20",                 # duplicate key
            "rmat:n=10,oops",                 # not key=value
            "rmat:",                          # empty parameter list
            "planted-triangles:n=30",         # missing required parameter
            ":n=10",                          # missing family
            "rmat:avg_deg=true",              # bool into float param
            "rmat:n=100,avg_deg=nan",         # non-finite float param
            "rmat:n=100,avg_deg=inf",         # non-finite float param
            "rmat:n=0",                       # vertex count below 1
            "gnp:n=-5",                       # vertex count below 1
            "sbm:n=100,seed=-1",              # negative seed
        ],
    )
    def test_rejected(self, bad):
        with pytest.raises(WorkloadError):
            parse_spec(bad)

    @pytest.mark.parametrize("family", GENERATED)
    def test_vertex_count_below_one_rejected(self, family):
        with pytest.raises(WorkloadError, match="'n' must be >= 1, got 0"):
            parse_spec(f"{family}:n=0{REQUIRED_EXTRA.get(family, '')}")

    @pytest.mark.parametrize("family", GENERATED)
    def test_negative_seed_rejected(self, family):
        with pytest.raises(WorkloadError, match="'seed' must be >= 0, got -1"):
            parse_spec(f"{family}:n=10,seed=-1{REQUIRED_EXTRA.get(family, '')}")

    def test_non_string_rejected(self):
        with pytest.raises(WorkloadError):
            parse_spec(123)


class TestCacheability:
    def test_generated_families_cacheable(self):
        assert parse_spec("rmat:n=10").cacheable

    def test_file_backed_families_not_cacheable(self):
        assert not parse_spec("edgelist:path=x.tsv").cacheable
        assert not parse_spec("metis:path=x.graph").cacheable
