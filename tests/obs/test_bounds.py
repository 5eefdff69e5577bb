"""BoundReport tests: the Õ envelope, the lower bound and the per-phase ledger."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro import obs, runtime
from repro._util import polylog
from repro.kmachine.metrics import Metrics, PhaseStats
from repro.obs.bounds import BoundReport, compute_bound_report


def make_metrics(k=4, bandwidth=32, phases=((96, 3),), labels=None):
    """One phase per ``(link bits, messages)`` pair, all on link 0 -> 1."""
    met = Metrics(k=k, bandwidth=bandwidth)
    for index, (link_bits, msgs_count) in enumerate(phases):
        bits = np.zeros((k, k), dtype=np.int64)
        msgs = np.zeros((k, k), dtype=np.int64)
        bits[0, 1] = link_bits
        msgs[0, 1] = msgs_count
        label = labels[index] if labels else f"phase-{index}"
        met.record_phase(bits, msgs, label=label)
    return met


def stub_spec(upper=None, lower=None, lower_extra=None, bounds="Õ(stub)"):
    return SimpleNamespace(name="stub", bounds=bounds, lower_bound=lower,
                           lower_bound_extra=lower_extra, upper_bound=upper)


def sized_upper(rounds):
    """An ``upper_bound`` whose Õ envelope is ``rounds`` (at least polylog(n))."""
    return lambda n, k, bandwidth, m=None: rounds / polylog(n)


class TestClosedForm:
    """sorting's theorem is Θ̃(n/k²): both sides are closed-form."""

    def test_envelope_is_core_times_polylog(self):
        rng = np.random.default_rng(3)
        values = rng.random(4096)
        rep = runtime.run("sorting", values, 4, seed=1, engine="vector")
        report = rep.bound_report
        assert report is not None
        n, k = len(values), 4
        assert report.upper_bound_core == pytest.approx(n / k**2)
        assert report.polylog_slack == float(polylog(n))
        assert report.upper_bound_rounds == pytest.approx(
            (n / k**2) * polylog(n)
        )
        assert report.polylog_slack == 32 * math.ceil(math.log2(n))

    def test_measured_sits_inside_the_envelope(self):
        values = np.random.default_rng(3).random(4096)
        rep = runtime.run("sorting", values, 4, seed=1, engine="vector")
        report = rep.bound_report
        assert report.measured_rounds == rep.rounds
        assert report.within_envelope is True
        assert report.above_lower_bound is True
        assert report.ok is True

    def test_heaviest_phase_comes_from_the_phase_log(self):
        met = make_metrics(labels=["heavy"])
        report = compute_bound_report(stub_spec(bounds="Õ(n/k²)"), n=100, k=4,
                                      bandwidth=32, metrics=met)
        assert report.measured_max_link_bits == 96
        assert report.heaviest_phase == "heavy"
        assert report.within_envelope is None
        assert report.ok is True  # no declared bound, nothing violated


class TestViolations:
    def test_exceeding_the_envelope_flags_not_ok(self):
        met = make_metrics(bandwidth=1, phases=((10**9, 3),))
        spec = stub_spec(upper=lambda n, k, bandwidth, m=None: 1.0, bounds="Õ(1)")
        report = compute_bound_report(spec, n=64, k=4, bandwidth=1,
                                      metrics=met)
        assert report.within_envelope is False
        assert report.ok is False
        assert any("EXCEEDS" in value for _, value in report.rows())

    def test_below_lower_bound_flags_not_ok(self):
        met = make_metrics(bandwidth=10**9, phases=((1, 3),))  # 1 round
        spec = stub_spec(lower=lambda n, k, bandwidth: 1000.0, bounds="Ω(1000)")
        report = compute_bound_report(spec, n=64, k=4, bandwidth=10**9,
                                      metrics=met)
        assert report.above_lower_bound is False
        assert report.ok is False
        assert any("BELOW" in value for _, value in report.rows())

    def test_lower_bound_extra_threads_the_result_through(self):
        met = make_metrics()
        seen = {}

        def lower(n, k, bandwidth, t=1):
            seen["t"] = t
            return 0.0

        spec = stub_spec(lower=lower, lower_extra=lambda r: {"t": r.count},
                         bounds="Ω(t)")
        compute_bound_report(spec, n=64, k=4, bandwidth=32, metrics=met,
                             result=SimpleNamespace(count=17))
        assert seen["t"] == 17

    def test_out_of_domain_bounds_are_omitted_not_fatal(self):
        # The paper's theorems state domains (e.g. PageRank's information
        # cost needs n >= 5); runs outside them still deserve a report.
        def raises(*a, **kw):
            raise ValueError("out of domain")

        spec = stub_spec(upper=raises, lower=raises, bounds="Õ(n/k²)")
        report = compute_bound_report(
            spec, n=4, k=2, bandwidth=32, metrics=make_metrics(k=2)
        )
        assert report.lower_bound_rounds is None
        assert report.upper_bound_rounds is None
        assert report.bits_budget is None
        assert report.violations == ()
        assert report.ok is True


class TestBudgets:
    def test_bits_budget_is_envelope_times_bandwidth(self):
        spec = stub_spec(upper=lambda n, k, bandwidth, m=None: n / k**2)
        report = compute_bound_report(spec, n=1024, k=4, bandwidth=32,
                                      metrics=make_metrics())
        expected = (1024 / 16) * polylog(1024)
        assert report.upper_bound_rounds == pytest.approx(expected)
        assert report.bits_budget == pytest.approx(expected * 32)

    def test_core_below_one_clamps_to_polylog(self):
        spec = stub_spec(upper=lambda n, k, bandwidth, m=None: 0.001)
        report = compute_bound_report(spec, n=1024, k=4, bandwidth=32,
                                      metrics=make_metrics())
        assert report.upper_bound_rounds == pytest.approx(float(polylog(1024)))

    def test_out_of_domain_upper_bound_disables_the_budget(self):
        def upper(n, k, bandwidth, m=None):
            raise ValueError("out of domain")

        report = compute_bound_report(stub_spec(upper=upper), n=100, k=4,
                                      bandwidth=32, metrics=make_metrics())
        assert report.upper_bound_rounds is None
        assert report.bits_budget is None
        assert report.ok is True

    def test_no_upper_bound_means_no_budget_and_vacuous_ok(self):
        met = make_metrics(phases=((10**9, 5),))
        report = compute_bound_report(stub_spec(), n=100, k=4, bandwidth=32,
                                      metrics=met)
        assert report.upper_bound_rounds is None
        assert report.bits_budget is None
        assert report.ok is True
        assert not any(e.over_budget for e in report.entries)
        assert "no declared" in dict(report.rows())["ledger"]


class TestEntries:
    def test_running_totals_and_labels(self):
        met = make_metrics(phases=((64, 2), (96, 3), (32, 1)),
                           labels=["a", "b", "c"])
        spec = stub_spec(upper=lambda n, k, bandwidth, m=None: n)
        report = compute_bound_report(spec, n=1024, k=4, bandwidth=32,
                                      metrics=met)
        assert len(report.entries) == 3
        assert [e.label for e in report.entries] == ["a", "b", "c"]
        assert [e.cumulative_rounds for e in report.entries] == [
            2, 5, 6
        ]  # ceil(64/32)=2, +ceil(96/32)=3, +ceil(32/32)=1
        assert [e.cumulative_bits for e in report.entries] == [64, 160, 192]
        assert report.entries[-1].cumulative_rounds == report.measured_rounds == met.rounds
        assert report.total_bits == met.bits
        assert report.heaviest_entry.label == report.heaviest_phase == "b"
        assert report.measured_max_link_bits == 96

    def test_undersized_envelope_flags_the_offending_phase(self):
        # One bit per round: phases of 200, 300, 100 rounds against a
        # 480-round envelope; phase 1 pushes the cumulative count to 500.
        met = make_metrics(bandwidth=1, phases=((200, 2), (300, 3), (100, 1)))
        report = compute_bound_report(stub_spec(upper=sized_upper(480)), n=1024,
                                      k=4, bandwidth=1, metrics=met)
        assert report.upper_bound_rounds == pytest.approx(480)
        assert report.ok is False
        assert report.first_violation.index == 1
        # Once the cumulative budget is blown, every later phase stays
        # flagged: the run never comes back inside the envelope.
        assert [e.over_budget for e in report.entries] == [False, True, True]
        assert "BUDGET EXCEEDED at phase 1" in dict(report.rows())["ledger"]

    def test_heavy_link_check_is_independent_of_round_totals(self):
        # The bits check compares each phase's own heaviest link against
        # bits_budget; craft a phase log where rounds stay inside the
        # envelope but one link load alone exceeds the bits budget
        # (possible when metrics are merged across bandwidth contexts).
        met = Metrics(k=4, bandwidth=1024)
        met.phase_log.append(PhaseStats(
            rounds=1, messages=4, bits=10**6, max_link_bits=10**6,
            max_machine_sent=4, max_machine_received=4, label="burst",
        ))
        # envelope = polylog(64) = 192 rounds, bits_budget = 196,608
        report = compute_bound_report(stub_spec(upper=sized_upper(polylog(64))),
                                      n=64, k=4, bandwidth=1024, metrics=met)
        entry = report.entries[0]
        assert entry.cumulative_rounds <= report.upper_bound_rounds
        assert entry.max_link_bits > report.bits_budget
        assert entry.over_budget is True


class TestRealRuns:
    """The polylog envelope never false-positives on the shipped families."""

    @pytest.mark.parametrize("algo", ["pagerank", "mst", "triangles"])
    def test_shipped_families_stay_within_budget(self, algo):
        g = repro.gnp_random_graph(200, 0.05, seed=3)
        kwargs = {}
        if algo == "mst":
            kwargs["weights"] = np.random.default_rng(3).random(g.m)
        rep = runtime.run(algo, g, 4, seed=3, **kwargs)
        report = rep.bound_report
        assert isinstance(report, BoundReport)
        assert report.ok is True
        assert report.violations == ()
        assert len(report.entries) == rep.metrics.phases
        assert report.entries[-1].cumulative_rounds == rep.rounds

    def test_cached_hit_still_carries_a_ledger(self, tmp_path, monkeypatch):
        from repro import workloads
        from repro.serve.results import RESULT_DB_ENV
        from repro.workloads import DATA_DIR_ENV

        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path / "data"))
        monkeypatch.setenv(RESULT_DB_ENV, str(tmp_path / "results.sqlite"))
        g = workloads.materialize("gnp:n=120,avg_deg=6,seed=5")
        first = runtime.run("triangles", g, 4, seed=5, result_cache=True)
        second = runtime.run("triangles", g, 4, seed=5, result_cache=True)
        assert second.cached is True
        assert second.bound_report.ok is True
        assert second.bound_report.entries == first.bound_report.entries

    def test_traced_run_attaches_top_links(self):
        # mst accounts phases through account_phase, the entry point
        # that attaches per-phase top-link attributions to the trace.
        g = repro.gnp_random_graph(150, 0.06, seed=7)
        w = np.random.default_rng(7).random(g.m)
        rep = runtime.run("mst", g, 4, seed=7, trace=True, weights=w)
        attributed = [e for e in rep.bound_report.entries if e.top_links]
        assert attributed, "traced run attached no top_links to the ledger"
        for entry in attributed:
            src, dst, bits = entry.top_links[0]
            assert 0 <= src < 4 and 0 <= dst < 4
            assert bits <= entry.max_link_bits

    def test_the_staged_pass_call_shapes_share_one_function(self):
        """Both calls of the benchmark's staged pass, as written there."""
        assert obs.compute_ledger_report is obs.compute_bound_report
        data, k = repro.gnp_random_graph(150, 0.06, seed=7), 4
        tracer = obs.Tracer()
        rep = runtime.run("pagerank", data, k, seed=1, trace=tracer)
        spec, metrics, result = rep.spec, rep.metrics, rep.result
        bound = obs.compute_bound_report(spec, n=data.n, k=k, bandwidth=metrics.bandwidth,
                                         metrics=metrics, result=result, m=int(data.m))
        ledger = obs.compute_ledger_report(spec, n=data.n, k=k, bandwidth=metrics.bandwidth,
                                           metrics=metrics, m=int(data.m), events=tracer.events)
        assert bound.ok and ledger.ok
        assert ([e.cumulative_rounds for e in ledger.entries]
                == [e.cumulative_rounds for e in bound.entries])
        assert (bound.as_dict()["measured_max_link_bits"]
                == ledger.as_dict()["measured_max_link_bits"] == metrics.max_link_bits)


class TestSerialization:
    def test_as_dict_is_json_ready(self):
        values = np.random.default_rng(3).random(1024)
        rep = runtime.run("sorting", values, 4, seed=1, engine="vector")
        payload = json.loads(json.dumps(rep.bound_report.as_dict()))
        assert payload["algo"] == "sorting"
        assert payload["ok"] is True
        assert payload["measured_rounds"] == rep.rounds

    def test_as_dict_is_json_ready_and_bounded(self):
        # 1000 rounds a phase against a 320-round envelope: all 40 flagged.
        met = make_metrics(bandwidth=1, phases=[(1000, 3)] * 40)
        report = compute_bound_report(stub_spec(upper=sized_upper(polylog(1024))),
                                      n=1024, k=4, bandwidth=1, metrics=met)
        doc = report.as_dict()
        json.dumps(doc)
        assert doc["measured_phases"] == 40
        assert doc["ok"] is False
        assert doc["violation_count"] == 40
        assert len(doc["violations"]) == 20  # capped

    def test_rows_are_string_pairs(self):
        g = repro.gnp_random_graph(80, 0.1, seed=2)
        rep = runtime.run("pagerank", g, 4, seed=1, engine="vector")
        rows = rep.bound_report.rows()
        assert rows and all(
            isinstance(label, str) and isinstance(value, str)
            for label, value in rows
        )
        labels = [label for label, _ in rows]
        assert "theorem" in labels and "heaviest link" in labels

    def test_rows_report_headroom(self):
        spec = stub_spec(upper=lambda n, k, bandwidth, m=None: n)
        report = compute_bound_report(spec, n=1024, k=4, bandwidth=32,
                                      metrics=make_metrics())
        labels = [label for label, _ in report.rows()]
        assert labels[-2:] == ["ledger", "ledger headroom"]

    def test_every_registered_graph_family_declares_an_upper_bound(self):
        for name in runtime.available():
            spec = runtime.get_spec(name)
            assert spec.upper_bound is not None, name
