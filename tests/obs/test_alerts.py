"""AlertRule / AlertEngine unit tests (no daemon required)."""

import json

import pytest

from repro.obs.alerts import (
    AlertEngine,
    AlertRule,
    default_rules,
    load_rules,
    resolve_alert_rules,
    stderr_sink,
)
from repro.obs.alerts import ALERT_RULES_ENV, AlertError


def rule(**overrides):
    base = dict(name="err", metric="serve.error_rate", threshold=0.5,
                op=">", sustain_s=0.0, severity="critical")
    base.update(overrides)
    return AlertRule(**base)


class TestRuleValidation:
    def test_round_trips_as_dict(self):
        r = rule(description="too many failures")
        assert AlertRule(**r.as_dict()) == r

    @pytest.mark.parametrize("bad", [
        {"name": ""},
        {"metric": ""},
        {"op": "=="},
        {"severity": "fatal"},
        {"sustain_s": -1.0},
        {"threshold": "high"},
        {"threshold": None},
    ])
    def test_rejects_malformed_fields(self, bad):
        with pytest.raises(AlertError):
            rule(**bad)

    def test_default_rules_are_valid_and_unique(self):
        rules = default_rules()
        assert len({r.name for r in rules}) == len(rules)
        assert all(r.metric.startswith("serve.") for r in rules)


class TestLoadRules:
    def test_loads_a_json_file(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"rules": [
            {"name": "latency", "metric": "serve.latency_p99_s",
             "threshold": 2.0, "op": ">=", "severity": "warning"},
        ]}))
        rules = load_rules(path)
        assert len(rules) == 1 and rules[0].name == "latency"

    def test_bare_list_form(self):
        rules = load_rules([{"name": "a", "metric": "x.y", "threshold": 1}])
        assert rules[0].metric == "x.y"

    def test_rejects_unknown_fields_and_duplicates(self):
        with pytest.raises(AlertError, match="unknown fields"):
            load_rules([{"name": "a", "metric": "x", "threshold": 1,
                         "wat": True}])
        with pytest.raises(AlertError, match="unique"):
            load_rules([{"name": "a", "metric": "x", "threshold": 1},
                        {"name": "a", "metric": "y", "threshold": 2}])

    def test_resolve_consults_the_environment(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ALERT_RULES_ENV, raising=False)
        assert resolve_alert_rules(None) == []
        monkeypatch.setenv(ALERT_RULES_ENV, "default")
        assert resolve_alert_rules(None) == default_rules()
        path = tmp_path / "rules.json"
        path.write_text(json.dumps([{"name": "a", "metric": "x",
                                     "threshold": 1}]))
        monkeypatch.setenv(ALERT_RULES_ENV, str(path))
        assert resolve_alert_rules(None)[0].name == "a"

    def test_resolve_passthrough_and_disable(self):
        rules = default_rules()
        assert resolve_alert_rules(rules) == rules
        assert resolve_alert_rules("none") == []
        assert resolve_alert_rules("off") == []


class TestEngineStateMachine:
    def test_fires_then_resolves(self):
        metrics = {"serve": {"error_rate": 0.9}}
        engine = AlertEngine([rule()], lambda: metrics)
        events = engine.evaluate(now=100.0)
        assert [e["event"] for e in events] == ["fire"]
        assert engine.status()["active"] == ["err"]
        # Still breaching: no duplicate fire.
        assert engine.evaluate(now=101.0) == []
        metrics["serve"]["error_rate"] = 0.0
        events = engine.evaluate(now=102.0)
        assert [e["event"] for e in events] == ["resolve"]
        status = engine.status()
        assert status["active"] == []
        assert status["resolved"] == ["err"]
        assert status["rules"][0]["fired_at"] == 100.0
        assert status["rules"][0]["resolved_at"] == 102.0

    def test_sustain_window_gates_the_fire(self):
        metrics = {"serve": {"error_rate": 0.9}}
        engine = AlertEngine([rule(sustain_s=10.0)], lambda: metrics)
        assert engine.evaluate(now=0.0) == []     # breach starts
        assert engine.evaluate(now=5.0) == []     # not sustained yet
        events = engine.evaluate(now=10.0)        # 10s continuous breach
        assert [e["event"] for e in events] == ["fire"]

    def test_clean_evaluation_resets_the_sustain_clock(self):
        metrics = {"serve": {"error_rate": 0.9}}
        engine = AlertEngine([rule(sustain_s=10.0)], lambda: metrics)
        engine.evaluate(now=0.0)
        metrics["serve"]["error_rate"] = 0.0
        engine.evaluate(now=5.0)                  # breach interrupted
        metrics["serve"]["error_rate"] = 0.9
        assert engine.evaluate(now=9.0) == []
        assert engine.evaluate(now=14.0) == []    # only 5s of new breach
        assert [e["event"] for e in engine.evaluate(now=19.0)] == ["fire"]

    def test_missing_or_none_metric_never_breaches(self):
        engine = AlertEngine(
            [rule(metric="serve.error_rate"), rule(name="other",
                                                   metric="no.such.path")],
            lambda: {"serve": {"error_rate": None}},
        )
        assert engine.evaluate(now=0.0) == []
        assert engine.status()["active"] == []

    def test_none_resolves_an_active_alert(self):
        metrics = {"serve": {"error_rate": 0.9}}
        engine = AlertEngine([rule()], lambda: metrics)
        engine.evaluate(now=0.0)
        metrics["serve"]["error_rate"] = None  # traffic drained away
        events = engine.evaluate(now=1.0)
        assert [e["event"] for e in events] == ["resolve"]

    def test_snapshot_failure_does_not_kill_the_engine(self):
        def boom():
            raise RuntimeError("source mid-teardown")

        engine = AlertEngine([rule()], boom)
        assert engine.evaluate(now=0.0) == []
        assert engine.evaluations == 1

    def test_ops_and_bool_coercion(self):
        engine = AlertEngine(
            [rule(name="lo", metric="m.v", op="<", threshold=1.0),
             rule(name="flag", metric="m.closed", op=">=", threshold=1.0)],
            lambda: {"m": {"v": 0.5, "closed": True}},
        )
        events = engine.evaluate(now=0.0)
        assert sorted(e["rule"] for e in events) == ["flag", "lo"]

    def test_duplicate_rule_names_rejected(self):
        with pytest.raises(AlertError, match="unique"):
            AlertEngine([rule(), rule()], dict)


class TestSinksAndGauges:
    def test_events_reach_sinks_and_sink_errors_are_swallowed(self):
        seen, also_seen = [], []

        def bad_sink(event):
            raise RuntimeError("sink down")

        engine = AlertEngine(
            [rule()], lambda: {"serve": {"error_rate": 0.9}},
            sinks=(bad_sink, seen.append, also_seen.append),
        )
        engine.evaluate(now=0.0)
        assert [e["event"] for e in seen] == ["fire"]
        assert also_seen == seen and also_seen[0]["rule"] == "err"

    def test_stderr_sink_formats_the_event(self, capsys):
        engine = AlertEngine([rule()], lambda: {"serve": {"error_rate": 0.9}},
                             sinks=(stderr_sink,))
        engine.evaluate(now=0.0)
        err = capsys.readouterr().err
        assert "fire err" in err and "serve.error_rate" in err

    def test_prometheus_gauge_tracks_active_state(self):
        metrics = {"serve": {"error_rate": 0.9}}
        engine = AlertEngine([rule()], lambda: metrics)
        assert 'repro_alert_active{rule="err",severity="critical"} 0' in (
            engine.prometheus_lines()
        )
        engine.evaluate(now=0.0)
        assert 'repro_alert_active{rule="err",severity="critical"} 1' in (
            engine.prometheus_lines()
        )
