"""Declarative alert rules over the live observability surface.

An :class:`AlertRule` names one metric (a dotted path into the snapshot
the daemon assembles from its :class:`~repro.obs.registry.MinuteRing`
window, the session counters, and every :func:`~repro.obs.registry.
obs_registry` source), a comparison against a threshold, a sustain
window, and a severity.  :class:`AlertEngine` evaluates the rule set
against fresh snapshots — a rule *fires* once its metric has breached
continuously for ``sustain_s`` seconds and *resolves* on the first clean
evaluation — and dispatches fire/resolve events to its sinks
(:func:`stderr_sink` in the daemon, or any callables a caller passes).

The daemon runs one engine in a background asyncio loop when (and only
when) rules are configured — ``repro serve --alert-rules rules.json``
or ``$REPRO_ALERT_RULES``; with neither, no engine exists and the
request path is untouched.  State is surfaced three ways: ``GET
/alerts`` (active + recently-resolved), a ``repro_alert_active`` gauge
per rule appended to ``GET /metrics``, and the sinks.

Rule files are JSON — either a bare list of rule objects or
``{"rules": [...]}``::

    {"rules": [
      {"name": "error-rate", "metric": "serve.error_rate",
       "op": ">", "threshold": 0.5, "sustain_s": 0,
       "severity": "critical",
       "description": "over half the recent requests are failing"}
    ]}

A metric that is missing from the snapshot (or ``None`` — e.g. an error
rate with no traffic to compute it over) never breaches: absence of
evidence is not an alert.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.errors import ReproError

__all__ = [
    "ALERT_RULES_ENV",
    "AlertRule",
    "AlertEngine",
    "default_rules",
    "load_rules",
    "resolve_alert_rules",
    "stderr_sink",
]

#: Environment variable naming the default rule file (or ``default`` /
#: ``none``); consulted by :func:`resolve_alert_rules` when the caller
#: passes no explicit configuration.
ALERT_RULES_ENV = "REPRO_ALERT_RULES"

_OPS: dict[str, Callable[[float, float], bool]] = {
    ">": lambda v, t: v > t,
    ">=": lambda v, t: v >= t,
    "<": lambda v, t: v < t,
    "<=": lambda v, t: v <= t,
}

_SEVERITIES = ("info", "warning", "critical")


class AlertError(ReproError):
    """An alert rule or rule file is malformed."""


@dataclass(frozen=True)
class AlertRule:
    """One declarative alert: ``metric op threshold`` sustained.

    ``metric`` is a dotted path into the evaluation snapshot (e.g.
    ``serve.error_rate``, ``session.inflight``,
    ``result_store.hits``); ``sustain_s`` is how long the breach must
    hold continuously before the rule fires (0 fires on the first
    breaching evaluation).
    """

    name: str
    metric: str
    threshold: float
    op: str = ">"
    sustain_s: float = 0.0
    severity: str = "warning"
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or not self.metric:
            raise AlertError("alert rules need a name and a metric path")
        if self.op not in _OPS:
            raise AlertError(
                f"rule {self.name!r}: unknown op {self.op!r} "
                f"(expected one of {', '.join(sorted(_OPS))})"
            )
        if self.severity not in _SEVERITIES:
            raise AlertError(
                f"rule {self.name!r}: unknown severity {self.severity!r} "
                f"(expected one of {', '.join(_SEVERITIES)})"
            )
        # Checked here, not at evaluation: a threshold that cannot be
        # compared would raise inside the engine's rule loop, silencing
        # every later rule and the events already collected.
        try:
            float(self.threshold)
        except (TypeError, ValueError):
            raise AlertError(
                f"rule {self.name!r}: threshold must be a number, "
                f"got {self.threshold!r}"
            ) from None
        if self.sustain_s < 0:
            raise AlertError(f"rule {self.name!r}: sustain_s must be >= 0")

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "metric": self.metric,
            "op": self.op,
            "threshold": self.threshold,
            "sustain_s": self.sustain_s,
            "severity": self.severity,
            "description": self.description,
        }


def default_rules() -> list[AlertRule]:
    """The stock serve-health rule set (``--alert-rules default``).

    Thresholds lean conservative: every metric is computed over the
    telemetry ring's recent window and is ``None`` (never breaching)
    under too little traffic, so an idle daemon stays quiet.
    """
    return [
        AlertRule(
            name="error-rate", metric="serve.error_rate",
            op=">", threshold=0.5, sustain_s=0.0, severity="critical",
            description="over half the recent requests errored",
        ),
        AlertRule(
            name="latency-p99", metric="serve.latency_p99_s",
            op=">", threshold=60.0, sustain_s=0.0, severity="warning",
            description="recent p99 request latency above a minute",
        ),
        AlertRule(
            name="queue-saturated", metric="serve.queue_utilization",
            op=">=", threshold=1.0, sustain_s=10.0, severity="warning",
            description="admission queue pinned at its limit",
        ),
        AlertRule(
            name="result-cache-collapse", metric="serve.result_hit_rate",
            op="<", threshold=0.05, sustain_s=30.0, severity="info",
            description="the result cache stopped answering traffic",
        ),
    ]


def load_rules(source) -> list[AlertRule]:
    """Parse rules from a JSON file path, JSON text, or parsed object."""
    if isinstance(source, (str, os.PathLike)):
        path = Path(source)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise AlertError(f"cannot read alert rules {path}: {exc}") from None
        try:
            source = json.loads(text)
        except json.JSONDecodeError as exc:
            raise AlertError(f"{path} is not valid JSON: {exc}") from None
    if isinstance(source, dict):
        source = source.get("rules", [])
    if not isinstance(source, list):
        raise AlertError(
            "alert rules must be a JSON list (or {'rules': [...]})"
        )
    rules = []
    for raw in source:
        if not isinstance(raw, dict):
            raise AlertError(f"each rule must be an object, got {raw!r}")
        unknown = set(raw) - {
            "name", "metric", "op", "threshold", "sustain_s",
            "severity", "description",
        }
        if unknown:
            raise AlertError(
                f"rule {raw.get('name', '?')!r}: unknown fields "
                f"{', '.join(sorted(unknown))}"
            )
        try:
            rules.append(AlertRule(**raw))
        except TypeError as exc:
            raise AlertError(f"rule {raw.get('name', '?')!r}: {exc}") from None
    names = [rule.name for rule in rules]
    if len(set(names)) != len(names):
        raise AlertError("alert rule names must be unique")
    return rules


def resolve_alert_rules(value=None) -> list[AlertRule]:
    """Resolve a ``--alert-rules`` argument into a rule list.

    ``None`` consults ``$REPRO_ALERT_RULES`` (unset means no alerting);
    ``"none"``/``"off"`` disable explicitly; ``"default"`` selects
    :func:`default_rules`; anything else is a JSON rule file path.
    """
    if value is None:
        value = os.environ.get(ALERT_RULES_ENV, "").strip()
        if not value:
            return []
    if isinstance(value, (list, tuple)):
        return list(value)
    lowered = str(value).lower()
    if lowered in ("none", "off", ""):
        return []
    if lowered == "default":
        return default_rules()
    return load_rules(value)


# -- sinks --------------------------------------------------------------
def stderr_sink(event: dict) -> None:
    """Log one fire/resolve event to stderr."""
    print(
        f"[repro alert] {event['event']} {event['rule']} "
        f"({event['severity']}): {event['metric']} = {event['value']} "
        f"{event['op']} {event['threshold']}",
        file=sys.stderr,
    )


# -- the engine ---------------------------------------------------------
@dataclass
class _RuleState:
    breach_since: float | None = None
    active: bool = False
    fired_at: float | None = None
    resolved_at: float | None = None
    last_value: Any = None


def _lookup(snapshot: dict, path: str):
    """Follow a dotted path; ``None`` for anything missing/non-numeric."""
    node: Any = snapshot
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    if isinstance(node, bool):
        return float(node)
    return node if isinstance(node, (int, float)) else None


class AlertEngine:
    """Evaluates a rule set against metric snapshots; tracks fire state.

    ``snapshot`` is a zero-argument callable returning the nested metric
    dict rules select from.  :meth:`evaluate` is synchronous and cheap
    (one snapshot, one dict walk per rule) so callers choose the cadence
    — the daemon's background loop, or a test calling it directly with a
    pinned ``now``.
    """

    def __init__(
        self,
        rules,
        snapshot: Callable[[], dict],
        sinks: tuple = (),
    ) -> None:
        self.rules: list[AlertRule] = list(rules)
        names = [rule.name for rule in self.rules]
        if len(set(names)) != len(names):
            raise AlertError("alert rule names must be unique")
        self._snapshot = snapshot
        self.sinks = tuple(sinks)
        self._states = {rule.name: _RuleState() for rule in self.rules}
        self._lock = threading.Lock()
        self.evaluations = 0

    def evaluate(self, now: float | None = None) -> list[dict]:
        """Run one evaluation; returns the fire/resolve events emitted."""
        now = time.time() if now is None else now
        try:
            snapshot = self._snapshot()
        except Exception as exc:  # a flaky source must not kill the loop
            snapshot = {"error": repr(exc)}
        events: list[dict] = []
        with self._lock:
            self.evaluations += 1
            for rule in self.rules:
                state = self._states[rule.name]
                value = _lookup(snapshot, rule.metric)
                state.last_value = value
                breaching = value is not None and _OPS[rule.op](
                    float(value), float(rule.threshold)
                )
                if breaching:
                    if state.breach_since is None:
                        state.breach_since = now
                    sustained = now - state.breach_since >= rule.sustain_s
                    if not state.active and sustained:
                        state.active = True
                        state.fired_at = now
                        events.append(self._event("fire", rule, value, now))
                else:
                    state.breach_since = None
                    if state.active:
                        state.active = False
                        state.resolved_at = now
                        events.append(
                            self._event("resolve", rule, value, now)
                        )
        for event in events:
            for sink in self.sinks:
                try:
                    sink(event)
                except Exception:  # noqa: BLE001 - sinks are best-effort
                    pass
        return events

    @staticmethod
    def _event(kind: str, rule: AlertRule, value, now: float) -> dict:
        return {
            "event": kind,
            "rule": rule.name,
            "severity": rule.severity,
            "metric": rule.metric,
            "op": rule.op,
            "threshold": rule.threshold,
            "value": value,
            "description": rule.description,
            "unix_time": now,
        }

    def status(self) -> dict:
        """Rule-by-rule state for ``GET /alerts``."""
        with self._lock:
            rules = []
            for rule in self.rules:
                state = self._states[rule.name]
                rules.append({
                    **rule.as_dict(),
                    "active": state.active,
                    "last_value": state.last_value,
                    "fired_at": state.fired_at,
                    "resolved_at": state.resolved_at,
                })
            return {
                "evaluations": self.evaluations,
                "rules": rules,
                "active": [r["name"] for r in rules if r["active"]],
                "resolved": [
                    r["name"] for r in rules
                    if not r["active"] and r["resolved_at"] is not None
                ],
            }

    def prometheus_lines(self, prefix: str = "repro") -> str:
        """One ``<prefix>_alert_active{rule="..."} 0|1`` gauge per rule."""
        with self._lock:
            lines = [
                f'{prefix}_alert_active{{rule="{rule.name}",'
                f'severity="{rule.severity}"}} '
                f"{int(self._states[rule.name].active)}"
                for rule in self.rules
            ]
        return "\n".join(lines) + ("\n" if lines else "")
