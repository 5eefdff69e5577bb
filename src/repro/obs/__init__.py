"""Observability: tracing, bound checking, ledger, alerts, telemetry.

Every piece is designed to cost nothing when unused:

- :mod:`repro.obs.trace` — a :class:`Tracer` the engines emit per-phase
  wall-clock events into (JSONL with a versioned schema), plus the
  shared :data:`NULL_TRACER` no-op every engine carries by default.
- :mod:`repro.obs.bounds` — :class:`BoundReport`: measured rounds and
  link loads checked against the family theorem's Õ envelope and lower
  bound, attached to every :class:`~repro.runtime.registry.RunReport`.
- :mod:`repro.obs.ledger` — :class:`LedgerReport`: the round-granular
  version of the same check.  **Contract**: every phase the metrics
  layer charged becomes a :class:`LedgerEntry` with running totals; the
  budgets are ``round_budget = max(core, 1) * polylog(n) * slack``
  (``slack=1.0`` reproduces the BoundReport envelope) and
  ``bits_budget = round_budget * bandwidth`` (the paper's B-bits-per-
  link-per-round accounting); an entry is flagged when its cumulative
  rounds cross ``round_budget`` or its own heaviest link crosses
  ``bits_budget``; a family with no declared ``upper_bound`` flags
  nothing (``ok`` is vacuously True).  Attached to ``RunReport.
  ledger_report`` on every run, cached hits included.
- :mod:`repro.obs.alerts` — :class:`AlertRule` / :class:`AlertEngine`.
  **Contract**: a rule names a dotted metric path into the daemon's
  snapshot (``serve.*`` derived from the :class:`MinuteRing` window and
  session counters, plus every :func:`obs_registry` source by name), an
  ``op``/``threshold``, a ``sustain_s`` window, and a severity.  A rule
  fires after its metric breaches continuously for ``sustain_s`` and
  resolves on the first clean evaluation; a missing or ``None`` metric
  never breaches.  Events go to pluggable sinks; state is served at
  ``GET /alerts`` and as ``repro_alert_active`` Prometheus gauges.  With
  no rules configured the daemon builds no engine and the request path
  is untouched.
- :mod:`repro.obs.export` — ``repro trace export`` converters from the
  JSONL schema to Chrome trace-event and speedscope JSON, plus
  :func:`validate_chrome_trace`, the schema check CI runs.
- :mod:`repro.obs.registry` — :func:`obs_registry`, the process-wide
  weak-referenced stats registry the serve daemon's ``/metrics``
  endpoint collects, and :class:`MinuteRing`, the per-minute request
  time series behind ``/status?history=1`` (its :meth:`~MinuteRing.
  window` merge feeds the alert engine).

Enable tracing with ``runtime.run(trace="out.jsonl")`` (or a
:class:`Tracer` instance, or ``trace=True`` for in-memory events), the
CLI's ``--trace out.jsonl``, or ``$REPRO_TRACE``; render a trace with
``python -m repro trace summarize out.jsonl`` or export it with
``python -m repro trace export out.jsonl --format chrome``.
"""

from repro._lazy import lazy_exports

# Every public name with the module that defines it; each resolves on
# first access, so a run that only traces never loads alerts or export.
_EXPORTS = {
    "BoundReport": "repro.obs.bounds",
    "compute_bound_report": "repro.obs.bounds",
    "LedgerEntry": "repro.obs.ledger",
    "LedgerReport": "repro.obs.ledger",
    "compute_ledger_report": "repro.obs.ledger",
    **dict.fromkeys(
        [
            "ALERT_RULES_ENV",
            "AlertEngine",
            "AlertRule",
            "default_rules",
            "load_rules",
            "resolve_alert_rules",
            "stderr_sink",
            "jsonl_sink",
            "webhook_sink",
        ],
        "repro.obs.alerts",
    ),
    **dict.fromkeys(
        [
            "EXPORT_FORMATS",
            "export_chrome",
            "export_speedscope",
            "export_trace",
            "validate_chrome_trace",
            "write_export",
        ],
        "repro.obs.export",
    ),
    **dict.fromkeys(
        ["MinuteRing", "ObsRegistry", "obs_registry", "render_prometheus"],
        "repro.obs.registry",
    ),
    "format_summary": "repro.obs.summarize",
    "summarize_trace": "repro.obs.summarize",
    **dict.fromkeys(
        [
            "NULL_TRACER",
            "TRACE_ENV",
            "TRACE_SCHEMA_VERSION",
            "NullTracer",
            "TraceError",
            "Tracer",
            "read_trace",
            "resolve_tracer",
        ],
        "repro.obs.trace",
    ),
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
