"""Observability: tracing, the theorem check, telemetry.

Every piece is designed to cost nothing when unused:

- :mod:`repro.obs.trace` — a :class:`Tracer` the engines emit per-phase
  wall-clock events into (JSONL with a versioned schema), plus the
  shared :data:`NULL_TRACER` no-op every engine carries by default.
- :mod:`repro.obs.bounds` — :class:`BoundReport`, the one verdict per
  run, attached as ``RunReport.bound_report`` on every run, cached hits
  included.  **Contract**: the Õ envelope is ``max(core, 1) *
  polylog(n)`` and ``bits_budget = envelope * bandwidth`` (the paper's
  B-bits-per-link-per-round accounting); every phase the metrics layer
  charged becomes a :class:`LedgerEntry` with running totals, flagged
  when its cumulative rounds cross the envelope or its own heaviest
  link crosses ``bits_budget``; ``ok`` means no entry is flagged and
  the run is not below the General Lower Bound Theorem's floor.  A
  family with no declared ``upper_bound`` flags nothing.
- :mod:`repro.obs.export` — ``repro trace export``: the JSONL schema
  converted to Chrome trace-event JSON (chrome://tracing, Perfetto and
  speedscope all open it), plus :func:`validate_chrome_trace`, the
  schema check CI runs.
- :mod:`repro.obs.registry` — :func:`obs_registry`, the process-wide
  weak-referenced stats registry the serve daemon's ``/metrics``
  endpoint collects, and :class:`MinuteRing`, the per-minute request
  time series behind ``/status?history=1``.

Enable tracing with ``runtime.run(trace="out.jsonl")`` (or a
:class:`Tracer` instance, or ``trace=True`` for in-memory events), the
CLI's ``--trace out.jsonl``, or ``$REPRO_TRACE``; render a trace with
``python -m repro trace summarize out.jsonl`` or export it with
``python -m repro trace export out.jsonl``.
"""

from repro._lazy import lazy_exports

# Every public name with the module that defines it; each resolves on
# first access, so a run that only traces never loads export.
_EXPORTS = {
    **dict.fromkeys(
        ["BoundReport", "LedgerEntry", "compute_bound_report", "compute_ledger_report"],
        "repro.obs.bounds",
    ),
    **dict.fromkeys(
        ["export_chrome", "validate_chrome_trace", "write_export"],
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
