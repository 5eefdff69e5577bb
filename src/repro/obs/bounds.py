"""The run verdict: measured rounds and link loads vs the family theorems.

Every :class:`~repro.runtime.registry.AlgorithmSpec` carries the paper's
matching theorem as prose (``bounds``) and, when available, callables
for the round lower bound (``lower_bound``) and the Õ upper-bound
polynomial (``upper_bound``).  :func:`compute_bound_report` evaluates
both once at a run's ``(n, k, B)`` and checks every phase the metrics
layer charged against them, producing the :class:`BoundReport` that
``RunReport.bound_report`` carries (cached hits included), the CLI
prints and the serve daemon attaches to ``/run`` replies.

The Õ notation hides polylogarithmic factors, so the *envelope* a
measured run is checked against is ``upper_bound(n, k, B) * polylog(n)``
with the same ``polylog(n) = 32 ceil(log2 n)`` slack the model uses for
its default bandwidth — generous by design: a run that *exceeds* it has
broken the theorem (or the accounting), while the informative ratio for
plots is ``measured / core`` (how much of the hidden polylog factor an
implementation actually spends).

The k-machine model's claims are per-round claims, so the check is
round-granular: every phase becomes a :class:`LedgerEntry` with running
totals, flagged when its cumulative rounds cross the envelope (and
every phase after it stays flagged) or when its own heaviest link
crosses ``bits_budget = envelope * bandwidth`` — the most bits one link
may carry over the whole run if the envelope holds.  When the run was
traced, the engines' per-phase ``top_links`` attributions are zipped
onto the matching entries so a flagged phase also names the guilty
links.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro._util import polylog

__all__ = ["BoundReport", "LedgerEntry", "compute_bound_report",
           "compute_ledger_report"]

#: Violations included verbatim in :meth:`BoundReport.as_dict` — serve
#: replies must stay bounded no matter how many phases a run charged.
_DICT_ENTRY_CAP = 20


def _fmt(value: float | None) -> str:
    if value is None:
        return "-"
    return f"{value:,.4g}" if value < 1e6 else f"{value:.3e}"


@dataclass(frozen=True)
class LedgerEntry:
    """One communication phase's ledger line.

    ``cumulative_rounds`` / ``cumulative_bits`` are the running totals
    *including* this phase; ``over_budget`` is True when either the
    cumulative rounds crossed the report's Õ envelope or this phase's
    own heaviest link crossed its ``bits_budget``.
    """

    index: int
    label: str
    rounds: int
    cumulative_rounds: int
    messages: int
    bits: int
    cumulative_bits: int
    max_link_bits: int
    over_budget: bool
    #: ``[src, dst, bits]`` heaviest links from the trace, when the run
    #: was traced and the phase stream matched the metrics phase log.
    top_links: tuple | None = None

    def as_dict(self) -> dict[str, Any]:
        out = {
            "index": self.index,
            "label": self.label,
            "rounds": self.rounds,
            "cumulative_rounds": self.cumulative_rounds,
            "messages": self.messages,
            "bits": self.bits,
            "cumulative_bits": self.cumulative_bits,
            "max_link_bits": self.max_link_bits,
            "over_budget": self.over_budget,
        }
        if self.top_links is not None:
            out["top_links"] = [list(link) for link in self.top_links]
        return out


@dataclass(frozen=True)
class BoundReport:
    """Measured rounds / link loads vs the family theorem's envelope.

    ``upper_bound_core`` is the theorem's polynomial part evaluated at
    the run's parameters; ``upper_bound_rounds`` multiplies in the
    ``polylog_slack`` the Õ hides.  ``lower_bound_rounds`` comes from
    the General Lower Bound Theorem cookbook when the family declares
    one.  Fields are ``None`` when the spec declares no matching bound
    (then no entry is ever flagged: "no declared bound" is not a
    violation).  ``entries`` is the per-phase ledger.
    """

    algo: str
    n: int
    k: int
    bandwidth: int
    measured_rounds: int
    measured_phases: int
    bounds: str
    lower_bound_rounds: float | None
    upper_bound_core: float | None
    upper_bound_rounds: float | None
    polylog_slack: float
    entries: tuple[LedgerEntry, ...]
    #: The phase carrying the heaviest single-link load (first on ties).
    heaviest_entry: LedgerEntry | None

    @property
    def measured_max_link_bits(self) -> int:
        """Heaviest single-link bit load over all phases of the run."""
        return self.heaviest_entry.max_link_bits if self.heaviest_entry else 0

    @property
    def heaviest_phase(self) -> str:
        """Label of the phase carrying that load (``""`` when it is 0)."""
        return self.heaviest_entry.label if self.measured_max_link_bits else ""

    @property
    def bits_budget(self) -> float | None:
        """Most bits one link may carry over the run inside the envelope."""
        if self.upper_bound_rounds is None:
            return None
        return self.upper_bound_rounds * self.bandwidth

    @property
    def total_bits(self) -> int:
        return self.entries[-1].cumulative_bits if self.entries else 0

    @property
    def violations(self) -> tuple[LedgerEntry, ...]:
        """The flagged entries (the first one names the offending phase)."""
        return tuple(e for e in self.entries if e.over_budget)

    @property
    def first_violation(self) -> LedgerEntry | None:
        return next((e for e in self.entries if e.over_budget), None)

    @property
    def within_envelope(self) -> bool | None:
        """Measured rounds do not exceed the Õ envelope (None: no bound)."""
        if self.upper_bound_rounds is None:
            return None
        return self.measured_rounds <= self.upper_bound_rounds

    @property
    def above_lower_bound(self) -> bool | None:
        """Measured rounds are >= the lower bound, as any correct run must be."""
        if self.lower_bound_rounds is None:
            return None
        return self.measured_rounds >= self.lower_bound_rounds

    @property
    def measured_over_core(self) -> float | None:
        """Measured rounds / polynomial part — the polylog factor spent."""
        if self.upper_bound_core is None or self.upper_bound_core <= 0:
            return None
        return self.measured_rounds / self.upper_bound_core

    @property
    def ok(self) -> bool:
        """No phase is over budget and the run is not below the lower bound."""
        return self.first_violation is None and self.above_lower_bound is not False

    def as_dict(self) -> dict[str, Any]:
        """Bounded JSON summary (serve replies, bench artifacts).

        Carries every violation (up to a cap) but only the *count* of
        clean entries — a 10k-phase PageRank run must not balloon the
        ``/run`` reply.
        """
        violations = self.violations
        return {
            "algo": self.algo,
            "n": self.n,
            "k": self.k,
            "bandwidth": self.bandwidth,
            "measured_rounds": self.measured_rounds,
            "measured_phases": self.measured_phases,
            "measured_max_link_bits": self.measured_max_link_bits,
            "heaviest_phase": self.heaviest_phase,
            "bounds": self.bounds,
            "lower_bound_rounds": self.lower_bound_rounds,
            "upper_bound_core": self.upper_bound_core,
            "upper_bound_rounds": self.upper_bound_rounds,
            "polylog_slack": self.polylog_slack,
            "bits_budget": self.bits_budget,
            "total_bits": self.total_bits,
            "within_envelope": self.within_envelope,
            "above_lower_bound": self.above_lower_bound,
            "measured_over_core": self.measured_over_core,
            "ok": self.ok,
            "violation_count": len(violations),
            "violations": [e.as_dict() for e in violations[:_DICT_ENTRY_CAP]],
        }

    def rows(self) -> list[tuple[str, str]]:
        """``(label, value)`` rows for CLI tables."""
        rows: list[tuple[str, str]] = [("theorem", self.bounds)]
        if self.upper_bound_rounds is not None:
            verdict = "within" if self.within_envelope else "EXCEEDS"
            rows.append(
                (
                    "upper envelope",
                    f"{self.measured_rounds:,} rounds {verdict} "
                    f"Õ-envelope {_fmt(self.upper_bound_rounds)} "
                    f"(core {_fmt(self.upper_bound_core)} × "
                    f"polylog {_fmt(self.polylog_slack)})",
                )
            )
            ratio = self.measured_over_core
            if ratio is not None:
                rows.append(("measured / core", f"{ratio:.3g}"))
        if self.lower_bound_rounds is not None:
            verdict = "above" if self.above_lower_bound else "BELOW"
            rows.append(
                (
                    "lower bound",
                    f"{self.measured_rounds:,} rounds {verdict} "
                    f"lower bound {_fmt(self.lower_bound_rounds)}",
                )
            )
        rows.append(
            (
                "heaviest link",
                f"{self.measured_max_link_bits:,} bits"
                + (f" in phase {self.heaviest_phase!r}" if self.heaviest_phase else ""),
            )
        )
        if self.upper_bound_rounds is None:
            rows.append(("ledger", f"{len(self.entries)} phases, no declared "
                                   f"Õ budget to check against"))
            return rows
        first = self.first_violation
        if first is None:
            rows.append((
                "ledger",
                f"{len(self.entries)} phases within round budget "
                f"{_fmt(self.upper_bound_rounds)} "
                f"(cumulative {self.measured_rounds:,} rounds)",
            ))
        else:
            rows.append((
                "ledger",
                f"BUDGET EXCEEDED at phase {first.index} "
                f"{first.label!r}: {first.cumulative_rounds:,} cumulative "
                f"rounds / {first.max_link_bits:,} link bits vs budget "
                f"{_fmt(self.upper_bound_rounds)} rounds / "
                f"{_fmt(self.bits_budget)} bits "
                f"({len(self.violations)} phase(s) flagged)",
            ))
        heaviest = self.heaviest_entry
        if heaviest is not None:
            rows.append((
                "ledger headroom",
                f"heaviest link {heaviest.max_link_bits:,} bits in phase "
                f"{heaviest.index} {heaviest.label!r} = "
                f"{heaviest.max_link_bits / self.bits_budget:.2%} of the "
                f"link-bits budget",
            ))
        return rows


def _trace_top_links(events, phase_log) -> list | None:
    """Per-phase ``top_links`` from a trace, aligned to the phase log.

    The engines emit one stats-carrying ``phase`` event per
    ``record_phase`` call, in charge order.  Alignment is only trusted
    when the streams agree phase-for-phase on ``(rounds, bits)`` —
    anything else (a shared tracer carrying other runs, a partial
    trace) returns ``None`` rather than mis-attributing links.
    """
    if not events:
        return None
    stat_events = [
        e for e in events
        if e.get("event") == "phase" and "rounds" in e and "bits" in e
    ]
    if len(stat_events) != len(phase_log):
        return None
    for event, phase in zip(stat_events, phase_log):
        if event["rounds"] != phase.rounds or event["bits"] != phase.bits:
            return None
    return [e.get("top_links") for e in stat_events]


def compute_bound_report(
    spec,
    *,
    n: int,
    k: int,
    bandwidth: int,
    metrics,
    result=None,
    m: int | None = None,
    events: list | None = None,
) -> BoundReport:
    """Evaluate ``spec``'s declared bounds against a run's metrics.

    ``result`` feeds :attr:`AlgorithmSpec.lower_bound_extra` (families
    whose lower bound depends on the output, e.g. triangle counts);
    ``m`` is the input's edge count when known (families whose upper
    bound mixes ``m`` and ``n`` terms); ``events`` is an optional trace
    event list used to attach per-phase ``top_links`` attributions
    (best-effort — a mismatched stream is silently ignored).
    """
    lower = None
    if spec.lower_bound is not None:
        extra = (
            spec.lower_bound_extra(result)
            if spec.lower_bound_extra is not None and result is not None
            else {}
        )
        try:
            lower = float(spec.lower_bound(n, k, bandwidth, **extra))
        except ValueError:
            lower = None  # out of the theorem's stated domain (tiny n/k)
    slack = float(polylog(n))
    core = envelope = None
    if spec.upper_bound is not None:
        try:
            core = float(spec.upper_bound(n=n, k=k, bandwidth=bandwidth, m=m))
            envelope = max(core, 1.0) * slack
        except ValueError:
            core = envelope = None
    links = _trace_top_links(events, metrics.phase_log)
    entries = []
    heaviest = None
    cum_rounds = cum_bits = 0
    for index, phase in enumerate(metrics.phase_log):
        cum_rounds += phase.rounds
        cum_bits += phase.bits
        top = links[index] if links is not None else None
        entry = LedgerEntry(
            index=index,
            label=phase.label,
            rounds=phase.rounds,
            cumulative_rounds=cum_rounds,
            messages=phase.messages,
            bits=phase.bits,
            cumulative_bits=cum_bits,
            max_link_bits=phase.max_link_bits,
            over_budget=envelope is not None and (
                cum_rounds > envelope
                or phase.max_link_bits > envelope * bandwidth
            ),
            top_links=tuple(tuple(link) for link in top) if top else None,
        )
        entries.append(entry)
        if heaviest is None or entry.max_link_bits > heaviest.max_link_bits:
            heaviest = entry
    return BoundReport(
        algo=spec.name,
        n=int(n),
        k=int(k),
        bandwidth=int(bandwidth),
        measured_rounds=int(metrics.rounds),
        measured_phases=int(metrics.phases),
        bounds=spec.bounds,
        lower_bound_rounds=lower,
        upper_bound_core=core,
        upper_bound_rounds=envelope,
        polylog_slack=slack,
        entries=tuple(entries),
        heaviest_entry=heaviest,
    )


#: The name the benchmark harness's staged pass still calls with
#: ``events=``; it goes when that staged copy of ``runtime.run`` does.
compute_ledger_report = compute_bound_report
