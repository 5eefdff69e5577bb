"""One registry for every component's live stats, plus serve time series.

Long-lived components (:class:`~repro.runtime.session.Session`,
:class:`~repro.serve.results.ResultStore`,
:class:`~repro.workloads.cache.GraphCache`) register a zero-argument
stats callable under a short name at construction time; the daemon's
``GET /metrics`` endpoint collects them all and renders Prometheus text
without the daemon knowing which components exist.  Sources are held by
weak reference so registration never extends a component's lifetime —
dead sources are pruned on every collect.  Each source's samples carry
its registration token as a ``source`` label, so sources sharing a name
(two ``Session`` objects) export one series whose members keep their
labels for as long as they live.

:class:`MinuteRing` is the serve daemon's request time series: a bounded
ring of per-minute buckets (requests by outcome plus latency quantiles
over a bounded reservoir of samples) served behind ``/status?history=1``.
"""

from __future__ import annotations

import itertools
import re
import threading
import time
import weakref
from typing import Any, Callable

__all__ = [
    "ObsRegistry",
    "obs_registry",
    "render_prometheus",
    "MinuteRing",
]


class ObsRegistry:
    """Named weak-referenced stats sources, collected on demand."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: token -> (name, weakref whose referent is a zero-arg callable
        #: returning a flat-ish dict of stats).
        self._sources: dict[int, tuple[str, weakref.ref]] = {}
        self._tokens = itertools.count(1)

    def _prune_locked(self) -> None:
        dead = [token for token, (_, ref) in self._sources.items() if ref() is None]
        for token in dead:
            del self._sources[token]

    def register(self, name: str, source: Callable[[], dict]) -> int:
        """Register ``source`` under ``name`` (which other sources may share).

        Returns the token for :meth:`unregister`.  Bound methods are held
        via :class:`weakref.WeakMethod` so the owning object stays
        collectable.
        """
        ref: weakref.ref
        if hasattr(source, "__self__"):
            ref = weakref.WeakMethod(source)
        else:
            ref = weakref.ref(source)
        with self._lock:
            self._prune_locked()
            token = next(self._tokens)
            self._sources[token] = (name, ref)
        return token

    def unregister(self, token: int) -> None:
        """Remove a source by its registration token (missing is a no-op)."""
        with self._lock:
            self._sources.pop(token, None)

    def collect(self) -> dict[str, dict[int, dict]]:
        """``{name: {token: stats_dict}}`` from every live source.

        A source that raises contributes ``{"error": repr}`` instead of
        poisoning the whole collection (metrics endpoints must not 500
        because one component is mid-teardown).
        """
        with self._lock:
            self._prune_locked()
            live = [(token, name, ref()) for token, (name, ref) in self._sources.items()]
        out: dict[str, dict[int, dict]] = {}
        for token, name, source in live:
            if source is None:
                continue
            try:
                stats = dict(source())
            except Exception as exc:  # pragma: no cover - teardown races
                stats = {"error": repr(exc)}
            out.setdefault(name, {})[token] = stats
        return out


_GLOBAL = ObsRegistry()


def obs_registry() -> ObsRegistry:
    """The process-wide registry components register into."""
    return _GLOBAL


_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(*parts: str) -> str:
    return _NAME_RE.sub("_", "_".join(p for p in parts if p))


def render_prometheus(stats: dict[str, dict], prefix: str = "repro",
                      sources: dict[str, dict[int, dict]] | None = None) -> str:
    """Render nested stats dicts as Prometheus text exposition (v0.0.4).

    Numeric and boolean leaves become ``<prefix>_<name>_<path> value``
    lines; strings and other non-numeric leaves are skipped (Prometheus
    samples are numbers).  Nesting flattens with ``_``.  ``sources``
    (:meth:`ObsRegistry.collect`) render the same way with each sample
    labelled ``{source="<token>"}``; a series' lines stay together.
    """
    series: dict[str, list[str]] = {}

    def walk(name: str, value: Any, label: str) -> None:
        if isinstance(value, bool):
            value = int(value)
        if isinstance(value, (int, float)):
            series.setdefault(name, []).append(f"{name}{label} {value}")
        elif isinstance(value, dict):
            for key in sorted(value, key=str):
                walk(_metric_name(name, str(key)), value[key], label)

    entries = [(name, "", value) for name, value in stats.items()]
    for name, by_token in (sources or {}).items():
        entries += [(name, f'{{source="{token}"}}', by_token[token]) for token in sorted(by_token)]
    for name, label, value in sorted(entries, key=lambda entry: entry[0]):
        walk(_metric_name(prefix, name), value, label)
    return "\n".join(line for lines in series.values() for line in lines) + "\n"


_RING_KINDS = ("hits", "executed", "errors", "rejected", "timeouts")
#: Request-outcome kind -> bucket counter field.
_KIND_FIELD = {
    "hit": "hits",
    "executed": "executed",
    "error": "errors",
    "rejected": "rejected",
    "timeout": "timeouts",
}


def _quantile(sorted_samples: list[float], q: float) -> float:
    idx = int(round(q * (len(sorted_samples) - 1)))
    return sorted_samples[idx]


class MinuteRing:
    """Per-minute request/latency snapshots in a bounded ring.

    ``observe`` files one request outcome into the bucket of its minute;
    ``rows`` returns the retained buckets oldest-first, each with
    outcome counters and p50/p90/p99/max latency over a bounded
    reservoir of per-bucket samples (the first ``max_samples`` requests
    of the minute — deterministic, allocation-bounded, and exact for
    minutes under the cap).
    """

    def __init__(self, minutes: int = 180, max_samples: int = 512,
                 max_algos: int = 16) -> None:
        self.minutes = int(minutes)
        self.max_samples = int(max_samples)
        #: Cap on distinct per-bucket algo labels; overflow folds into
        #: ``"other"`` so request-supplied labels can't grow buckets
        #: without bound.
        self.max_algos = int(max_algos)
        self._lock = threading.Lock()
        #: epoch-minute -> mutable bucket dict (insertion-ordered).
        self._buckets: dict[int, dict] = {}

    def _bucket_locked(self, minute: int) -> dict:
        bucket = self._buckets.get(minute)
        if bucket is None:
            bucket = self._buckets[minute] = {
                "minute": minute,
                "requests": 0,
                **{kind: 0 for kind in _RING_KINDS},
                "samples": [],
                "algos": {},
            }
            # Evict by minute, not insertion order: an out-of-order
            # observe(now=) (clock step-back, replayed timestamp) must
            # drop the stale bucket — possibly the one just created —
            # never push out the newest.
            while len(self._buckets) > self.minutes:
                self._buckets.pop(min(self._buckets))
        return bucket

    def observe(
        self, latency_s: float, kind: str = "executed",
        now: float | None = None, algo: str | None = None,
    ) -> None:
        """File one request (``kind`` in hit/executed/error/rejected/timeout).

        ``algo`` additionally attributes the request to a per-algorithm
        breakdown within the bucket (the ``"algos"`` sub-dict rendered
        behind ``/status?history=1``); beyond :attr:`max_algos` distinct
        labels a bucket folds new labels into ``"other"``.

        Raises :class:`ValueError` on an unknown ``kind`` — a misspelled
        outcome must fail loudly, not silently inflate ``errors``.
        """
        try:
            field = _KIND_FIELD[kind]
        except KeyError:
            raise ValueError(
                f"unknown request kind {kind!r}; "
                f"expected one of {sorted(_KIND_FIELD)}"
            ) from None
        minute = int((time.time() if now is None else now) // 60)
        with self._lock:
            bucket = self._bucket_locked(minute)
            bucket["requests"] += 1
            bucket[field] += 1
            if len(bucket["samples"]) < self.max_samples:
                bucket["samples"].append(float(latency_s))
            if algo is not None:
                algos = bucket["algos"]
                label = str(algo)
                if label not in algos and len(algos) >= self.max_algos:
                    label = "other"
                per = algos.setdefault(
                    label,
                    {"requests": 0, **{kind: 0 for kind in _RING_KINDS}},
                )
                per["requests"] += 1
                per[field] += 1

    @staticmethod
    def _render(bucket: dict) -> dict:
        out = {
            "minute": bucket["minute"] * 60,
            "requests": bucket["requests"],
            **{kind: bucket[kind] for kind in _RING_KINDS},
        }
        samples = sorted(bucket["samples"])
        if samples:
            out["latency_p50_s"] = _quantile(samples, 0.50)
            out["latency_p90_s"] = _quantile(samples, 0.90)
            out["latency_p99_s"] = _quantile(samples, 0.99)
            out["latency_max_s"] = samples[-1]
            out["latency_mean_s"] = sum(samples) / len(samples)
        if bucket["algos"]:
            out["algos"] = {name: dict(counts)
                            for name, counts in bucket["algos"].items()}
        return out

    def rows(self, limit: int | None = None) -> list[dict]:
        """Retained buckets oldest-first (``limit`` keeps the newest N)."""
        with self._lock:
            buckets = [self._render(b) for b in self._buckets.values()]
        buckets.sort(key=lambda b: b["minute"])
        if limit is not None:
            buckets = buckets[-int(limit):]
        return buckets

    def current(self, now: float | None = None) -> dict:
        """The current minute's bucket (zeros when idle)."""
        minute = int((time.time() if now is None else now) // 60)
        with self._lock:
            bucket = self._buckets.get(minute)
            if bucket is None:
                return {
                    "minute": minute * 60,
                    "requests": 0,
                    **{kind: 0 for kind in _RING_KINDS},
                }
            return self._render(bucket)
