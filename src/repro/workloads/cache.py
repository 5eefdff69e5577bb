"""Content-addressed on-disk graph cache.

Built datasets are persisted as npz CSR snapshots keyed by the content
hash of their normalized spec (:meth:`DatasetSpec.content_hash`), so
repeated runs, sweeps, and CI jobs materialize each workload exactly
once::

    ~/.cache/repro/graphs/<hash>.npz    CSR snapshot (io.write_npz)
    ~/.cache/repro/graphs/<hash>.json   metadata sidecar (spec, n, m, ...)

Nothing derived from a placement is stored: per-machine shards live
only in the in-memory LRU of
:func:`repro.kmachine.distgraph.cached_distgraph`.  Earlier versions
wrote ``<hash>.shards-k<k>-<digest>.{npy,json}`` shard-snapshot files
here; they are never listed as entries, and the full pass of
:meth:`GraphCache.enforce_cap`, :meth:`GraphCache.evict` and
:meth:`GraphCache.clear` delete any they find, so no byte on disk
escapes the cap for long.

The root directory is ``$REPRO_DATA_DIR`` when set (the knob CI uses to
persist the cache across runs), else ``$XDG_CACHE_HOME/repro``, else
``~/.cache/repro``.

Guarantees:

* **atomic writes** — snapshots are written to a temp file in the cache
  directory and ``os.replace``d into place, and the metadata sidecar is
  written only after the snapshot, so a crash mid-write never leaves an
  entry that :func:`materialize` would trust (an npz without its sidecar
  is half-written garbage and gets overwritten);
* **concurrency-safe** — any number of processes (or threads) may
  ``materialize``/``evict``/``enforce_cap`` one root concurrently.  A
  snapshot deleted between another process's existence check and its
  read is treated as a plain miss (the loser rebuilds and re-stores),
  directory scans tolerate entries vanishing mid-scan, and temp files
  are named per-process *and* per-thread so concurrent writers of the
  same key never collide (``os.replace`` makes the last commit win with
  bit-identical contents either way);
* **LRU size cap** — the cache is bounded by ``$REPRO_CACHE_BYTES``
  (default 4 GiB); when a store pushes past the cap, least-recently-used
  entries are evicted (recency = snapshot mtime, bumped on every load).
  A store charges the bytes it wrote to a per-root running total; the
  full pass (:meth:`GraphCache.enforce_cap`: the sweep and the
  eviction scan) runs on a process's first store to a root, on the
  store that takes the total past the cap, and once
  :data:`RESCAN_SECONDS` have passed since the last one.  The directory
  can therefore exceed the cap only by what *other* processes stored
  since this process's last full pass, at most that many seconds ago;
* **content keys** — every graph returned by :func:`materialize` carries
  the spec hash in ``Graph.content_key``, which the in-memory shard LRU
  (:func:`repro.kmachine.distgraph.cached_distgraph`) uses to share
  materialized :class:`~repro.kmachine.DistributedGraph` shards across
  reloads of the same dataset;
* **resident graphs** — while anything (that LRU, a ``Session``, the
  caller) holds the graph a load or build-and-store handed out, a load
  of its still-stored key returns it instead of re-reading the npz.  The
  map holds graphs weakly; a shared graph's arrays are read-only.
"""

from __future__ import annotations

import json
import os
import threading
import time
import weakref
from dataclasses import dataclass
from pathlib import Path

from repro.errors import WorkloadError
from repro.graphs.graph import Graph
from repro.obs.registry import obs_registry
from repro.workloads import io as _io
from repro.workloads import spec as _spec
from repro.workloads.spec import DatasetSpec, parse_spec

__all__ = [
    "DATA_DIR_ENV",
    "CACHE_BYTES_ENV",
    "DEFAULT_CACHE_BYTES",
    "CacheEntry",
    "GraphCache",
    "cache_stats",
    "default_cache",
    "materialize",
]


class _CacheCounters:
    """Process-wide graph-cache traffic counters.

    :func:`default_cache` constructs a fresh (cheap) :class:`GraphCache`
    per call, so per-instance counters would never accumulate; every
    instance increments this shared set instead.  Plain int increments
    are atomic enough under the GIL for advisory telemetry, and
    :func:`cache_stats` is what the obs registry serves on ``/metrics``
    — deliberately no :meth:`GraphCache.entries` disk scan, which would
    make metrics polling O(cache size).
    """

    __slots__ = ("hits", "misses", "builds", "stores", "evictions")

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def stats(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


_COUNTERS = _CacheCounters()


def cache_stats() -> dict:
    """Process-wide graph-cache counters (hits/misses/builds/...)."""
    return _COUNTERS.stats()


obs_registry().register("graph_cache", cache_stats)

DATA_DIR_ENV = "REPRO_DATA_DIR"
CACHE_BYTES_ENV = "REPRO_CACHE_BYTES"
DEFAULT_CACHE_BYTES = 4 * 1024**3

#: Filename infix of the shard-snapshot files earlier versions wrote
#: beside an entry (``<key>.shards-k<k>-<digest>.{npy,json}``).
_LEGACY_SHARD_MARK = ".shards-"

#: Seconds after which a store runs the full cap pass even though this
#: process's total is under the cap (other processes write here too).
RESCAN_SECONDS = 60.0

#: root -> [bytes at the last full pass + bytes stored since, ``_clock()``
#: of that pass]; process-wide because :func:`default_cache` builds a
#: fresh :class:`GraphCache` per call.  Held across a full pass, so no
#: store is charged to a total the pass is about to replace.
_FOOTPRINTS: dict[str, list] = {}
_FOOTPRINTS_LOCK = threading.RLock()
_clock = time.monotonic

#: content key -> the graph last handed out, while anything holds it.
_RESIDENT: "weakref.WeakValueDictionary[str, Graph]" = weakref.WeakValueDictionary()


def _make_resident(key: str, graph: Graph) -> Graph:
    """Stamp ``graph`` with ``key``, freeze its arrays and register it."""
    for array in (graph.indptr, graph.indices, graph.edges):
        array.flags.writeable = False
    graph.content_key = key
    _RESIDENT[key] = graph
    return graph


def _default_root() -> Path:
    if os.environ.get(DATA_DIR_ENV):
        return Path(os.environ[DATA_DIR_ENV]).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro"


@dataclass(frozen=True)
class CacheEntry:
    """One cached dataset: its hash, spec string, shape, and footprint."""

    key: str
    spec: str
    family: str
    n: int
    m: int
    directed: bool
    nbytes: int
    last_used: float
    path: Path


class GraphCache:
    """A content-addressed graph cache rooted at one directory.

    All methods accept either a spec string/:class:`DatasetSpec` or a
    (possibly abbreviated) content-hash hex string where a dataset must
    be named.
    """

    def __init__(self, root: "str | Path | None" = None,
                 max_bytes: int | None = None) -> None:
        self.root = Path(root) if root is not None else _default_root()
        if max_bytes is None:
            raw = os.environ.get(CACHE_BYTES_ENV)
            if raw:
                # Same integer spellings as specs/--set: 2e9, 2_000_000_000.
                from repro.workloads.spec import literal_value

                max_bytes = literal_value(raw)
                if not isinstance(max_bytes, int) or isinstance(max_bytes, bool):
                    raise WorkloadError(
                        f"${CACHE_BYTES_ENV} must be an integer byte count, "
                        f"got {raw!r}"
                    )
            else:
                max_bytes = DEFAULT_CACHE_BYTES
        if max_bytes <= 0:
            raise WorkloadError(f"cache size cap must be positive, got {max_bytes}")
        self.max_bytes = max_bytes

    # -- paths ----------------------------------------------------------
    @property
    def graphs_dir(self) -> Path:
        return self.root / "graphs"

    def _paths(self, key: str) -> tuple[Path, Path]:
        return self.graphs_dir / f"{key}.npz", self.graphs_dir / f"{key}.json"

    # -- key resolution -------------------------------------------------
    def resolve_key(self, ref: "str | DatasetSpec") -> "str | None":
        """Resolve a spec or an abbreviated hash to a full content hash.

        ``None`` means an all-hex token that matches no entry: a cache
        miss, not a spec error.
        """
        if isinstance(ref, DatasetSpec):
            return ref.content_hash()
        ref = ref.strip()
        low = ref.lower()
        if (
            ":" in ref
            or not all(ch in "0123456789abcdef" for ch in low)
            or low in _spec.available_workloads()
        ):
            return parse_spec(ref).content_hash()
        if len(low) == 32:
            return low
        matches = [e.key for e in self.entries() if e.key.startswith(low)]
        if len(matches) > 1:
            raise WorkloadError(
                f"hash prefix {ref!r} is ambiguous: {', '.join(sorted(matches))}"
            )
        return matches[0] if matches else None

    # -- queries --------------------------------------------------------
    def has(self, ref: "str | DatasetSpec") -> bool:
        """Whether a committed entry exists (snapshot *and* sidecar)."""
        key = self.resolve_key(ref)
        if key is None:
            return False
        npz, meta = self._paths(key)
        return npz.exists() and meta.exists()

    def read_meta(self, key: str) -> dict | None:
        """The metadata sidecar of ``key`` (one small file read), or ``None``."""
        try:
            return json.loads(self._paths(key)[1].read_text())
        except (OSError, ValueError):
            return None  # absent, half-written, or evicted mid-read

    def _entry(self, key: str) -> CacheEntry | None:
        """``key``'s committed entry from its own two files, or ``None``."""
        npz, meta_path = self._paths(key)
        meta = self.read_meta(key)
        try:
            stat = npz.stat()
            return CacheEntry(
                key=key,
                spec=meta["spec"],
                family=meta["family"],
                n=int(meta["n"]),
                m=int(meta["m"]),
                directed=bool(meta["directed"]),
                nbytes=stat.st_size + meta_path.stat().st_size,
                last_used=stat.st_mtime,
                path=npz,
            )
        except (OSError, ValueError, KeyError, TypeError):
            # Half-written, foreign, or concurrently-evicted entry
            # (stat/read on a file that vanished mid-scan); skip it.
            return None

    def _scan(self) -> "list[os.DirEntry]":
        """One pass over the cache directory (empty when it does not exist)."""
        try:
            with os.scandir(self.graphs_dir) as scan:
                return list(scan)
        except OSError:
            return []

    def entries(self) -> list[CacheEntry]:
        """All committed entries, most recently used first.

        ``nbytes`` is the entry's full footprint — snapshot and
        metadata sidecar — so :meth:`enforce_cap` bounds what the cache
        actually occupies on disk.  Entries a concurrent process
        removes mid-scan are skipped, never raised.
        """
        return self._entries(self._scan())

    def _entries(self, scan: "list[os.DirEntry]", only: str = "") -> list[CacheEntry]:
        """The entries a directory pass lists (just those named ``only...``)."""
        keys: list[str] = []
        for item in scan:
            if item.name.startswith(".") or not item.name.startswith(only):
                continue  # a writer's temp file, or not the entry asked for
            if item.name.endswith(".json"):
                # An earlier version's shard manifest has no npz beside
                # it, so _entry skips it.
                keys.append(item.name[:-len(".json")])
        found = (self._entry(key) for key in keys)
        out = [entry for entry in found if entry is not None]
        out.sort(key=lambda e: e.last_used, reverse=True)
        return out

    def info(self, ref: "str | DatasetSpec") -> CacheEntry:
        """The committed entry for ``ref`` (raises if absent)."""
        key = self.resolve_key(ref)
        if key is None:
            raise WorkloadError(f"no cached dataset matches hash prefix {ref!r}")
        for entry in self._entries(self._scan(), only=f"{key}."):
            return entry
        raise WorkloadError(f"no cached dataset for {ref!r} (hash {key})")

    # -- load/store -----------------------------------------------------
    def load(self, spec: "str | DatasetSpec") -> Graph | None:
        """Load a cached dataset, or ``None`` on miss.

        A hit bumps the snapshot's mtime (the LRU recency marker) and
        stamps the graph with the spec's content key.
        """
        spec = parse_spec(spec)
        key = spec.content_hash()
        npz, meta = self._paths(key)
        if not (npz.exists() and meta.exists()):
            _COUNTERS.misses += 1
            return None
        graph = _RESIDENT.get(key)
        if graph is None:
            try:
                graph = _make_resident(key, _io.read_npz(npz))
            except FileNotFoundError:
                # A concurrent enforce_cap/evict deleted the snapshot between
                # the existence check and the read: a plain miss, not an
                # error — the caller rebuilds (and re-stores).
                _COUNTERS.misses += 1
                return None
        try:
            os.utime(npz, None)  # bump LRU recency
        except OSError:
            pass  # entry evicted after the check; the graph is fine
        _COUNTERS.hits += 1
        return graph

    def store(self, spec: "str | DatasetSpec", graph: Graph) -> Path:
        """Persist a built dataset atomically and charge it to the size cap."""
        spec = parse_spec(spec)
        if not spec.cacheable:
            raise WorkloadError(
                f"family {spec.family!r} is file-backed and not cacheable"
            )
        key = spec.content_hash()
        _RESIDENT.pop(key, None)  # a later load returns what is stored here
        npz, meta = self._paths(key)
        self.graphs_dir.mkdir(parents=True, exist_ok=True)
        # Temp names are per-process *and* per-thread: two concurrent
        # writers of one key must never share a temp file.
        writer = f"{os.getpid()}.{threading.get_ident()}"
        tmp = npz.with_name(f".{key}.{writer}.tmp")
        try:
            _io.write_npz(tmp, graph)
            os.replace(tmp, npz)
        finally:
            tmp.unlink(missing_ok=True)
        meta_tmp = meta.with_name(f".{key}.{writer}.meta.tmp")
        try:
            meta_tmp.write_text(json.dumps({
                "spec": spec.canonical(),
                "family": spec.family,
                "n": graph.n,
                "m": graph.m,
                "directed": graph.directed,
                "created": time.time(),
            }, indent=2) + "\n")
            os.replace(meta_tmp, meta)
        finally:
            meta_tmp.unlink(missing_ok=True)
        _COUNTERS.stores += 1
        self._charge(key, npz, meta)
        return npz

    #: Age (seconds) after which an orphaned temp file from a crashed
    #: writer is swept by :meth:`enforce_cap`.  Live writers finish (and
    #: unlink) their temp files in well under this.
    STALE_TMP_SECONDS = 3600.0

    def _charge(self, key: str, *written: Path) -> None:
        """Add a store's bytes to the root's total; full pass only when due:
        no scan of this root by this process yet, the total would cross
        :attr:`max_bytes`, or the last pass is :data:`RESCAN_SECONDS` old."""
        nbytes = 0
        for path in written:
            try:
                nbytes += path.stat().st_size
            except OSError:
                pass  # already evicted by another process: nothing to charge
        with _FOOTPRINTS_LOCK:
            footprint = _FOOTPRINTS.get(str(self.root))
            if (footprint is not None
                    and footprint[0] + nbytes <= self.max_bytes
                    and _clock() - footprint[1] < RESCAN_SECONDS):
                footprint[0] += nbytes
            else:
                self.enforce_cap(protect=key)

    def enforce_cap(self, protect: str | None = None) -> list[str]:
        """Evict least-recently-used entries until under the size cap.

        ``protect`` names a key never evicted (the entry just stored —
        a single dataset larger than the whole cap must still persist).
        Accounting covers each entry's full footprint (snapshot +
        sidecar), and what no entry owns is swept (:meth:`_sweep`) — so
        nothing on disk is invisible to the cap.  Entries a concurrent
        process removes mid-pass are simply skipped.  Stores run this
        full pass only when due (:meth:`_charge`); it restarts the root's
        running total from what is on disk.  Returns the evicted keys.
        """
        with _FOOTPRINTS_LOCK:
            scan = self._scan()  # one directory pass feeds the sweep and the entries
            self._sweep(scan)
            entries = self._entries(scan)
            total = sum(e.nbytes for e in entries)
            evicted: list[str] = []
            for entry in reversed(entries):  # least recently used first
                if total <= self.max_bytes:
                    break
                if entry.key == protect:
                    continue
                self._remove(entry.key)
                total -= entry.nbytes
                evicted.append(entry.key)
            _COUNTERS.evictions += len(evicted)
            _FOOTPRINTS[str(self.root)] = [total, _clock()]
        return evicted

    def _sweep(self, scan: "list[os.DirEntry]") -> None:
        """Delete the files no entry owns: temp files old enough that their
        writer must be dead, and the shard-snapshot files earlier versions
        wrote (a live writer's temp file is left to age)."""
        cutoff = time.time() - self.STALE_TMP_SECONDS
        for item in scan:
            try:
                if item.name.startswith("."):
                    if item.name.endswith(".tmp") and item.stat().st_mtime < cutoff:
                        os.unlink(item.path)
                elif _LEGACY_SHARD_MARK in item.name:
                    os.unlink(item.path)
            except OSError:
                continue  # vanished mid-sweep (another process's sweep)

    # -- removal --------------------------------------------------------
    def _remove(self, key: str) -> None:
        npz, meta = self._paths(key)
        meta.unlink(missing_ok=True)  # sidecar first: no orphaned "commit"
        npz.unlink(missing_ok=True)

    def evict(self, ref: "str | DatasetSpec") -> bool:
        """Remove one entry (and any shard-snapshot files an earlier
        version wrote beside it); returns whether the entry existed."""
        key = self.resolve_key(ref)
        if key is None:
            return False
        npz, meta = self._paths(key)
        existed = npz.exists() or meta.exists()
        self._remove(key)
        for legacy in self.graphs_dir.glob(f"{key}{_LEGACY_SHARD_MARK}*"):
            legacy.unlink(missing_ok=True)
        return existed

    def clear(self) -> int:
        """Remove every entry; returns the number of entries deleted.

        Earlier versions' shard-snapshot files go too, whether or not
        their entry is still here.
        """
        scan = self._scan()
        entries = self._entries(scan)
        for entry in entries:
            self._remove(entry.key)
        self._sweep(scan)
        return len(entries)

    # -- the cached build path ------------------------------------------
    def materialize(
        self,
        spec: "str | DatasetSpec",
        use_cache: bool = True,
    ) -> Graph:
        """Load a dataset from the cache, building (and storing) on miss.

        Non-cacheable (file-backed) families always build, and their
        graphs carry no content key (see
        :func:`~repro.workloads.spec.build_dataset`).
        """
        spec = parse_spec(spec)
        if use_cache and spec.cacheable:
            graph = self.load(spec)
            if graph is not None:
                return graph
        graph = _spec.build_dataset(spec)
        _COUNTERS.builds += 1
        if use_cache and spec.cacheable:
            self.store(spec, graph)
            _make_resident(graph.content_key, graph)
        return graph


def default_cache() -> GraphCache:
    """A cache at the environment-resolved root (cheap to construct)."""
    return GraphCache()


def materialize(spec: "str | DatasetSpec", use_cache: bool = True) -> Graph:
    """Module-level convenience: :meth:`GraphCache.materialize` at the
    default root.  This is the entry point ``runtime.run(dataset=...)``
    and the CLI use."""
    return default_cache().materialize(spec, use_cache=use_cache)
