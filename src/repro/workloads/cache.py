"""Content-addressed on-disk graph cache.

Built datasets are persisted as npz CSR snapshots keyed by the content
hash of their normalized spec (:meth:`DatasetSpec.content_hash`), so
repeated runs, sweeps, and CI jobs materialize each workload exactly
once::

    ~/.cache/repro/graphs/<hash>.npz    CSR snapshot (io.write_npz)
    ~/.cache/repro/graphs/<hash>.json   metadata sidecar (spec, n, m, ...)
    ~/.cache/repro/graphs/<hash>.shards-k<k>-<digest>.npy   shard snapshot blob
    ~/.cache/repro/graphs/<hash>.shards-k<k>-<digest>.json  shard manifest

The ``.shards-*`` sidecars persist *derived* artifacts: the
per-machine :class:`~repro.kmachine.DistributedGraph` arrays for one
``(content key, k, partition)`` triple, in the flat mmap-friendly
format of :func:`repro.workloads.io.write_shard_blob`.  A warm start
maps them read-only instead of re-materializing shards from the CSR.
They ride the parent entry's lifecycle: their bytes count toward the
LRU cap under the parent's key, eviction removes them with the parent,
and orphans (parent evicted by an older version of this code, or a
crashed mid-commit writer) are swept by :meth:`GraphCache.enforce_cap`.

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
  full pass (:meth:`GraphCache.enforce_cap`: both sweeps and the
  eviction scan) runs on a process's first store to a root, on the
  store that takes the total past the cap, and once
  :data:`RESCAN_SECONDS` have passed since the last one.  The directory
  can therefore exceed the cap only by what *other* processes stored
  since this process's last full pass, at most that many seconds ago;
* **content keys** — every graph returned by :func:`materialize` carries
  the spec hash in ``Graph.content_key``, which the in-memory shard LRU
  (:func:`repro.kmachine.distgraph.cached_distgraph`) uses to share
  materialized :class:`~repro.kmachine.DistributedGraph` shards across
  reloads of the same dataset.
"""

from __future__ import annotations

import json
import os
import threading
import time
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

    __slots__ = ("hits", "misses", "builds", "stores", "evictions",
                 "shard_hits", "shard_misses")

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

#: Filename infix marking a shard-snapshot sidecar of a cached graph:
#: ``<key>.shards-k<k>-<digest>.{npy,json}``.
SHARD_SIDECAR_MARK = ".shards-"

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

    def _shard_paths(self, key: str, k: int, digest: str) -> tuple[Path, Path]:
        stem = f"{key}{SHARD_SIDECAR_MARK}k{k}-{digest}"
        return self.graphs_dir / f"{stem}.npy", self.graphs_dir / f"{stem}.json"

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

    def _entry(self, key: str, shard_bytes: int) -> CacheEntry | None:
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
                nbytes=stat.st_size + meta_path.stat().st_size + shard_bytes,
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

        ``nbytes`` is the entry's full footprint — snapshot, metadata
        sidecar, *and* any shard-snapshot sidecars — so
        :meth:`enforce_cap` bounds what the cache actually occupies on
        disk.  One directory pass, whatever the number of sidecars.
        Entries a concurrent process removes mid-scan are skipped,
        never raised.
        """
        return self._entries(self._scan())

    def _entries(self, scan: "list[os.DirEntry]", only: str = "") -> list[CacheEntry]:
        """The entries a directory pass lists (just those named ``only...``)."""
        keys: list[str] = []
        shard_bytes: dict[str, int] = {}
        for item in scan:
            if item.name.startswith(".") or not item.name.startswith(only):
                continue  # a writer's temp file, or not the entry asked for
            key, mark, _ = item.name.partition(SHARD_SIDECAR_MARK)
            if mark:  # shard sidecars ride their parent entry
                try:
                    size = item.stat().st_size
                except OSError:
                    continue  # vanished mid-scan
                shard_bytes[key] = shard_bytes.get(key, 0) + size
            elif item.name.endswith(".json"):
                keys.append(item.name[:-len(".json")])
        found = (self._entry(key, shard_bytes.get(key, 0)) for key in keys)
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
        try:
            graph = _io.read_npz(npz)
        except FileNotFoundError:
            # A concurrent enforce_cap/evict deleted the snapshot between
            # the existence check and the read: a plain miss, not an
            # error — the caller rebuilds (and re-stores).
            _COUNTERS.misses += 1
            return None
        try:
            os.utime(npz, None)  # bump LRU recency
        except OSError:
            pass  # entry evicted after the read; the loaded graph is fine
        graph.content_key = key
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

    # -- shard snapshot sidecars ----------------------------------------
    def store_shards(
        self,
        key: str,
        k: int,
        digest: str,
        sections: dict,
        meta: dict,
    ) -> Path | None:
        """Persist a shard snapshot sidecar for a *committed* entry.

        Writes the flat blob + manifest atomically (blob replaced first;
        the manifest is the commit marker, so a reader that sees the
        manifest sees a complete blob).  Returns ``None`` without
        writing when ``key`` has no committed parent entry — sidecars
        never outlive (or predate) the graph they derive from.
        """
        _, graph_meta = self._paths(key)
        if not graph_meta.exists():
            return None
        npy, manifest = self._shard_paths(key, k, digest)
        self.graphs_dir.mkdir(parents=True, exist_ok=True)
        writer = f"{os.getpid()}.{threading.get_ident()}"
        tmp_npy = npy.with_name(f".{npy.name}.{writer}.tmp")
        tmp_json = manifest.with_name(f".{manifest.name}.{writer}.tmp")
        try:
            _io.write_shard_blob(tmp_npy, tmp_json, sections, meta)
            os.replace(tmp_npy, npy)
            os.replace(tmp_json, manifest)
        except FileNotFoundError:
            # A concurrent stale-tmp sweep beat us to the rename.  The
            # snapshot is best-effort; losing one write is a benign miss.
            return None
        finally:
            tmp_npy.unlink(missing_ok=True)
            tmp_json.unlink(missing_ok=True)
        self._charge(key, npy, manifest)
        return npy

    def load_shards(self, key: str, k: int, digest: str):
        """Map a committed shard sidecar read-only, or ``None`` on miss.

        Returns ``(views, manifest)`` where ``views`` are the mmap'd
        int64 section arrays.  Any vanished file (concurrent eviction)
        or format-version mismatch is a plain miss; the caller
        re-materializes shards from the CSR and re-stores.  A hit bumps
        both the sidecar's and the parent snapshot's mtime so hot
        entries stay at the front of the LRU.
        """
        npy, manifest_path = self._shard_paths(key, k, digest)
        try:
            manifest = _io.read_shard_manifest(manifest_path)
            views = _io.map_shard_blob(npy, manifest)
        except FileNotFoundError:
            # SnapshotMissingError included: missing file, stale format
            # version, or an eviction racing this load — all misses.
            _COUNTERS.shard_misses += 1
            return None
        _COUNTERS.shard_hits += 1
        for path in (npy, self._paths(key)[0]):
            try:
                os.utime(path, None)
            except OSError:
                pass
        return views, manifest

    def list_shards(self, key: str) -> list[tuple[int, str]]:
        """Committed shard sidecars for ``key`` as ``(k, digest)`` pairs.

        Parsed from manifest filenames only — no file is opened, so this
        is safe to call while other processes store/evict concurrently.
        """
        out: list[tuple[int, str]] = []
        pattern = f"{key}{SHARD_SIDECAR_MARK}*.json"
        for manifest in sorted(self.graphs_dir.glob(pattern)):
            stem = manifest.name.split(SHARD_SIDECAR_MARK, 1)[1][:-len(".json")]
            if not stem.startswith("k") or "-" not in stem:
                continue
            k_text, digest = stem[1:].split("-", 1)
            try:
                out.append((int(k_text), digest))
            except ValueError:
                continue
        return out

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
        sidecar), and temp files abandoned by crashed writers are swept
        once they are older than :attr:`STALE_TMP_SECONDS` — so nothing
        the cache writes is invisible to the cap.  Entries a concurrent
        process removes mid-pass are simply skipped.  Stores run this
        full pass only when due (:meth:`_charge`); it restarts the root's
        running total from what is on disk.  Returns the evicted keys.
        """
        with _FOOTPRINTS_LOCK:
            scan = self._scan()  # one directory pass feeds both sweeps and the entries
            self._sweep_stale_tmp(scan)
            self._sweep_orphan_shards(scan)
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

    def _sweep_stale_tmp(self, scan: "list[os.DirEntry]") -> None:
        """Delete temp files old enough that their writer must be dead."""
        cutoff = time.time() - self.STALE_TMP_SECONDS
        for item in scan:
            if item.name.startswith(".") and item.name.endswith(".tmp"):
                try:
                    if item.stat().st_mtime < cutoff:
                        os.unlink(item.path)
                except OSError:
                    continue  # vanished mid-sweep (another process's sweep)

    def _sweep_orphan_shards(self, scan: "list[os.DirEntry]") -> None:
        """Delete shard sidecars whose parent entry (or commit) is gone.

        Two flavors of orphan: a sidecar for an entry some other process
        already evicted (its bytes would otherwise be invisible to the
        cap), and a blob whose manifest never landed because its writer
        crashed between the two commit renames — the latter only once it
        is old enough that the writer must be dead.  A file the scan did
        not list is looked for once more: it may have landed meanwhile.
        """
        cutoff = time.time() - self.STALE_TMP_SECONDS
        names = {item.name for item in scan}

        def missing(name: str) -> bool:
            return name not in names and not (self.graphs_dir / name).exists()

        for item in scan:
            key, mark, _ = item.name.partition(SHARD_SIDECAR_MARK)
            if not mark or item.name.startswith("."):
                # Not a sidecar, or a live writer's tmp file (its name
                # embeds the sidecar name); _sweep_stale_tmp owns those —
                # deleting one here would race the commit rename.
                continue
            try:
                if missing(f"{key}.json") or (
                        item.name.endswith(".npy")
                        and missing(item.name[:-len(".npy")] + ".json")
                        and item.stat().st_mtime < cutoff):
                    os.unlink(item.path)
            except OSError:
                continue  # vanished mid-sweep

    # -- removal --------------------------------------------------------
    def _remove(self, key: str) -> None:
        npz, meta = self._paths(key)
        meta.unlink(missing_ok=True)  # sidecar first: no orphaned "commit"
        for sidecar in self.graphs_dir.glob(f"{key}{SHARD_SIDECAR_MARK}*.json"):
            sidecar.unlink(missing_ok=True)  # manifests first, same reason
        for sidecar in self.graphs_dir.glob(f"{key}{SHARD_SIDECAR_MARK}*"):
            sidecar.unlink(missing_ok=True)
        npz.unlink(missing_ok=True)

    def evict(self, ref: "str | DatasetSpec") -> bool:
        """Remove one entry; returns whether anything was deleted."""
        key = self.resolve_key(ref)
        if key is None:
            return False
        npz, meta = self._paths(key)
        existed = npz.exists() or meta.exists()
        self._remove(key)
        return existed

    def clear(self) -> int:
        """Remove every entry; returns the number of entries deleted."""
        entries = self.entries()
        for entry in entries:
            self._remove(entry.key)
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
        return graph


def default_cache() -> GraphCache:
    """A cache at the environment-resolved root (cheap to construct)."""
    return GraphCache()


def materialize(spec: "str | DatasetSpec", use_cache: bool = True) -> Graph:
    """Module-level convenience: :meth:`GraphCache.materialize` at the
    default root.  This is the entry point ``runtime.run(dataset=...)``
    and the CLI use."""
    return default_cache().materialize(spec, use_cache=use_cache)
