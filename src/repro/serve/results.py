"""The sqlite-backed result cache: deterministic runs are data.

Every engine is deterministic given ``(dataset, algorithm, parameters,
seed)`` — the cross-engine equivalence suites assert bit-identical
results *and* metrics — so a completed :class:`~repro.runtime.RunReport`
is perfectly cacheable.  :class:`ResultStore` persists ``(result,
metrics)`` payloads in one sqlite file keyed by

    ``(dataset content_key, algo, canonical params, seed, engine)``

where *canonical params* is the JSON of the merged family parameters
plus the run shape (``k``, explicit ``bandwidth``), with sorted keys and
numpy scalars coerced — the same normalization discipline the dataset
spec grammar applies to workload parameters.  The key is hashed
(blake2b, 32 hex chars) into the primary key; the raw fields are stored
alongside for introspection.

The store is safe for concurrent use from multiple threads (one
connection guarded by a lock) and multiple processes (WAL journal +
busy timeout), and the table is bounded by ``max_entries`` with
least-recently-used eviction.

**A hit is a pure read.**  ``get`` checks existence with one blob-free
``SELECT created`` and opens no write transaction.  The row's
``last_used`` stamp and ``hits`` count are buffered and written inside
the next write transaction (``put``, ``rows``, ``clear``, ``close``) or
by the hit that makes
:data:`FLUSH_PENDING_HITS` of them pending, so eviction always sees them
and a killed process loses at most that many stamps, never a result.

**Decoded rows.**  Up to :data:`DECODED_BYTES` of payloads stay
unpickled (LRU).  sqlite remains the source of truth across processes: a
decoded row is served only while the ``created`` just read from the file
equals the one it was decoded under, so a row another process replaced
is re-read and one it deleted is a miss.  Such a hit
reads no payload byte and unpickles nothing.  Hits share the decoded
objects, so every numpy array in them is handed out read-only.

**Durability.**  ``journal_mode=WAL`` with ``synchronous=NORMAL``:
commits are atomic and survive a crashed or killed process; a power
loss may roll back the last ones, which for a cache of deterministic
results means those rows are recomputed on their next miss.  The file
is never corrupt and never serves a wrong result.

Wiring: ``runtime.run(..., result_cache=True)`` consults
:func:`default_result_store` (``$REPRO_RESULT_DB`` or
``<cache root>/results.sqlite``); the serve daemon's
:class:`~repro.runtime.Session` owns a store so concurrent identical
requests are answered with **zero superstep execution** after the first.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import sqlite3
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.errors import ServeError
from repro.obs.registry import obs_registry

__all__ = [
    "RESULT_DB_ENV",
    "SCHEMA_VERSION",
    "DEFAULT_MAX_ENTRIES",
    "ResultStore",
    "canonical_params",
    "result_key",
    "default_result_store",
]

#: Environment variable naming the default result database file.
RESULT_DB_ENV = "REPRO_RESULT_DB"

#: Bump on any change to the key derivation or payload format; the
#: version participates in the key hash, so stale schemas simply miss.
SCHEMA_VERSION = 1

#: Rows kept before least-recently-used eviction.
DEFAULT_MAX_ENTRIES = 10_000

#: Buffered hit stamps at which a hit writes them out itself.
FLUSH_PENDING_HITS = 256

#: Payload bytes whose decoded ``(result, metrics)`` stay in memory.
DECODED_BYTES = 8 * 1024**2

# The payload comes last: sqlite walks a row's overflow chain to reach a
# column stored after a large blob (~50 us), and every hit reads ``created``.
_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    key         TEXT PRIMARY KEY,
    content_key TEXT NOT NULL,
    algo        TEXT NOT NULL,
    params      TEXT NOT NULL,
    seed        INTEGER NOT NULL,
    engine      TEXT NOT NULL,
    n           INTEGER NOT NULL,
    k           INTEGER NOT NULL,
    rounds      INTEGER NOT NULL,
    created     REAL NOT NULL,
    last_used   REAL NOT NULL,
    hits        INTEGER NOT NULL DEFAULT 0,
    payload     BLOB NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_results_last_used ON results (last_used);
"""


def _default_path() -> str:
    if os.environ.get(RESULT_DB_ENV):
        return str(Path(os.environ[RESULT_DB_ENV]).expanduser())
    from repro.workloads.cache import _default_root

    return str(_default_root() / "results.sqlite")


def _coerce(value):
    """JSON-compatible view of a parameter value (numpy scalars included)."""
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    item = getattr(value, "item", None)
    if callable(item):
        try:
            scalar = item()
        except (TypeError, ValueError):
            raise TypeError(f"{type(value).__name__} is not canonicalizable")
        if isinstance(scalar, (bool, int, float, str)):
            return scalar
    raise TypeError(f"{type(value).__name__} is not canonicalizable")


def canonical_params(params: dict, k: int, bandwidth: int | None = None) -> str:
    """One canonical JSON string for a run's parameter surface.

    Covers the merged family parameters plus the run shape: ``k`` and,
    when explicitly chosen, ``bandwidth`` (both change results, neither
    lives in ``params``).  Raises ``TypeError`` for values with no
    canonical form (e.g. an explicit numpy weights array) — such runs
    are not cacheable by key.
    """
    surface = {str(key): _coerce(value) for key, value in params.items()}
    surface["__k__"] = int(k)
    if bandwidth is not None:
        surface["__bandwidth__"] = int(bandwidth)
    return json.dumps(surface, sort_keys=True, separators=(",", ":"))


def result_key(
    content_key: str, algo: str, params_json: str, seed: int, engine: str
) -> str:
    """The 32-hex primary key for one cacheable run."""
    material = "\x1f".join(
        (f"v{SCHEMA_VERSION}", content_key, algo, params_json, str(int(seed)), engine)
    )
    return hashlib.blake2b(material.encode(), digest_size=16).hexdigest()


def _freeze_arrays(payload) -> None:
    """Make every numpy array reachable from a decoded payload read-only."""
    stack, seen = [payload], set()
    while stack:
        item = stack.pop()
        if isinstance(item, (int, float, str, bytes, type(None))) or id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            item.flags.writeable = False
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
        else:
            stack.extend(getattr(item, "__dict__", {}).values())
            stack.extend(getattr(item, slot) for slot in getattr(type(item), "__slots__", ())
                         if hasattr(item, slot))


class ResultStore:
    """A persistent, bounded, concurrency-safe run-result cache.

    Parameters
    ----------
    path:
        Database file (parent directories are created), or ``None`` for
        the environment-resolved default, or ``":memory:"`` for an
        ephemeral in-process store.
    max_entries:
        LRU row bound enforced after each :meth:`put`.

    A row is a pure function of its key (content hash, params, seed), so
    it never goes stale: rows leave only by LRU eviction or :meth:`clear`.

    Counters (:attr:`hits`, :attr:`misses`, :attr:`stores`) are
    in-memory and per-instance: they answer "what did *this* session's
    traffic do", while the per-row ``hits`` column persists popularity
    across daemon restarts (written with the next write transaction, see
    the module docstring).
    """

    def __init__(self, path: "str | Path | None" = None,
                 max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries <= 0:
            raise ServeError(f"max_entries must be positive, got {max_entries}")
        self.path = str(path) if path is not None else _default_path()
        self.max_entries = int(max_entries)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Injectable wall clock (tests pin it); every created/last_used
        #: stamp goes through it.
        self._clock = time.time
        self._lock = threading.RLock()
        #: key -> [last_used, hits] not yet written; hits since the last flush.
        self._pending: dict[str, list] = {}
        self._pending_hits = 0
        #: key -> (created, payload bytes, result, metrics, meta), LRU.
        self._decoded: "OrderedDict[str, tuple]" = OrderedDict()
        self._decoded_bytes = 0
        if self.path != ":memory:":
            Path(self.path).expanduser().parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(
            self.path, timeout=10.0, check_same_thread=False
        )
        with self._lock, self._conn:
            # WAL lets concurrent processes read while one writes; the
            # pragma is a no-op (journal stays "memory") for :memory:.
            self._conn.execute("PRAGMA journal_mode=WAL")
            # Atomic commits without an fsync each: see "Durability".
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute("PRAGMA busy_timeout=10000")
            self._conn.executescript(_SCHEMA)
        # Weak-referenced: registration never keeps the store alive.
        self._obs_token = obs_registry().register("result_store", self.stats)

    # ------------------------------------------------------------------
    @contextmanager
    def _write(self):
        """One write transaction; the buffered hit stamps go in first."""
        with self._lock, self._conn:
            if self._pending:
                self._conn.executemany(
                    "UPDATE results SET last_used = MAX(last_used, ?), "
                    "hits = hits + ? WHERE key = ?",
                    [(stamp, hits, key)
                     for key, (stamp, hits) in self._pending.items()],
                )
                self._pending.clear()
                self._pending_hits = 0
            yield

    def _forget(self, key: str) -> None:
        """Drop ``key``'s decoded copy and unwritten stamp (row gone/replaced)."""
        self._pending.pop(key, None)
        entry = self._decoded.pop(key, None)
        if entry is not None:
            self._decoded_bytes -= entry[1]

    def _delete(self, key: str) -> None:
        with self._write():
            self._forget(key)
            self._conn.execute("DELETE FROM results WHERE key = ?", (key,))

    def close(self) -> None:
        obs_registry().unregister(self._obs_token)
        with self._lock:
            try:
                with self._write():
                    pass
            except sqlite3.Error:
                pass  # stamps are best-effort (closed twice, file locked)
            self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def get(self, key: str, count_miss: bool = True):
        """``(result, metrics, meta_dict)`` for ``key``, or ``None``.

        A hit writes nothing (its stamp rides the next write
        transaction) and an unchanged row already decoded is returned
        without reading its payload; the arrays of ``result`` and
        ``metrics`` are read-only, because hits share them.  A hit
        bumps :attr:`hits`; a miss bumps :attr:`misses` unless
        ``count_miss`` is False (optimistic probes that are always
        followed by a counted lookup).
        """
        with self._lock:
            head = self._conn.execute(
                "SELECT created FROM results WHERE key = ?", (key,)
            ).fetchone()
            if head is None:
                return self._miss(key, count_miss)
            entry = self._decoded.get(key)
            if entry is not None and entry[0] == head[0]:
                self._decoded.move_to_end(key)
            else:
                if entry is not None:
                    self._forget(key)  # replaced by another writer
                entry = self._decode(key)
                if entry is None:
                    return self._miss(key, count_miss)
            now = self._clock()
            stamp = self._pending.setdefault(key, [now, 0])
            stamp[0] = now
            stamp[1] += 1
            self._pending_hits += 1
            self.hits += 1
            if self._pending_hits >= FLUSH_PENDING_HITS:
                with self._write():
                    pass
            _created, _nbytes, result, metrics, meta = entry
            return result, metrics, dict(meta)

    def _miss(self, key: str, count_miss: bool) -> None:
        self._forget(key)
        if count_miss:
            self.misses += 1

    def _decode(self, key: str):
        """Read, unpickle and keep ``key``'s row (lock held); ``None`` if it
        vanished meanwhile.  A corrupt payload drops the row and raises."""
        row = self._conn.execute(
            "SELECT payload, algo, engine, n, k, seed, params, "
            "content_key, created FROM results WHERE key = ?",
            (key,),
        ).fetchone()
        if row is None:
            return None
        try:
            result, metrics = pickle.loads(row[0])
        except Exception as exc:  # corrupt payload: drop the row, miss
            self._delete(key)
            raise ServeError(
                f"corrupt result payload for key {key} "
                f"(dropped from {self.path}): {exc}"
            ) from exc
        _freeze_arrays((result, metrics))
        meta = {
            "algo": row[1],
            "engine": row[2],
            "n": int(row[3]),
            "k": int(row[4]),
            "seed": int(row[5]),
            "params": row[6],
            "content_key": row[7],
        }
        entry = (row[8], len(row[0]), result, metrics, meta)
        if entry[1] <= DECODED_BYTES:
            self._decoded[key] = entry
            self._decoded_bytes += entry[1]
            while self._decoded_bytes > DECODED_BYTES:
                _, dropped = self._decoded.popitem(last=False)
                self._decoded_bytes -= dropped[1]
        return entry

    def put(
        self,
        key: str,
        *,
        content_key: str,
        algo: str,
        params_json: str,
        seed: int,
        engine: str,
        n: int,
        k: int,
        result,
        metrics,
    ) -> None:
        """Persist one completed run (idempotent: the key is the identity)."""
        payload = pickle.dumps((result, metrics), protocol=pickle.HIGHEST_PROTOCOL)
        now = self._clock()
        with self._write():
            self._forget(key)
            self._conn.execute(
                "INSERT OR REPLACE INTO results (key, content_key, algo, params, "
                "seed, engine, n, k, rounds, payload, created, last_used, hits) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, 0)",
                (
                    key, content_key, algo, params_json, int(seed), engine,
                    int(n), int(k), int(metrics.rounds), payload, now, now,
                ),
            )
            self.stores += 1
            over = self._count_locked() - self.max_entries
            if over > 0:
                self._conn.execute(
                    "DELETE FROM results WHERE key IN (SELECT key FROM results "
                    "ORDER BY last_used ASC LIMIT ?)",
                    (over,),
                )

    # ------------------------------------------------------------------
    def _count_locked(self) -> int:
        return int(self._conn.execute("SELECT COUNT(*) FROM results").fetchone()[0])

    def __len__(self) -> int:
        with self._lock:
            return self._count_locked()

    def clear(self) -> int:
        """Drop every row; returns how many were deleted."""
        with self._write():
            count = self._count_locked()
            self._conn.execute("DELETE FROM results")
            self._decoded.clear()
            self._decoded_bytes = 0
        return count

    def stats(self) -> dict:
        """Traffic and occupancy counters (JSON-ready)."""
        with self._lock:
            entries = self._count_locked()
        return {
            "path": self.path,
            "entries": entries,
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
        }

    def rows(self) -> list[dict]:
        """Row metadata (no payloads), most recently used first."""
        with self._write():
            cursor = self._conn.execute(
                "SELECT key, content_key, algo, params, seed, engine, n, k, "
                "rounds, created, last_used, hits FROM results "
                "ORDER BY last_used DESC"
            )
            names = [col[0] for col in cursor.description]
            return [dict(zip(names, row)) for row in cursor.fetchall()]


_DEFAULT_STORE: ResultStore | None = None
_DEFAULT_STORE_LOCK = threading.Lock()


def default_result_store() -> ResultStore:
    """The process-wide store at the environment-resolved path.

    ``runtime.run(result_cache=True)`` resolves here; the singleton is
    re-created if ``$REPRO_RESULT_DB`` points somewhere new (tests).
    """
    global _DEFAULT_STORE
    with _DEFAULT_STORE_LOCK:
        path = _default_path()
        if _DEFAULT_STORE is None or _DEFAULT_STORE.path != path:
            _DEFAULT_STORE = ResultStore(path)
        return _DEFAULT_STORE
