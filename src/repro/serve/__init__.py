"""The persistent analytics service: ``repro serve`` / ``repro client``.

Layers (bottom-up):

* :mod:`repro.serve.results` — the sqlite-backed :class:`ResultStore`:
  deterministic runs keyed by ``(dataset content_key, algo, canonical
  params, seed, engine)``, safe across threads and processes;
* :class:`repro.runtime.Session` — the scheduler that owns the resident
  execution substrate (warm pools, distgraph LRU, prewarmed datasets)
  and serializes misses over it with admission control;
* :mod:`repro.serve.daemon` — :class:`ReproServer`, the asyncio
  HTTP-JSON front end multiplexing concurrent requests over one
  session (``python -m repro serve``);
* :mod:`repro.serve.client` — :class:`ServeClient`, the blocking
  client the CLI (``python -m repro client``), the benches, and tests
  speak through.
"""

from repro.serve.results import (
    RESULT_DB_ENV,
    ResultStore,
    canonical_params,
    default_result_store,
    result_key,
)
from repro.serve.daemon import DEFAULT_HOST, DEFAULT_PORT, ReproServer, ServerHandle
from repro.serve.client import ServeClient

__all__ = [
    "RESULT_DB_ENV",
    "ResultStore",
    "canonical_params",
    "result_key",
    "default_result_store",
    "ReproServer",
    "ServerHandle",
    "ServeClient",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
]
