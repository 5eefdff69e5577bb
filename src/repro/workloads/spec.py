"""Dataset-spec grammar, workload-family registry, and content hashing.

A *dataset spec* is a string naming a workload family plus keyword
parameters::

    rmat:n=1e6,avg_deg=16,seed=7
    gnp:n=1000,avg_deg=10,seed=3
    edgelist:path=graph.tsv

Grammar: ``family[:key=value[,key=value]*]``.  Keys are the family's
declared parameter names; values are coerced to the declared type
(``1e6`` and ``1_000_000`` are both valid integers).  Parsing *normalizes*
the spec — defaults are filled in, keys are sorted — so every spelling of
the same dataset has one canonical string and therefore one content hash,
which is the key of the on-disk graph cache (:mod:`repro.workloads.cache`)
and of the result cache.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.errors import WorkloadError

__all__ = [
    "ParamSpec",
    "WorkloadFamily",
    "DatasetSpec",
    "parse_spec",
    "literal_value",
    "register_workload",
    "get_workload",
    "available_workloads",
    "build_dataset",
    "SPEC_FORMAT_VERSION",
]

#: Bumped whenever canonicalization or any generator's sampling order
#: changes semantically — it is mixed into every content hash, so stale
#: on-disk cache entries miss instead of silently serving old graphs.
SPEC_FORMAT_VERSION = 1

_FAMILY_RE = re.compile(r"^[a-z0-9][a-z0-9_-]*$")
_KEY_RE = re.compile(r"^[a-z][a-z0-9_]*$")
#: Integers written in scientific notation (``1e6``, ``2.5e3`` is *not*
#: one): digits (underscores allowed) followed by a positive exponent.
_SCI_INT_RE = re.compile(r"^[0-9][0-9_]*[eE]\+?[0-9]+$")


def literal_value(raw: str):
    """Coerce a ``key=value`` string into bool/int/float/str.

    Accepts underscore integers (``1_000_000``) and integral scientific
    notation (``1e6`` → ``int``); anything with a decimal point or a
    fractional value stays ``float``; ``true``/``false`` become ``bool``;
    everything else is returned as the raw string.
    """
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    if _SCI_INT_RE.match(raw):
        try:
            return int(float(raw))
        except OverflowError:
            # 1e400-style exponents overflow int(float(...)); fall through
            # to the float coercion (which yields inf), so spec validation
            # rejects them with a clean error instead of a traceback.
            pass
    try:
        return float(raw)
    except ValueError:
        return raw


@dataclass(frozen=True)
class ParamSpec:
    """One declared parameter of a workload family.

    ``default is None`` (with ``required=True``) marks the parameter as
    mandatory; otherwise the default participates in canonicalization, so
    omitting it and spelling it out hash identically.  ``minimum`` is the
    smallest value an ``int`` parameter may take (a vertex count is at
    least 1, a seed at least 0).
    """

    name: str
    kind: type  # int, float, bool, or str
    default: object = None
    required: bool = False
    minimum: int | None = None

    def coerce(self, value) -> object:
        """Coerce a parsed value into this parameter's declared type."""
        if self.kind is int:
            if isinstance(value, bool):
                raise WorkloadError(f"parameter {self.name!r} must be an int")
            if isinstance(value, float) and value.is_integer():
                value = int(value)
            if not isinstance(value, int):
                raise WorkloadError(
                    f"parameter {self.name!r} must be an integer, got {value!r}"
                )
            if self.minimum is not None and value < self.minimum:
                raise WorkloadError(
                    f"parameter {self.name!r} must be >= {self.minimum}, got {value}"
                )
            return value
        if self.kind is float:
            if isinstance(value, bool) or isinstance(value, str):
                raise WorkloadError(
                    f"parameter {self.name!r} must be a number, got {value!r}"
                )
            value = float(value)
            if not math.isfinite(value):
                raise WorkloadError(
                    f"parameter {self.name!r} must be finite, got {value!r}"
                )
            return value
        if self.kind is bool:
            if not isinstance(value, bool):
                raise WorkloadError(
                    f"parameter {self.name!r} must be true/false, got {value!r}"
                )
            return value
        return str(value)


@dataclass(frozen=True)
class WorkloadFamily:
    """A registered, parameterized graph workload.

    Attributes
    ----------
    name:
        Registry key and the family segment of dataset specs.
    title:
        Human-readable description for CLI tables.
    builder:
        ``(**params) -> Graph`` building the dataset.
    params:
        Declared parameters (unknown keys in a spec are rejected).
    cacheable:
        Whether built graphs may be persisted in the on-disk cache.
        File-backed families (edge lists, METIS) are not cacheable: their
        content is owned by the file, not by the spec string.
    """

    name: str
    title: str
    builder: Callable[..., object]
    params: tuple[ParamSpec, ...] = ()
    cacheable: bool = True
    param_map: Mapping[str, ParamSpec] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not _FAMILY_RE.match(self.name):
            raise WorkloadError(f"invalid family name {self.name!r}")
        object.__setattr__(self, "param_map", {p.name: p for p in self.params})


_WORKLOADS: dict[str, WorkloadFamily] = {}


def register_workload(family: WorkloadFamily) -> WorkloadFamily:
    """Register a workload family; names are unique."""
    if family.name in _WORKLOADS:
        raise WorkloadError(f"workload family {family.name!r} is already registered")
    _WORKLOADS[family.name] = family
    return family


def get_workload(name: str) -> WorkloadFamily:
    """Look up a registered workload family by name."""
    try:
        return _WORKLOADS[name]
    except KeyError:
        raise WorkloadError(
            f"unknown workload family {name!r}; registered: "
            f"{', '.join(available_workloads())}"
        ) from None


def available_workloads() -> tuple[str, ...]:
    """Registered family names, sorted."""
    return tuple(sorted(_WORKLOADS))


def _render(value) -> str:
    """Canonical text of one parameter value (``int`` before ``float``)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class DatasetSpec:
    """A parsed, normalized dataset spec.

    ``items`` is the full resolved parameter set (defaults filled in),
    sorted by key — two specs describing the same dataset compare equal
    and share one :meth:`content_hash`.
    """

    family: str
    items: tuple[tuple[str, object], ...]

    @property
    def params(self) -> dict:
        """Resolved parameters as a fresh dict."""
        return dict(self.items)

    def canonical(self) -> str:
        """The canonical spec string (sorted keys, defaults resolved)."""
        if not self.items:
            return self.family
        body = ",".join(f"{k}={_render(v)}" for k, v in self.items)
        return f"{self.family}:{body}"

    def content_hash(self) -> str:
        """Stable 32-hex-char content address of the normalized spec."""
        payload = f"repro-dataset-v{SPEC_FORMAT_VERSION}|{self.canonical()}"
        return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()

    @property
    def cacheable(self) -> bool:
        """Whether this dataset may live in the on-disk graph cache."""
        return get_workload(self.family).cacheable

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.canonical()


def parse_spec(text: "str | DatasetSpec") -> DatasetSpec:
    """Parse and normalize a dataset spec string.

    Idempotent: passing an already-parsed :class:`DatasetSpec` returns it
    unchanged, so every workload entry point accepts either form.
    """
    if isinstance(text, DatasetSpec):
        return text
    if not isinstance(text, str):
        raise WorkloadError(f"dataset spec must be a string, got {type(text).__name__}")
    head, sep, body = text.strip().partition(":")
    family_name = head.strip()
    if not _FAMILY_RE.match(family_name):
        raise WorkloadError(
            f"invalid dataset spec {text!r}: expected 'family:key=value,...'"
        )
    family = get_workload(family_name)
    given: dict[str, object] = {}
    if sep and not body.strip():
        raise WorkloadError(f"invalid dataset spec {text!r}: empty parameter list")
    for part in body.split(",") if body.strip() else ():
        key, eq, raw = part.partition("=")
        key, raw = key.strip(), raw.strip()
        if not eq or not key or not raw:
            raise WorkloadError(
                f"invalid dataset spec {text!r}: {part.strip()!r} is not key=value"
            )
        if not _KEY_RE.match(key):
            raise WorkloadError(f"invalid parameter name {key!r} in {text!r}")
        if key in given:
            raise WorkloadError(f"duplicate parameter {key!r} in {text!r}")
        if key not in family.param_map:
            known = ", ".join(sorted(family.param_map))
            raise WorkloadError(
                f"unknown parameter {key!r} for family {family_name!r} "
                f"(known: {known})"
            )
        given[key] = family.param_map[key].coerce(literal_value(raw))
    resolved: dict[str, object] = {}
    for p in family.params:
        if p.name in given:
            resolved[p.name] = given[p.name]
        elif p.required:
            raise WorkloadError(
                f"family {family_name!r} requires parameter {p.name!r}"
            )
        else:
            resolved[p.name] = p.default
    return DatasetSpec(family=family_name, items=tuple(sorted(resolved.items())))


def build_dataset(spec: "str | DatasetSpec"):
    """Build the dataset a spec describes (no caching; see
    :func:`repro.workloads.cache.materialize` for the cached path).

    For cacheable families the returned
    :class:`~repro.graphs.graph.Graph` carries the spec's content hash
    in ``content_key``, so downstream content-addressed caches recognize
    it regardless of which build produced it.  File-backed families
    (``edgelist``) get **no** content key: their spec hash
    only covers the path string, not the file's bytes, so stamping it
    would let the result cache serve stale rows after the file changes.
    """
    spec = parse_spec(spec)
    family = get_workload(spec.family)
    graph = family.builder(**spec.params)
    if family.cacheable:
        graph.content_key = spec.content_hash()
    return graph
