"""Package surfaces that load on demand (PEP 562).

A package lists its public names with the module that defines each and
installs the ``__getattr__`` / ``__dir__`` pair :func:`lazy_exports`
returns, so ``import repro.kmachine`` costs one module and
``repro.kmachine.Cluster`` imports only what ``Cluster`` needs.
"""

from __future__ import annotations

import importlib

__all__ = ["lazy_exports"]


def lazy_exports(namespace: dict, exports: dict[str, str]):
    """``(__getattr__, __dir__)`` for a package whose public names load on first access.

    ``namespace`` is the package's ``globals()``; ``exports`` maps each
    public name to the module it is taken from, and a name mapped to the
    package's own submodule of that name is the submodule.  A resolved
    name is stored in ``namespace``, so each is looked up once.  Any
    other submodule also resolves as an attribute (``repro.obs.trace``
    after ``import repro.obs``), as it would once imported.
    """
    package = namespace["__name__"]

    def __getattr__(name: str):
        if name in exports:
            module = importlib.import_module(exports[name])
            value = module if module.__name__ == f"{package}.{name}" else getattr(module, name)
        elif name.startswith("__"):
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | exports.keys())

    return __getattr__, __dir__
