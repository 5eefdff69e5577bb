"""The lazily resolved package surfaces expose exactly what they did eagerly.

``repro``, ``repro.kmachine``, ``repro.obs``, ``repro.graphs``,
``repro.core.pagerank``, ``repro.core.triangles`` and
``repro.core.subgraphs`` resolve each public name on first access
(PEP 562).  Every name must still be the very object a direct import of
its submodule gives, be listed by ``dir()``, and come with ``import *``.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

PACKAGES = [
    "repro", "repro.kmachine", "repro.obs", "repro.graphs", "repro.core.pagerank",
    "repro.core.triangles", "repro.core.subgraphs",
]


def _direct(package: str, name: str, value):
    """``name`` as a direct import of the submodule that defines it gives it."""
    if isinstance(value, types.ModuleType):
        return importlib.import_module(f"{package}.{name}")
    if isinstance(value, (type, types.FunctionType)):
        return getattr(importlib.import_module(value.__module__), value.__name__)
    # A constant: the submodule of the package that holds it.
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, f"{package}."):
        module = importlib.import_module(info.name)
        if name in vars(module):
            return vars(module)[name]
    raise AssertionError(f"{package}.{name} is in no submodule")


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_is_the_submodule_object(package):
    module = importlib.import_module(package)
    assert module.__all__, package
    for name in module.__all__:
        if name == "__version__":
            continue
        value = getattr(module, name)
        assert value is _direct(package, name, value), f"{package}.{name}"


@pytest.mark.parametrize("package", PACKAGES)
def test_dir_lists_every_public_name(package):
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module))


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_binds_every_public_name(package):
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    module = importlib.import_module(package)
    for name in module.__all__:
        assert namespace[name] is getattr(module, name), f"{package}.{name}"


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_attribute_names_the_module(package):
    module = importlib.import_module(package)
    message = rf"module '{package}' has no attribute 'no_such_name'"
    with pytest.raises(AttributeError, match=message):
        module.no_such_name


def test_import_repro_loads_only_the_version():
    """``import repro`` is the version and the lazy resolver, nothing more."""
    code = (
        "import sys, repro\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))\n"
        "repro.obs.Tracer  # a submodule resolves as an attribute, as it did\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "['repro', 'repro._lazy', 'repro._version']"
