"""One default engine, spelled once.

``repro.kmachine.engine.DEFAULT_ENGINE`` is the only place the default
is named: every public ``engine=`` parameter defaults to it (or to
``None``, which :func:`repro.runtime.run` resolves to it), and no
``"message"`` engine literal is left in the product tree.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import repro
from repro.cli import build_parser
from repro.kmachine.engine import DEFAULT_ENGINE

ROOT = Path(__file__).resolve().parent.parent
#: The product tree: everything a user runs that is not the frozen harness.
PRODUCT = sorted(
    [*(ROOT / "src").rglob("*.py"), *(ROOT / "benchmarks").glob("*.py"),
     *(ROOT / "examples").glob("*.py")]
)


def _public_callables():
    """Every public function, class and method defined under ``repro``."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue  # importing it runs the CLI
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != info.name:
                continue
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj):
                yield f"{info.name}.{name}", obj
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member) and not attr.startswith("_"):
                        yield f"{info.name}.{name}.{attr}", member


def test_every_engine_parameter_defaults_to_the_one_constant():
    defaults = {}
    for qualname, obj in _public_callables():
        try:
            param = inspect.signature(obj).parameters.get("engine")
        except (TypeError, ValueError):
            continue
        if param is not None and param.default is not inspect.Parameter.empty:
            defaults[qualname] = param.default
    # Cluster, the nine family entry points + boruvka_forest, runtime.run
    # and the serve client: none may go missing.
    assert len(defaults) >= 13, sorted(defaults)
    assert set(defaults.values()) <= {DEFAULT_ENGINE, None}, defaults
    assert defaults["repro.kmachine.cluster.Cluster"] == DEFAULT_ENGINE
    assert defaults["repro.runtime.registry.run"] is None


def test_cli_parsers_default_to_it():
    parser = build_parser()
    assert parser.parse_args(["run", "pagerank"]).engine == DEFAULT_ENGINE
    assert parser.parse_args(["run", "sorting", "--k", "4,8"]).engine == DEFAULT_ENGINE
    # The client sends no engine; the daemon's runtime.run fills the default.
    client = parser.parse_args(["client", "run", "pagerank", "--dataset", "gnp:n=10"])
    assert client.engine is None


def test_no_message_engine_literal_in_the_product_tree():
    allowed = re.compile(r'"message":')  # the daemon's error-reply key
    hits = []
    for path in PRODUCT:
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if '"message"' in line and not (
                path.name == "daemon.py" and allowed.search(line)
            ):
                hits.append(f"{path.relative_to(ROOT)}:{number}: {line.strip()}")
    assert not hits, "\n".join(hits)


def test_the_default_is_spelled_once_in_src():
    """The one ``"vector"`` literal outside docstrings is ``VectorEngine.name``."""
    spelled = []
    for path in (ROOT / "src").rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docstrings = {
            id(node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        }
        spelled += [
            f"{path.relative_to(ROOT)}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value == DEFAULT_ENGINE
            and id(node) not in docstrings
        ]
    assert len(spelled) == 1 and spelled[0].startswith("src/repro/kmachine/engine.py"), spelled
