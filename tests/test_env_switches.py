"""The ``REPRO_*`` switch table in the package docstring against the source tree.

A new environment switch cannot appear in ``src/`` without a row in
``repro.__doc__`` (name, default, reader, why), and a row cannot outlive
the code that reads it.
"""

from __future__ import annotations

import re
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NAME = re.compile(r"REPRO_[A-Z_]+")


def _table_rows() -> list[list[str]]:
    """The first row of every table entry, split at the border's columns."""
    section = repro.__doc__.split("Environment switches\n", 1)[1]
    lines = section.splitlines()
    border = next(line for line in lines if line.startswith("====="))
    spans = [m.span() for m in re.finditer(r"=+", border)]
    return [[line[a:b].strip() for a, b in spans]
            for line in lines if line.startswith("``REPRO_")]


def test_switch_table_matches_the_names_in_src():
    rows = _table_rows()
    assert all(len(row) == 4 and all(row) for row in rows), rows
    names = {NAME.search(name).group() for name, *_ in rows}
    assert len(names) == len(rows)  # one row per name

    found: set[str] = set()
    for path in SRC.rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        if path == Path(repro.__file__):
            text = text.replace(repro.__doc__, "")  # the table itself
        found.update(NAME.findall(text))
    assert found == names

    for name, _default, reader, _why in rows:
        name = NAME.search(name).group()
        assert f'"{name}"' in (SRC / "repro" / reader).read_text(encoding="utf-8"), (name, reader)
