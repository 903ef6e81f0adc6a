"""Checks on what pyproject.toml declares."""

from __future__ import annotations

import importlib
import re
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _scripts(toml: str) -> dict[str, str]:
    """The ``[project.scripts]`` table as name -> "module:attr". A regex,
    not tomllib, which Python 3.10 lacks; the table holds only plain
    ``name = "target"`` lines."""
    table = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", toml, re.M | re.S)
    if table is None:
        return {}
    return dict(re.findall(r'^\s*([\w.-]+)\s*=\s*"([^"]*)"', table.group(1), re.M))


def test_script_table_reader():
    toml = '[project]\nname = "x"\n\n[project.scripts]\na = "m:f"\nb-c = "p.q:g"\n\n[tool.x]\nd = "e"\n'
    assert _scripts(toml) == {"a": "m:f", "b-c": "p.q:g"}
    assert _scripts('[project]\nname = "x"\n') == {}


def test_every_console_script_target_is_callable():
    for name, target in _scripts(PYPROJECT.read_text(encoding="utf-8")).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name
