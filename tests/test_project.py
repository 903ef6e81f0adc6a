"""Checks on what pyproject.toml declares and on what the modules import."""

from __future__ import annotations

import ast
import importlib
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def _scripts(toml: str) -> dict[str, str]:
    """The ``[project.scripts]`` table as name -> "module:attr". A regex,
    not tomllib, which Python 3.10 lacks; the table holds only plain
    ``name = "target"`` lines."""
    table = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", toml, re.M | re.S)
    if table is None:
        return {}
    return dict(re.findall(r'^\s*([\w.-]+)\s*=\s*"([^"]*)"', table.group(1), re.M))


def _dependencies(toml: str) -> set[str]:
    """The distribution names in ``[project] dependencies``, lower-case
    with ``-`` as ``_``; read by a regex, as ``_scripts`` is."""
    table = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", toml, re.M | re.S)
    listed = re.search(r"^dependencies\s*=\s*\[(.*?)\]", table.group(1), re.M | re.S)
    if listed is None:
        return set()
    specs = re.findall(r'"([A-Za-z0-9._-]+)', listed.group(1))
    return {spec.lower().replace("-", "_") for spec in specs}


def _imports(source: str) -> set[str]:
    """The dotted names of the modules the absolute imports in ``source``
    may load: ``from http import client`` names ``http`` and ``http.client``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def _third_party_imports(source: str) -> set[str]:
    """The top-level names of the absolute imports in ``source`` that are
    neither the standard library nor ``helixmap``."""
    names = {name.partition(".")[0] for name in _imports(source)}
    return names - set(sys.stdlib_module_names) - {"__future__", "helixmap"}


def _callers(source: str, callee: str) -> list[str]:
    """The dotted names of the classes and functions in ``source`` that call
    ``callee`` by its name, plain or as an attribute, once per call;
    ``<module>`` for a call outside them."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == callee:
                    found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_dependency_readers():
    toml = ('[project]\nname = "x"\ndependencies = [\n    "idna>=3",\n    "Foo-Bar[x]~=1",\n]\n\n'
            '[project.optional-dependencies]\ntest = [\n    "pytest>=7",\n]\n')
    assert _dependencies(toml) == {"idna", "foo_bar"}
    assert _dependencies('[project]\nname = "x"\n') == set()
    source = ("from __future__ import annotations\nimport os.path, urllib3\n"
              "from idna import core\nfrom . import x\nfrom .urls import y\n"
              "import helixmap.urls\n")
    assert _third_party_imports(source) == {"urllib3", "idna"}
    assert _imports("import http.client, ssl\nfrom socket import create_connection\n"
                    "from . import select\n") == {
        "http.client", "ssl", "socket", "socket.create_connection",
    }


def test_declared_dependencies_are_the_imported_ones():
    imported = set()
    for path in (ROOT / "src" / "helixmap").glob("*.py"):
        imported |= _third_party_imports(path.read_text(encoding="utf-8"))
    declared = _dependencies(PYPROJECT.read_text(encoding="utf-8"))
    assert imported - declared == set(), "imported but not declared"
    assert declared - imported == set(), "declared but not imported"


def test_only_the_crawler_imports_network_modules():
    network = {"http.client", "socket", "select", "ssl"}
    importers = {
        path.name
        for path in (ROOT / "src" / "helixmap").glob("*.py")
        if _imports(path.read_text(encoding="utf-8")) & network
    }
    assert importers == {"crawler.py"}


def test_no_module_imports_urllib_parse():
    # urls.canonicalize holds the one URL grammar; a second parser would
    # split some reference another way
    for path in (ROOT / "src" / "helixmap").glob("*.py"):
        assert "urllib.parse" not in _imports(path.read_text(encoding="utf-8")), path.name


def test_no_module_imports_a_concurrency_layer():
    # a crawl runs on one thread, with one request in flight at a time
    layers = {"threading", "concurrent", "asyncio", "multiprocessing"}
    for path in (ROOT / "src" / "helixmap").glob("*.py"):
        imported = {name.partition(".")[0] for name in _imports(path.read_text(encoding="utf-8"))}
        assert imported & layers == set(), path.name


def test_only_a_link_set_builds_link_records():
    source = ("X()\ndef f():\n    return [X(i) for i in y]\n"
              "class C:\n    def g(self):\n        h(m.X())\n    x = X\n")
    assert _callers(source, "X") == ["<module>", "f", "C.g"]
    # producers add rows to a LinkSet; a record is made only to read one back
    builders = [
        f"{path.stem}.{caller}"
        for path in sorted((ROOT / "src" / "helixmap").glob("*.py"))
        for caller in _callers(path.read_text(encoding="utf-8"), "LinkRecord")
    ]
    assert builders == ["harvest.LinkSet._record"]


def test_script_table_reader():
    toml = '[project]\nname = "x"\n\n[project.scripts]\na = "m:f"\nb-c = "p.q:g"\n\n[tool.x]\nd = "e"\n'
    assert _scripts(toml) == {"a": "m:f", "b-c": "p.q:g"}
    assert _scripts('[project]\nname = "x"\n') == {}


def test_every_console_script_target_is_callable():
    for name, target in _scripts(PYPROJECT.read_text(encoding="utf-8")).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name
