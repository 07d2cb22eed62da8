"""Every name an import binds in the package modules, the tools and the
demos is read somewhere in its file."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# the package's __init__ imports names in order to export them
FILES = [p for p in sorted((ROOT / "src" / "rgw").glob("*.py"))
         if p.name != "__init__.py"]
FILES += sorted((ROOT / "tools").glob("*.py"))
FILES += sorted((ROOT / "demos").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that the imports of ``source`` bind and no expression
    reads, each with the line of its import."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in read]


def test_the_check_sees_an_unused_import():
    source = "import os, sys\nfrom math import pi as tau, e\nprint(sys.argv, e)\n"
    assert unused_imports(source) == ["os (line 1)", "tau (line 2)"]


@pytest.mark.parametrize("path", FILES,
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf8")) == []
