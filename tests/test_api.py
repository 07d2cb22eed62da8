"""The public surface holds only what the package, the demos or the
benchmark use."""

from __future__ import annotations

import ast
import types
from pathlib import Path

import rgw

ROOT = Path(__file__).resolve().parents[1]

# exports that only the tests call, each with its reason
EXEMPT = {
    "activity_from_law": "the inverse of law_from_activity in the paper's "
                         "activity bijection; three test files build "
                         "admissible activities from target laws with it",
}


def used_names() -> set[str]:
    """Every name and attribute name in the code of the package modules,
    the demos and the benchmark; a def, a class, an import, a docstring and
    the package's own export list add none."""
    files = [p for p in sorted((ROOT / "src" / "rgw").glob("*.py"))
             if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py"))
    files += sorted((ROOT / "perfbench").glob("*.py"))
    names: set[str] = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_has_a_caller():
    exports = {name for name in rgw.__all__
               if not isinstance(getattr(rgw, name), types.ModuleType)}
    unused = exports - used_names()
    assert sorted(unused - set(EXEMPT)) == []
    # an exemption lapses once its name gains a caller or leaves the exports
    assert set(EXEMPT) <= unused
