"""No module under ``src/`` or ``scripts/`` imports a name it never uses.

A stdlib ``ast`` scan, so it needs no linter: every name an ``import``
binds must be read somewhere in the module -- as a name, inside an
annotation (string annotations included), or in ``__all__``.  Package
``__init__`` modules re-export by importing and are skipped; an import
kept only for its side effect or availability says so with ``# noqa``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _names_in(node):
    """Every ``Name`` in *node*, parsing string annotations too."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _names_in(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def unused_imports(path):
    """``(line, name)`` for each imported name *path* never uses."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and \
                    node.module == "__future__":
                continue
            for alias in node.names:
                if "noqa" in lines[alias.lineno - 1] or alias.name == "*":
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = alias.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used |= {elt.value for elt in getattr(node.value, "elts", ())
                     if isinstance(elt, ast.Constant)}
        for field in ("annotation", "returns"):
            value = getattr(node, field, None)
            if isinstance(value, ast.AST):
                used |= _names_in(value)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    modules = [path for top in ("src", "scripts")
               for path in sorted((ROOT / top).rglob("*.py"))
               if path.name != "__init__.py"]
    assert len(modules) > 50
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in modules for line, name in unused_imports(path)]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_the_scan_sees_what_it_should(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import json  # noqa: F401 (availability probe)\n"
        "from typing import Dict, List, Optional\n"
        "from collections import OrderedDict as OD\n"
        "__all__ = ['OD']\n"
        "def f(x: 'Optional[int]') -> Dict[str, int]:\n"
        "    return {}\n")
    assert unused_imports(module) == [(2, "os"), (4, "List")]
