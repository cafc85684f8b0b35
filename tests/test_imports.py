"""Every module-level import of the package is used.

No linter is part of the toolchain, so this guard reads each module with
``ast``: a name an import binds at module level must be read somewhere
else in that module.  A re-export is marked ``# noqa: F401`` on its
import line; star imports bind no name to check.
"""

from __future__ import annotations

import ast
from pathlib import Path

import qlsmodcat

PACKAGE = Path(qlsmodcat.__file__).parent


def _module_imports(body):
    """Import statements run at module level: outside every def and class."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _module_imports(getattr(node, field, []))


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out = []
    for node in _module_imports(tree.body):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in used:
                out.append(f"{path.relative_to(PACKAGE)}:{node.lineno}: {name}")
    return out


def test_no_module_level_import_is_unused():
    unused = [hit for path in sorted(PACKAGE.rglob("*.py"))
              for hit in _unused_imports(path)]
    assert unused == []
