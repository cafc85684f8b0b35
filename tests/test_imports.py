"""Every module-level import of the package is used, and every definition
is named.

No linter is part of the toolchain, so these guards read each module with
``ast``: a name an import binds at module level must be read somewhere
else in that module.  A re-export is marked ``# noqa: F401`` on its
import line; star imports bind no name to check.
"""

from __future__ import annotations

import ast
import re
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


# Every definition of the package is named somewhere else: by the package,
# the tests, the bench or the benchmark scripts, which name wrapped layers
# in strings ("hopf:build_bosonization", monkeypatch targets).
SEARCHED = [PACKAGE] + [PACKAGE.parents[1] / d
                        for d in ("tests", "pipebench", "benchmarks")]


def _definitions(tree) -> list[tuple[str, int]]:
    """Module-level functions and classes, and the non-dunder methods of
    the module-level classes, as (name, line)."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            out += [(f.name, f.lineno) for f in node.body
                    if isinstance(f, ast.FunctionDef)
                    and not (f.name.startswith("__") and f.name.endswith("__"))]
    return out


def _names(tree) -> set[str]:
    """The identifiers a module reads, imports or spells in a string; a
    docstring names nothing."""
    docs = {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs):
            out.update(re.findall(r"\w+", node.value))
    return out


def test_every_definition_is_named_elsewhere():
    named: set[str] = set()
    defined = []
    for root in SEARCHED:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text())
            named |= _names(tree)
            if root == PACKAGE:
                defined += [f"{path.relative_to(PACKAGE)}:{line}: {name}"
                            for name, line in _definitions(tree)]
    assert [d for d in defined if d.rsplit(" ", 1)[1] not in named] == []
