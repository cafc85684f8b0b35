"""No result of the package depends on a random draw or a float.

Blocks, module dimensions and simplicity verdicts come from fixed
candidate sequences, so the package imports no random module and its
analysis entry points and the CLI take no seed.  The engine is exact,
so no module holds a float or complex literal, calls float() or
complex(), or imports cmath.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import pytest

import qlsmodcat
from qlsmodcat.classify import classification_report
from qlsmodcat.cli import main
from qlsmodcat.comodule import check_simplicity, simple_modules

PACKAGE = Path(qlsmodcat.__file__).parent


def _imported_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")),
                         ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_module_imports_random(path):
    assert not {m for m in _imported_modules(path)
                if m.split(".")[0] == "random"}


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")),
                         ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_module_computes_with_floats(path):
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Constant)
                and isinstance(node.value, (float, complex))):
            found.append((node.lineno, repr(node.value)))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("float", "complex")):
            found.append((node.lineno, f"{node.func.id}()"))
    found += [(0, m) for m in _imported_modules(path) if m.split(".")[0] == "cmath"]
    assert not found


@pytest.mark.parametrize("func", [check_simplicity, simple_modules,
                                  classification_report])
def test_analysis_takes_no_seed_or_tries(func):
    assert not {"seed", "tries"} & set(inspect.signature(func).parameters)


def test_classify_rejects_seed(capsys):
    with pytest.raises(SystemExit) as e:
        main(["classify", "in.json", "--seed", "0"])
    assert e.value.code == 2
    assert "--seed" in capsys.readouterr().err
