"""Source hygiene: no module of the package imports a name it never uses."""

import ast
import pathlib

import pytest

import fedmask

PACKAGE = pathlib.Path(fedmask.__file__).parent
# `__init__` imports its submodules to re-export them, not to use them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in source and read nowhere in it; `from
    __future__` imports bind nothing and are left out."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_imports_only_names_it_uses(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_sees_an_unused_name():
    source = "from __future__ import annotations\nimport os, sys as system\nfrom json import dumps, loads\nprint(os.sep, loads)\n"
    assert unused_imports(source) == ["line 2: system", "line 3: dumps"]
