"""Every name a library module imports is used in that module.

The package's ``__init__.py`` is skipped, since its imports are the public
re-exports, and so is ``from __future__``.
"""

import ast
import pathlib

import pytest

import wildram

SRC = pathlib.Path(wildram.__file__).resolve().parent
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
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
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scanner_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, sys as system\n"
              "from math import gcd, pi\n"
              "def f(x):\n"
              "    from json import dumps\n"
              "    return gcd(x, 2) + os.getpid()\n")
    assert unused_imports(source) == [(2, "system"), (3, "pi"), (5, "dumps")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []
