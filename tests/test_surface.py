"""The public surface: every exported or re-exported name resolves."""
from __future__ import annotations

import ast
import importlib
import pathlib

import pytest

import weblin

MODULES = ("expr", "calculus", "invariants", "covariant", "linearizer",
           "corpus")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"weblin.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, (name, missing)


def test_package_imports_resolve():
    tree = ast.parse(pathlib.Path(weblin.__file__).read_text())
    names = [(node.module, alias.asname or alias.name)
             for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names]
    assert names
    missing = [(m, n) for m, n in names if not hasattr(weblin, n)]
    assert not missing, missing
