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
    # the linearizer's names, which the package loads on first use
    lazy = ("GridSpec", "LinearizationResult", "NotLinearizableError",
            "flat_coordinates", "straightness_report", "render_svg")
    assert set(lazy) == set(weblin._LINEARIZER_NAMES)
    linearizer = importlib.import_module("weblin.linearizer")
    assert [getattr(weblin, n) for n in lazy] == [
        getattr(linearizer, n) for n in lazy]
    with pytest.raises(AttributeError, match="no attribute 'grid_spec'"):
        weblin.grid_spec



ROOT = pathlib.Path(__file__).resolve().parents[1]


def _unused_imports(path: pathlib.Path) -> list[str]:
    """Names a module imports and never references, as "line: name".
    Names in `__all__` count as referenced, and so does everything a
    package `__init__` imports (its re-exports)."""
    if path.name == "__init__.py":
        return []
    tree = ast.parse(path.read_text())
    imported: dict[str, int] = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"{line}: {name}" for name, line in
            sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_no_unused_imports():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(
        (ROOT / "tests").rglob("*.py"))
    assert len(files) > 10
    unused = [f"{path.relative_to(ROOT)}:{entry}" for path in files
              for entry in _unused_imports(path)]
    assert not unused, unused


def test_unused_import_scan_sees_names(tmp_path):
    # an unused name is reported; a used one, one in __all__ and a
    # re-export from a package __init__ are not
    mod = tmp_path / "mod.py"
    mod.write_text("import os.path\nfrom a import b, c as d\n"
                   "from e import f\n__all__ = ['f']\nprint(d)\n")
    assert _unused_imports(mod) == ["1: os", "2: b"]
    init = tmp_path / "__init__.py"
    init.write_text("from .mod import b\n")
    assert _unused_imports(init) == []
