"""The public surface: every exported or re-exported name resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import polyaurn


def test_module_all_names_resolve():
    for info in pkgutil.iter_modules(polyaurn.__path__):
        module = importlib.import_module(f"polyaurn.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"polyaurn.{info.name}.__all__ lists missing {name!r}"


def test_package_imports_resolve():
    tree = ast.parse(Path(polyaurn.__file__).read_text(encoding="utf-8"))
    names = [alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]
    assert names
    for name in names:
        assert hasattr(polyaurn, name), f"polyaurn does not provide {name!r}"
