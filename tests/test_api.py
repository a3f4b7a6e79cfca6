"""Every exported name resolves, so a deletion cannot leave a stale export."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import cubecond

MODULES = sorted(info.name for info in pkgutil.iter_modules(cubecond.__path__))


def test_modules_found():
    assert {"poly", "condition", "interval", "pv", "univariate"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"cubecond.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(inspect.getsource(cubecond))
    imported = [
        (node.module, alias.asname or alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        source = importlib.import_module(f"cubecond.{module}")
        assert getattr(cubecond, name) is getattr(source, name)
