"""The package's public surface: every name a module lists in `__all__`
exists, so `from seplqg.<module> import *` cannot fail, and every name
`seplqg/__init__.py` re-exports is the module attribute it names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import seplqg

MODULES = sorted(m.name for m in pkgutil.iter_modules(seplqg.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"seplqg.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"seplqg.{name}.__all__ lists undefined names {missing}"


def test_package_reexports_resolve():
    tree = ast.parse(Path(seplqg.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"seplqg.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"seplqg.{node.module} has no {alias.name}"
            assert getattr(seplqg, alias.asname or alias.name) is getattr(module, alias.name)
