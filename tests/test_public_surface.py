"""The package's public surface: every name a module lists in `__all__`
exists, so `from seplqg.<module> import *` cannot fail, every name
`seplqg/__init__.py` re-exports is the module attribute it names, the
third-party packages the modules import are the ones `pyproject.toml`
declares, and those the tests import besides are its `test` extra."""

import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import seplqg

MODULES = sorted(m.name for m in pkgutil.iter_modules(seplqg.__path__))
PYPROJECT = Path(seplqg.__file__).parents[2] / "pyproject.toml"


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


def third_party_imports(paths):
    """The top-level packages the files import, the standard library's
    left out."""
    imported = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    return imported - set(sys.stdlib_module_names)


def declared_packages(list_name):
    """The package names of the `pyproject.toml` list `list_name = [...]`."""
    block = re.search(rf"^{list_name} = \[(.*?)\]", PYPROJECT.read_text(), re.M | re.S)
    assert block, f"pyproject.toml declares no {list_name} list"
    return {re.match(r"[\w.-]+", dep).group() for dep in re.findall(r'"([^"]+)"', block.group(1))}


def test_imported_packages_are_the_declared_dependencies():
    assert third_party_imports(Path(seplqg.__file__).parent.glob("*.py")) == declared_packages("dependencies")


def test_packages_the_tests_import_are_the_test_extra():
    tests = sorted(Path(__file__).parent.glob("*.py"))
    local = {"seplqg", *(path.stem for path in tests)}
    needed = third_party_imports(tests) - local - declared_packages("dependencies")
    assert needed == declared_packages("test")
