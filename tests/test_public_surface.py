"""The package's public surface: every name a module lists in `__all__`
exists, so `from seplqg.<module> import *` cannot fail, every name
`seplqg/__init__.py` re-exports is the module attribute it names, the
third-party packages the modules import are the ones `pyproject.toml`
declares, those the tests import besides are its `test` extra, every
name the benchmark's tracer patches resolves where it patches it, no
module imports a name it does not use, every name a module lists in
`__all__` is read by the program or the benchmark, and every exception
type of `seplqg.exceptions` is raised by the program."""

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
PERFBENCH = PYPROJECT.parent / "perfbench"


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


# The names `perfbench/tracer.py` wraps to time each layer, in the
# modules it patches them in, with the module that defines each, and
# the classes whose attributes it replaces.  A renamed or moved name
# breaks the traced benchmark run; the benchmark itself is not imported.
TRACED_FUNCTIONS = {
    "belief": {"enkf_update_members": "belief"},
    "trajopt": {"enkf_update_members": "belief"},
    "harness": {"enkf_update_members": "belief", "collect_impulse_responses": "sysid",
                "probe_output_rows": "harness", "closed_loop_band": "harness"},
    "cli": {"optimize": "trajopt", "tv_era": "sysid", "validate_rom": "sysid", "design_lqg": "lqg",
            "run_monte_carlo": "harness", "collect_impulse_responses": "sysid"},
}
CALLED_BY_NAME = {
    "trajopt": {"enkf_update_members"},
    "harness": {"collect_impulse_responses", "probe_output_rows", "closed_loop_band"},
    "cli": set(TRACED_FUNCTIONS["cli"]),
}
TRACED_METHODS = {
    ("plant", "HeatPlant"): ("step",),
    ("trajopt", "NominalTrajectory"): ("to_json", "from_json"),
    ("sysid", "LtvRom"): ("to_json", "from_json"),
    ("lqg", "LqgController"): ("to_json", "from_json"),
}


def called_names(module):
    """The names the module's code calls as bare globals."""
    tree = ast.parse(Path(module.__file__).read_text())
    return {node.func.id for node in ast.walk(tree) if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


@pytest.mark.parametrize("name", sorted(TRACED_FUNCTIONS))
def test_traced_functions_resolve_where_they_are_patched(name):
    module = importlib.import_module(f"seplqg.{name}")
    for attr, home in TRACED_FUNCTIONS[name].items():
        assert getattr(module, attr, None) is getattr(importlib.import_module(f"seplqg.{home}"), attr), attr
    # a patched name is timed only where the module calls it by that name
    assert CALLED_BY_NAME.get(name, set()) <= called_names(module)


def test_traced_methods_are_in_their_class_bodies():
    for (name, cls_name), attrs in TRACED_METHODS.items():
        cls = getattr(importlib.import_module(f"seplqg.{name}"), cls_name)
        for attr in attrs:
            assert attr in cls.__dict__, f"{cls_name}.{attr} is not bound in the class body"
        if "from_json" in attrs:
            assert isinstance(cls.__dict__["from_json"], classmethod)


def unused_imports(path):
    """The names the module at `path` imports and never reads."""
    tree = ast.parse(path.read_text())
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("name", MODULES)
def test_modules_import_only_names_they_use(name):
    # a name the tracer patches in a module stays imported there even
    # where the module does not call it; the package's own imports are its
    # re-exports, checked by test_package_reexports_resolve
    unused = unused_imports(Path(importlib.import_module(f"seplqg.{name}").__file__))
    assert unused <= set(TRACED_FUNCTIONS.get(name, ())), f"seplqg.{name} imports unused {sorted(unused)}"


def read_names(paths):
    """The bare names the files' code reads: a definition, an import, an
    `__all__` entry or a docstring reads none."""
    return {node.id for path in paths for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


# The public names no stage reads by design: the linear plant is the
# closed-form oracle a user swaps in for the heat slab.
USER_PLANTS = {"plant.LinearPlant"}


def test_every_public_name_is_read_by_the_program_or_the_benchmark():
    # a public name only the tests call is an API kept for the tests
    read = read_names([*Path(seplqg.__file__).parent.glob("*.py"), *PERFBENCH.rglob("*.py")])
    unread = [f"{name}.{attr}" for name in MODULES
              for attr in getattr(importlib.import_module(f"seplqg.{name}"), "__all__", ()) if attr not in read]
    assert set(unread) == USER_PLANTS, f"public names nothing but the tests read: {sorted(unread)}"


# The cost's weights are held in one format, read only where `CostSpec`
# is defined; every other module goes through its methods.
COST_WEIGHTS = {"q_mean", "q_terminal", "r_u"}


def test_only_trajopt_reads_the_cost_weights():
    readers = {}
    for path in sorted(Path(seplqg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        reads = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)} & COST_WEIGHTS
        if reads:
            readers[path.stem] = reads
    assert set(readers) <= {"trajopt"}, readers
    assert readers["trajopt"] == COST_WEIGHTS


def raised_names(paths):
    """The bare names the files' code raises, as `raise E` or
    `raise E(...)`."""
    raised = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    return raised


def test_every_toolkit_exception_is_raised_by_the_program():
    # an exception type nothing raises is one a caller catches in vain;
    # SepLqgError is the base class the others share
    exceptions = importlib.import_module("seplqg.exceptions")
    types = {name for name, obj in vars(exceptions).items()
             if isinstance(obj, type) and issubclass(obj, exceptions.SepLqgError)}
    assert "IntegrationDivergedError" in types
    unraised = types - {"SepLqgError"} - raised_names(Path(seplqg.__file__).parent.glob("*.py"))
    assert not unraised, f"exception types the program never raises: {sorted(unraised)}"
