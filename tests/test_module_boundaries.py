"""Module boundaries: no module imports another's private (underscore) name, each public
name of the package has one module that lists it, and no test module imports another."""

import ast
import importlib
from pathlib import Path

import mcs_qkd


def _private_imports(path: Path) -> list[str]:
    """``module.name`` for every underscore name that ``path`` imports from a sibling module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
    return found


def _test_module_imports(path: Path) -> list[str]:
    """Every ``test_*`` module that ``path`` imports, or imports a name from."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found += [node.module] if node.module else [alias.name for alias in node.names]
    return [name for name in found if name.split(".")[0].startswith("test_")]


def test_no_module_imports_a_private_name():
    modules = sorted(Path(mcs_qkd.__file__).parent.glob("*.py"))
    assert len(modules) >= 8  # an empty glob would pass the check below vacuously
    offenders = {path.name: names for path in modules if (names := _private_imports(path))}
    assert offenders == {}


def test_each_public_name_is_listed_by_one_module():
    modules = [importlib.import_module(f"mcs_qkd.{path.stem}")
               for path in Path(mcs_qkd.__file__).parent.glob("*.py")
               if not path.stem.startswith("_")]
    assert len(modules) >= 7
    for name in mcs_qkd.__all__:
        owners = [module for module in modules if name in getattr(module, "__all__", ())]
        assert len(owners) == 1, (name, [module.__name__ for module in owners])
        assert getattr(mcs_qkd, name) is getattr(owners[0], name)


def test_no_test_module_imports_another():
    # shared inputs live in tests/reference.py, so each test module runs on its own
    modules = sorted(Path(__file__).parent.glob("*.py"))
    assert len(modules) >= 18
    offenders = {path.name: names for path in modules if (names := _test_module_imports(path))}
    assert offenders == {}
