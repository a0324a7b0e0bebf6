"""Module boundaries: no module imports another's private (underscore) name, each public
name of the package has one module that lists it, each public function has a caller outside
the tests, the package and its metadata give one version, and no test module imports another."""

import ast
import importlib
import inspect
import re
import tokenize
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


def _code_names(path: Path) -> set[str]:
    """Each name in ``path``'s code, strings and comments aside, but the ones a ``def`` defines."""
    with path.open("rb") as source:
        tokens = [token for token in tokenize.tokenize(source.readline)
                  if token.type == tokenize.NAME]
    return {token.string for before, token in zip([None, *tokens], tokens)
            if before is None or before.string != "def"}


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


def test_each_public_function_has_a_caller_outside_the_tests():
    # a call in the package's own code, or any mention in the benchmark (which names the
    # functions it traces in strings) or the tools; a docstring or __all__ entry is no caller
    root = Path(__file__).parent.parent
    named = set().union(*map(_code_names, (root / "src" / "mcs_qkd").glob("*.py")))
    for path in [*(root / "bench").glob("*.py"), *(root / "tools").glob("*.py")]:
        named |= set(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    public = [name for name in mcs_qkd.__all__ if inspect.isfunction(getattr(mcs_qkd, name))]
    assert len(public) >= 19
    assert [name for name in public if name not in named] == []


def test_the_package_and_its_metadata_give_one_version():
    # a regex, not tomllib, which Python 3.10 lacks
    pyproject = (Path(__file__).parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    versions = re.findall(r'^version = "([^"]+)"$', pyproject, re.MULTILINE)
    assert versions == [mcs_qkd.__version__]
