"""No module of the package imports another module's private (underscore) name."""

import ast
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


def test_no_module_imports_a_private_name():
    modules = sorted(Path(mcs_qkd.__file__).parent.glob("*.py"))
    assert len(modules) >= 8  # an empty glob would pass the check below vacuously
    offenders = {path.name: names for path in modules if (names := _private_imports(path))}
    assert offenders == {}
