"""Module layout guards: no gapflow module imports another's private names,
and every import of one gapflow module by another is at module level."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gapflow"


def _is_gapflow(node: ast.Import | ast.ImportFrom) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "gapflow"
    return any(alias.name.split(".")[0] == "gapflow" for alias in node.names)


def private_imports(source: str) -> list[str]:
    """The underscore names a module's source imports from other gapflow
    modules, relatively (``from .schwinger import _x``) or by package name,
    at module level or inside a function."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.ImportFrom) and _is_gapflow(node)):
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                found.append(f"{node.module}.{alias.name}")
    return found


@pytest.mark.parametrize(
    "source, want",
    [
        ("from .schwinger import _border_delta, rotation_plane", ["schwinger._border_delta"]),
        ("def f():\n    from gapflow.flow import _step_failures", ["gapflow.flow._step_failures"]),
        ("from __future__ import annotations\nfrom .schwinger import border_delta", []),
        ("from numpy import _NoValue", []),
    ],
)
def test_scan_finds_private_imports(source, want):
    assert private_imports(source) == want


def test_no_module_imports_another_modules_private_name():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 9
    found = {path.name: names for path in sources if (names := private_imports(path.read_text()))}
    assert not found, f"private names imported across gapflow modules: {found}"


def function_imports(source: str) -> list[str]:
    """The gapflow modules a module's source imports inside a function body,
    relatively (``from .geometry import all_rects``) or by package name."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.ImportFrom) and _is_gapflow(node):
                found.append("." * node.level + (node.module or ""))
            elif isinstance(node, ast.Import) and _is_gapflow(node):
                found += [alias.name for alias in node.names]
    return found


@pytest.mark.parametrize(
    "source, want",
    [
        ("def f(lat):\n    from .geometry import all_rects", [".geometry"]),
        ("class A:\n    def f(self):\n        import gapflow.tensor", ["gapflow.tensor"]),
        ("def f():\n    from . import flow", ["."]),
        ("from .geometry import all_rects\ndef f():\n    return all_rects", []),
        ("def f():\n    import numpy as np\n    from scipy import linalg", []),
    ],
)
def test_scan_finds_function_imports(source, want):
    assert function_imports(source) == want


def test_no_module_imports_a_gapflow_module_inside_a_function():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 9
    found = {path.name: names for path in sources if (names := function_imports(path.read_text()))}
    assert not found, f"gapflow imports inside functions: {found}"
