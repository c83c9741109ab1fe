"""Module layout guard: no gapflow module imports another's private names."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gapflow"


def private_imports(source: str) -> list[str]:
    """The underscore names a module's source imports from other gapflow
    modules, relatively (``from .schwinger import _x``) or by package name,
    at module level or inside a function."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "gapflow":
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
