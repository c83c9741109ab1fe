"""README drift guard: the code names the README quotes exist."""

import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import gapflow

README = Path(__file__).resolve().parents[1] / "README.md"
# a backticked dotted name at the start of a code span, such as
# `schwinger.series_stack`, `LocalOp.norm` or `flow.failed_claims(state)`
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)")


def _namespaces() -> dict[str, object]:
    """The package and its modules by short name, and every class they
    define by its own name."""
    spaces: dict[str, object] = {"gapflow": gapflow}
    for info in pkgutil.iter_modules(gapflow.__path__):
        spaces[info.name] = importlib.import_module(f"gapflow.{info.name}")
    for mod in list(spaces.values()):
        for name, obj in vars(mod).items():
            if inspect.isclass(obj) and obj.__module__.startswith("gapflow"):
                spaces.setdefault(name, obj)
    return spaces


def _has(obj: object, name: str) -> bool:
    if hasattr(obj, name):
        return True
    return dataclasses.is_dataclass(obj) and name in {f.name for f in dataclasses.fields(obj)}


def test_readme_code_names_resolve():
    # names whose head is not a gapflow module or class (config keys such
    # as `checks.consistency`, report fields, variables like `state.spec`)
    # are not checked
    spaces = _namespaces()
    checked, missing = 0, []
    for dotted in sorted(set(DOTTED.findall(README.read_text()))):
        head, *parts = dotted.split(".")
        if head not in spaces:
            continue
        obj = spaces[head]
        for part in parts:
            if not _has(obj, part):
                missing.append(dotted)
                break
            obj = getattr(obj, part, None)
        checked += 1
    assert checked >= 40
    assert not missing, f"README names missing from gapflow: {missing}"
