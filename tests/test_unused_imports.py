"""Every import in the project's Python files is used.

A stdlib ``ast`` scan over ``src/``, ``tests/``, ``scripts/``,
``benchmarks/`` and ``examples/``: each name an ``import`` binds must
appear as a name somewhere in its module, in code or in an annotation
(quoted or not).  ``from __future__`` imports are exempt, and so are
names a module re-exports through ``__all__`` or through a lazy export
table (:func:`repro._lazy.lazy_package`).
"""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
ROOTS = ("src", "tests", "scripts", "benchmarks", "examples")


def _strings(node) -> set[str]:
    """Every string constant inside ``node``."""
    return {
        sub.value for sub in ast.walk(node)
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
    }


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a quoted annotation (``"np.ndarray"``, ``list["Job"]``) names what
    # it parses to
    for annotation in _annotations(tree):
        for text in _strings(annotation):
            try:
                quoted = ast.parse(text, mode="eval")
            except SyntaxError:
                continue
            used |= {node.id for node in ast.walk(quoted)
                     if isinstance(node, ast.Name)}
    return used


def _exported_names(tree: ast.Module) -> set[str]:
    """Names listed in ``__all__`` or a ``lazy_package`` export table."""
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            exported |= _strings(node.value)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "lazy_package":
            for arg in node.args[1:]:
                exported |= _strings(arg)
    return exported


def unused_imports(path: Path) -> list[str]:
    """``"line: name"`` for each name ``path`` imports and never uses."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree) | _exported_names(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [(alias.asname or alias.name.partition(".")[0])
                     for alias in node.names]
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names
                     if alias.name != "*"]
        else:
            continue
        unused += [f"{node.lineno}: {name}" for name in bound
                   if name not in used]
    return unused


@pytest.mark.parametrize("root", ROOTS)
def test_no_unused_imports(root):
    found = {
        str(path.relative_to(REPO)): names
        for path in sorted((REPO / root).rglob("*.py"))
        if (names := unused_imports(path))
    }
    assert not found, f"unused imports: {found}"


def test_the_scan_sees_annotations_and_exports(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import json\n"
        "from typing import TYPE_CHECKING, Mapping\n"
        "from os import path, sep\n"
        "if TYPE_CHECKING:\n"
        "    import numpy as np\n"
        "from .lazy import lazy_package\n"
        "lazy_package(__name__, {'.x': ('Thing',)})\n"
        "__all__ = ['sep']\n"
        "def f(a: 'np.ndarray', b: Mapping[str, int]) -> None:\n"
        "    pass\n"
    )
    assert unused_imports(module) == ["2: json", "4: path"]
