"""No module imports a name it never uses.

An AST scan of every Python file under ``src/``, ``tests/``, ``benchmarks/``
and ``examples/``: each name an ``import`` binds must be read somewhere in
the same module -- in code, in an annotation (string annotations included)
or in ``__all__``.  Package ``__init__.py`` files are skipped, since their
imports are the package's re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "benchmarks", "examples")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import statement -> its line."""
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    return bound


def _annotation_names(annotation: ast.expr) -> set[str]:
    """Names read by one annotation, parsing string (forward) references."""
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                names |= _annotation_names(ast.parse(node.value, mode="eval").body)
            except SyntaxError:
                pass
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            every = arguments.posonlyargs + arguments.args + arguments.kwonlyargs
            every += [arg for arg in (arguments.vararg, arguments.kwarg) if arg is not None]
            annotations = [arg.annotation for arg in every] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for annotation in annotations:
            if annotation is not None:
                used |= _annotation_names(annotation)
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {
                item.value
                for item in ast.walk(node.value)
                if isinstance(item, ast.Constant) and isinstance(item.value, str)
            }
    return used


def unused_imports(path: Path, root: Path = ROOT) -> list[str]:
    """``<path>:<line> <name>`` for every import of ``path`` nothing reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    return [
        f"{path.relative_to(root)}:{line} {name}"
        for name, line in sorted(_imported_names(tree).items(), key=lambda item: item[1])
        if name not in used
    ]


def _modules() -> list[Path]:
    return sorted(
        path
        for directory in SCANNED
        for path in (ROOT / directory).rglob("*.py")
        if path.name != "__init__.py"
    )


def test_no_module_has_an_unused_import():
    unused = [entry for path in _modules() for entry in unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import os\n", ["os"]),
        ("import os.path\nos.sep\n", []),
        ("from typing import Sequence\nx: Sequence[int] = []\n", []),
        ("from a import B\ndef f(x: 'B') -> None: ...\n", []),
        ("from a import B\n__all__ = ['B']\n", []),
        ("from a import B as C\nB\n", ["C"]),
        ("from __future__ import annotations\n", []),
        ("from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from a import B\n", ["B"]),
    ],
)
def test_scanner_reads_uses_the_way_python_does(tmp_path, source, expected):
    module = tmp_path / "module.py"
    module.write_text(source)
    found = [entry.rsplit(" ", 1)[1] for entry in unused_imports(module, root=tmp_path)]
    assert found == expected
