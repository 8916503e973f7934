"""No module imports a name it never uses, or a ``repro`` name that is gone.

An AST scan of every Python file under ``src/``, ``tests/``, ``benchmarks/``
and ``examples/``:

* each name an ``import`` binds must be read somewhere in the same module --
  in code, in an annotation (string annotations included) or in
  ``__all__``.  Package ``__init__.py`` files are skipped, since their
  imports are the package's re-exports;
* every ``import repro...`` and ``from repro... import name`` must resolve,
  wherever it sits: in a function body, under ``TYPE_CHECKING`` or in an
  ``__init__.py``.  Lazy imports only fail when their code runs, and the
  examples and most benchmark bodies never run in the test suite.  This
  check also reads ``perfbench/``, the benchmark harness, so a change that
  drops a name the harness imports fails here rather than in a benchmark
  run.  The unused-import check leaves ``perfbench/`` alone: it changes
  only with the benchmark itself.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "benchmarks", "examples")
#: Read-only extra scope of the import-resolution check.
BENCHMARK_HARNESS = ("perfbench",)


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


def _repro_imports(tree: ast.Module) -> list[tuple[int, str, str | None]]:
    """``(line, module, imported name or None)`` of every absolute ``repro`` import."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [
                (node.lineno, alias.name, None)
                for alias in node.names
                if alias.name.split(".")[0] == "repro"
            ]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == "repro":
                found += [(node.lineno, node.module, alias.name) for alias in node.names]
    return found


def _resolves(module: str, name: str | None) -> bool:
    """Whether ``import module`` / ``from module import name`` would succeed."""
    try:
        loaded = importlib.import_module(module)
    except ImportError:
        return False
    if name is None or name == "*" or hasattr(loaded, name):
        return True
    try:
        return importlib.util.find_spec(f"{module}.{name}") is not None
    except ImportError:  # ``module`` is not a package
        return False


def dangling_imports(path: Path, root: Path = ROOT) -> list[str]:
    """``<path>:<line> <import>`` for every ``repro`` import of ``path`` that fails."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path.relative_to(root)}:{line} {module}" + ("" if name is None else f" import {name}")
        for line, module, name in _repro_imports(tree)
        if not _resolves(module, name)
    ]


def _sources(directories: tuple[str, ...] = SCANNED) -> list[Path]:
    return sorted(path for directory in directories for path in (ROOT / directory).rglob("*.py"))


def test_no_module_has_an_unused_import():
    unused = [
        entry
        for path in _sources()
        if path.name != "__init__.py"
        for entry in unused_imports(path)
    ]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_every_repro_import_resolves():
    dangling = [
        entry
        for path in _sources(SCANNED + BENCHMARK_HARNESS)
        for entry in dangling_imports(path)
    ]
    assert not dangling, "imports that do not resolve:\n" + "\n".join(dangling)


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


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import repro.ml.m5p\n", []),
        ("from repro.ml import M5PModelTree\n", []),
        ("from repro.api import cli\n", []),
        ("import os\nfrom collections import NoSuchName\n", []),
        ("import repro.no_such_module\n", ["repro.no_such_module"]),
        ("from repro.no_such_module import name\n", ["repro.no_such_module import name"]),
        ("from repro.ml.m5p import no_such_name\n", ["repro.ml.m5p import no_such_name"]),
        (
            "def main():\n    from repro.core import NoSuchName\n",
            ["repro.core import NoSuchName"],
        ),
    ],
)
def test_resolver_flags_dangling_repro_imports(tmp_path, source, expected):
    module = tmp_path / "__init__.py"
    module.write_text(source)
    found = [entry.split(" ", 1)[1] for entry in dangling_imports(module, root=tmp_path)]
    assert found == expected
