"""Every concrete operator has a caller outside its own module.

An operator class that no plan, division core, CLI command, benchmark
or example names is dead code that its tests alone keep alive.  This
guard walks the ``QueryIterator`` subclasses under ``src/repro`` by AST
and fails for a concrete one (one no other class derives from) that is
named -- called, subclassed or imported -- nowhere in ``src/``,
``benchmarks/`` or ``examples/`` outside its own module and the
package ``__init__`` files, whose re-exports are not uses.  Names are
matched as AST nodes, so a word in a docstring does not count.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SCANNED = ("src", "benchmarks", "examples")


def _trees(root: Path) -> dict[Path, ast.Module]:
    return {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for folder in SCANNED
        for path in sorted((root / folder).rglob("*.py"))
    }


def _base_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _operators(trees: dict[Path, ast.Module], root: Path) -> dict[str, Path]:
    """The concrete ``QueryIterator`` subclasses under ``src/repro``,
    each with its defining module."""
    classes: dict[str, tuple[Path, set[str]]] = {}
    for path, tree in trees.items():
        if root / "src" / "repro" not in path.parents:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = {name for name in map(_base_name, node.bases) if name}
                classes[node.name] = (path, bases)

    def derives(name: str) -> bool:
        seen: set[str] = set()
        todo = [name]
        while todo:
            current = todo.pop()
            if current == "QueryIterator":
                return True
            if current in seen or current not in classes:
                continue
            seen.add(current)
            todo.extend(classes[current][1])
        return False

    derived_from = {base for _path, bases in classes.values() for base in bases}
    return {
        name: path
        for name, (path, _bases) in classes.items()
        if name != "QueryIterator" and name not in derived_from and derives(name)
    }


def _names(tree: ast.Module) -> set[str]:
    """Every class name a module refers to: names, attributes and
    imported names."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def uncalled_operators(root: Path = ROOT) -> list[str]:
    """The concrete operators no other module under ``SCANNED`` names."""
    trees = _trees(root)
    used: dict[Path, set[str]] = {
        path: _names(tree) for path, tree in trees.items() if path.name != "__init__.py"
    }
    return sorted(
        name
        for name, home in _operators(trees, root).items()
        if not any(name in names for path, names in used.items() if path != home)
    )


def test_the_guard_finds_the_operators():
    operators = _operators(_trees(ROOT), ROOT)
    for name in ("HashSemiJoin", "ExternalSort", "HashDivision", "TempFileScan"):
        assert name in operators
    # Base classes are not operators of their own.
    for name in ("QueryIterator", "BufferedIterator", "PageScan"):
        assert name not in operators


def test_every_operator_is_named_outside_its_module():
    assert uncalled_operators() == []
