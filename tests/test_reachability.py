"""Every top-level function and class in ``src/repro`` has a caller.

A name that only tests reach runs in no experiment, engine, service or
benchmark, yet it still costs reading, typing and upkeep.  This test
parses the package with :mod:`ast` and requires each top-level ``def``
and ``class`` to be referenced by name from some file under ``src/``,
``benchmarks/``, ``tools/``, ``examples/`` or ``perfbench/``.  A
reference inside the definition itself does not count, and neither does
a package ``__init__`` re-export: both keep a name alive without using
it.  Tests never count.
"""

import ast
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "benchmarks", "tools", "examples", "perfbench")

#: names reached in a way a name reference cannot show, each with why
ALLOWLIST = {
    "set_sanitize_enabled": "test hook: forces the switch sanitize_enabled() reads",
}


def _references(path: Path) -> List[Tuple[str, int]]:
    """``(name, line)`` for every name, attribute or import in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
            refs.extend((alias.name, node.lineno) for alias in node.names)
    return refs


def _definitions(path: Path) -> List[Tuple[str, int, int]]:
    """``(name, first_line, last_line)`` of each top-level def and class."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            defs.append((node.name, first, node.end_lineno or node.lineno))
    return defs


def _unreached() -> List[str]:
    refs: Dict[str, Set[Tuple[Path, int]]] = defaultdict(set)
    for folder in CALLER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            for name, line in _references(path):
                refs[name].add((path, line))
    unreached = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for name, first, last in _definitions(path):
            if name in ALLOWLIST:
                continue
            if all(
                where == path and first <= line <= last
                for where, line in refs.get(name, ())
            ):
                unreached.append(f"{path.relative_to(ROOT)}::{name}")
    return unreached


def test_every_top_level_name_has_a_caller_outside_tests():
    unreached = _unreached()
    assert not unreached, (
        "defined in src/repro but referenced only by tests (or not at all); "
        "delete it, give it a caller, or allowlist it with a reason: "
        + ", ".join(unreached)
    )


def test_allowlist_names_still_exist():
    defined = {
        name for path in PACKAGE.rglob("*.py") for name, _, _ in _definitions(path)
    }
    assert not set(ALLOWLIST) - defined, sorted(set(ALLOWLIST) - defined)
