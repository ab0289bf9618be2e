"""Every top-level function and class, and every class member, has a caller.

A name that only tests reach runs in no experiment, engine, service or
benchmark, yet it still costs reading, typing and upkeep.  This test
parses the package with :mod:`ast` and requires each top-level ``def``
and ``class`` and each method and property defined in a class body
(dunder methods excepted: the language calls them) to be referenced by
name from some file under ``src/``, ``benchmarks/``, ``tools/``,
``examples/`` or ``perfbench/``.  A reference inside the definition
itself does not count, and neither does a package ``__init__``
re-export: both keep a name alive without using it.  Tests never count.

Members match by name alone: ``obj.run(...)`` anywhere reaches every
method called ``run``.
"""

import ast
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "benchmarks", "tools", "examples", "perfbench")

#: names reached in a way a name reference cannot show, each with why
#: (members as ``Class.member``)
ALLOWLIST = {
    "set_sanitize_enabled": "test hook: forces the switch sanitize_enabled() reads",
    "Simulator.peek": "observation seam: tests read the next event time without running it",
    "LinkFailureModel.down_count": "observation seam: tests count failed links",
    "LinkFailureModel.partitioned": "observation seam: tests read whether a partition is active",
    "ReliableTransport.pending_count": "observation seam: tests count unacked sends",
    "ChordRing.ring_id": "observation seam: tests place keys and nodes on the ring",
    "SynchronousGossipEngine.sparse_workspace": (
        "observation seam: tests check the workspace's lifetime, blocks and footprint"
    ),
    "BoundedZipf.pmf": "the law the sampler tests compare draw frequencies against",
    "TwoSegmentZipf.pmf": "the law the sampler tests compare draw frequencies against",
    "TrustMatrix.from_dense_raw": "reached by the docstring examples, which tests run",
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


def _span(node: ast.AST) -> Tuple[int, int]:
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return first, node.end_lineno or node.lineno


def _definitions(path: Path) -> List[Tuple[str, str, int, int]]:
    """``(key, name, first_line, last_line)`` of each checked definition.

    ``key`` is the name of a top-level def or class, and
    ``Class.member`` for a method or property of any class in the file.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defs = []
    for node in tree.body:
        if isinstance(node, functions + (ast.ClassDef,)):
            defs.append((node.name, node.name, *_span(node)))
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, functions) and not (
                node.name.startswith("__") and node.name.endswith("__")
            ):
                defs.append((f"{cls.name}.{node.name}", node.name, *_span(node)))
    return defs


def _unreached(members: bool) -> List[str]:
    """Unreached top-level names, or with ``members`` unreached class members."""
    refs: Dict[str, Set[Tuple[Path, int]]] = defaultdict(set)
    for folder in CALLER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            for name, line in _references(path):
                refs[name].add((path, line))
    unreached = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for key, name, first, last in _definitions(path):
            if key in ALLOWLIST or ("." in key) != members:
                continue
            if all(
                where == path and first <= line <= last
                for where, line in refs.get(name, ())
            ):
                unreached.append(f"{path.relative_to(ROOT)}::{key}")
    return unreached


def _message(unreached: List[str]) -> str:
    return (
        "defined in src/repro but referenced only by tests (or not at all); "
        "delete it, give it a caller, or allowlist it with a reason: "
        + ", ".join(unreached)
    )


def test_every_top_level_name_has_a_caller_outside_tests():
    unreached = _unreached(members=False)
    assert not unreached, _message(unreached)


def test_every_class_member_has_a_caller_outside_tests():
    unreached = _unreached(members=True)
    assert not unreached, _message(unreached)


def test_allowlist_names_still_exist():
    defined = {
        key for path in PACKAGE.rglob("*.py") for key, _, _, _ in _definitions(path)
    }
    assert not set(ALLOWLIST) - defined, sorted(set(ALLOWLIST) - defined)
    assert all(reason.strip() for reason in ALLOWLIST.values())
