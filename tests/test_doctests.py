"""The ``>>>`` examples in ``src/repro`` docstrings run and print what they show.

Every module whose source holds a docstring example is collected by a
text scan, so a module that gains an example is checked without being
listed here.  An example that cannot run (``+SKIP``) says so itself.
"""

from __future__ import annotations

import doctest
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = sorted(
    _module_name(path)
    for path in PACKAGE.rglob("*.py")
    if ">>>" in path.read_text(encoding="utf-8")
)


def test_modules_with_examples_are_found():
    assert "repro.core.gossiptrust" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed"
    assert result.attempted > 0
