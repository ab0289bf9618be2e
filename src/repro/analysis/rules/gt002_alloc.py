"""GT002 — no array allocations inside ``# hot:``-marked regions.

The step-loop contract: the per-step gossip loops run over
*preallocated* workspace buffers and allocate nothing per step.  That
property is easy to lose in review — a well-meaning ``X.copy()`` or
``np.zeros`` in the step loop reintroduces per-step page traffic and
erases the measured ~3.5x speedup.

The contract is declared in the source itself: a ``# hot:`` comment
directly above (or trailing on) a ``def`` / ``for`` / ``while`` header
marks that whole region allocation-free.  Inside a marked region this
rule flags:

* ``np.zeros`` / ``np.empty`` / ``np.full`` (and their ``_like``
  variants, plus ``np.ones``) calls;
* any ``.copy()`` method call.

Everything outside a marked region — including the one-time
:class:`~repro.gossip.engine.SparseWorkspace` construction those loops rely
on — is untouched.  The rule is self-scoping: files without a
``# hot:`` marker produce no findings, so it runs everywhere.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Union

from repro.analysis.linter import Rule, SourceFile, Violation

__all__ = ["NoHotAllocRule", "HOT_MARKER"]

#: the comment prefix that declares an allocation-free region
HOT_MARKER = "# hot:"

#: numpy allocators banned inside hot regions
_ALLOCATORS = frozenset(
    {
        "zeros", "empty", "full", "ones",
        "zeros_like", "empty_like", "full_like", "ones_like",
    }
)

_REGION_NODES = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.For,
    ast.While,
)

RegionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.For, ast.While]


def _marker_lines(src: SourceFile) -> List[int]:
    """1-based line numbers carrying a ``# hot:`` marker."""
    return [
        i for i, line in enumerate(src.lines, start=1) if HOT_MARKER in line
    ]


def hot_regions(src: SourceFile) -> List[RegionNode]:
    """The ``def``/``for``/``while`` nodes marked ``# hot:``.

    A marker binds to the innermost region whose header line is the
    marker line itself (trailing comment) or the nearest header at or
    below the marker (comment-above form, tolerating decorators and
    blank lines in between).
    """
    markers = _marker_lines(src)
    if not markers:
        return []
    candidates: List[RegionNode] = [
        node for node in ast.walk(src.tree) if isinstance(node, _REGION_NODES)
    ]
    regions: List[RegionNode] = []
    for marker in markers:
        # Nearest header at or below the marker covers both the
        # comment-above form (header strictly below, tolerating blank
        # lines/decorators) and the trailing form on a single-line
        # header (``while n:  # hot: ...`` — header line == marker).
        best: RegionNode | None = None
        for node in candidates:
            if node.lineno < marker:
                continue
            if best is None or node.lineno < best.lineno:
                best = node
        if best is None:
            # Marker trails a continuation line of a multi-line header,
            # or sits after every header: innermost containing region.
            for node in candidates:
                if node.lineno <= marker <= (node.end_lineno or node.lineno):
                    if best is None or node.lineno > best.lineno:
                        best = node
        if best is not None and best not in regions:
            regions.append(best)
    return regions


class NoHotAllocRule(Rule):
    """Hot-marked kernel regions stay allocation-free (GT002)."""

    code = "GT002"
    summary = "no np.zeros/np.empty/np.full/.copy() in # hot: regions"
    include = ()  # self-scoping: only files with # hot: markers can fire
    exclude = ()

    def check(self, src: SourceFile) -> Iterator[Violation]:
        for region in hot_regions(src):
            where = getattr(region, "name", type(region).__name__.lower())
            for node in ast.walk(region):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not isinstance(func, ast.Attribute):
                    continue
                if func.attr == "copy" and not node.args and not node.keywords:
                    yield self.violation(
                        src,
                        node,
                        f".copy() allocates inside hot region '{where}' — "
                        "reuse a workspace buffer",
                    )
                elif (
                    func.attr in _ALLOCATORS
                    and isinstance(func.value, ast.Name)
                    and func.value.id in ("np", "numpy")
                ):
                    yield self.violation(
                        src,
                        node,
                        f"np.{func.attr} allocates inside hot region "
                        f"'{where}' — preallocate in the workspace",
                    )
