"""GT007 — cross-process fan-outs keep the determinism discipline.

``experiments/runner.py`` set the house rules for process parallelism:
results are collected in **submission order** (``executor.map``, or a
futures *list* resolved in order — never ``as_completed``), and any
randomness inside a task derives from a **per-task seed** threaded
through the submission (the ``SweepPoint.seed`` convention), so worker
count and completion timing cannot reach the results.  This rule makes
that discipline checkable everywhere a ``ProcessPoolExecutor`` (or any
``concurrent.futures`` executor) appears:

* ``as_completed(...)`` — flagged unconditionally: completion order is
  scheduler noise, and code iterating it bakes that noise into results
  (if only the *values* are order-independent, collect the futures in a
  list and resolve them in submission order instead — same wall time).
* Futures collected into a ``set`` (a set-comprehension of ``submit``
  calls, or ``futures.add(pool.submit(...))``) — flagged: the
  collection itself forgets submission order.
* ``submit``/``map`` of a project-resolved task whose transitive call
  graph *consumes RNG draws* without any per-task seed evidence among
  the arguments (a ``seed``/``rng`` keyword, or an argument derived
  from ``.spawn(...)``) — flagged: worker placement becomes part of
  the random stream.
"""

from __future__ import annotations

import ast
from typing import Any, Iterator, Optional

from repro.analysis.linter import FlowRule, SourceFile, Violation
from repro.analysis.rules._flowutils import RNG_DRAW_NAMES, mentions_name

__all__ = ["ProcessPoolDisciplineRule"]

_ADVICE_ORDER = (
    "collect futures in submission order (executor.map or an ordered "
    "futures list), matching experiments/runner.py"
)
_ADVICE_SEED = (
    "thread a spawned per-task seed through the submission "
    "(seed=... kwarg or a .spawn(...)-derived argument), matching "
    "experiments/runner.py"
)

#: evidence of per-task seeding; a bare ``rng`` argument is NOT
#: evidence — sharing one generator across tasks is the bug itself
_SEED_FRAGMENTS = ("seed", "spawn")


def _contains_submit(expr: ast.expr) -> bool:
    for node in ast.walk(expr):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "submit"
        ):
            return True
    return False


def _uses_executors(src: SourceFile) -> bool:
    for node in ast.walk(src.tree):
        if isinstance(node, ast.ImportFrom):
            if node.module and node.module.startswith("concurrent"):
                return True
        elif isinstance(node, ast.Import):
            if any(alias.name.startswith("concurrent") for alias in node.names):
                return True
    return False


class ProcessPoolDisciplineRule(FlowRule):
    """Pool fan-outs: ordered collection + per-task seeds (GT007)."""

    code = "GT007"
    summary = "process fan-outs collect in submission order and thread seeds"
    include = ("repro/", "tools/", "examples/", "benchmarks/")
    exclude = ("tests/",)

    def check(self, src: SourceFile) -> Iterator[Violation]:
        if not _uses_executors(src):
            return
        project = self.project_for(src)
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Call):
                name = self._name_of(node.func)
                if name == "as_completed":
                    yield self.violation(
                        src, node,
                        f"'as_completed' iterates in completion order — "
                        f"{_ADVICE_ORDER}",
                    )
                elif (
                    name == "add"
                    and isinstance(node.func, ast.Attribute)
                    and any(_contains_submit(arg) for arg in node.args)
                ):
                    yield self.violation(
                        src, node,
                        f"futures added to a set lose submission order — "
                        f"{_ADVICE_ORDER}",
                    )
            elif isinstance(node, ast.SetComp) and _contains_submit(node.elt):
                yield self.violation(
                    src, node,
                    f"set-comprehension of submitted futures loses submission "
                    f"order — {_ADVICE_ORDER}",
                )
        yield from self._check_seed_threading(src, project)

    @staticmethod
    def _name_of(func: ast.expr) -> Optional[str]:
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
        return None

    def _check_seed_threading(
        self, src: SourceFile, project: Any
    ) -> Iterator[Violation]:
        for info in project.functions_in(src):
            for stmt_node in ast.walk(info.node):
                if not isinstance(stmt_node, ast.Call):
                    continue
                func = stmt_node.func
                if not isinstance(func, ast.Attribute):
                    continue
                if func.attr not in ("submit", "map") or not stmt_node.args:
                    continue
                task_qname = project.resolve_call(stmt_node.args[0], info)
                if task_qname is None:
                    continue
                if not project.reaches(task_qname, self._consumes_rng):
                    continue
                if self._has_seed_evidence(stmt_node):
                    continue
                yield self.violation(
                    src, stmt_node,
                    f"task '{task_qname.rsplit('.', 1)[-1]}' consumes RNG but "
                    f"the fan-out threads no per-task seed — {_ADVICE_SEED}",
                )

    @staticmethod
    def _consumes_rng(info: Any) -> bool:
        return bool(info.attr_calls & RNG_DRAW_NAMES)

    @staticmethod
    def _has_seed_evidence(call: ast.Call) -> bool:
        for kw in call.keywords:
            if kw.arg and any(f in kw.arg.lower() for f in _SEED_FRAGMENTS):
                return True
            if mentions_name(kw.value, "seed") or mentions_name(kw.value, "spawn"):
                return True
        for arg in call.args[1:]:
            if any(mentions_name(arg, f) for f in _SEED_FRAGMENTS):
                return True
        return False
