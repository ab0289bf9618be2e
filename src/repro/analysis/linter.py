"""Custom AST lint framework for project-specific invariants.

Generic linters cannot know that *this* codebase promises bit-identical
runs under a seeded :class:`~repro.utils.rng.RngStreams`, or that the
gossip step loops are allocation-free by contract.  This module is the
small framework those project rules plug into:

* :class:`SourceFile` — one parsed file: AST, raw lines, and the
  ``# noqa: GTxxx`` suppression map shared by every rule.
* :class:`Rule` — base class; a rule declares its ``code``, a one-line
  ``summary``, path ``include``/``exclude`` patterns, and implements
  :meth:`Rule.check` yielding :class:`Violation` objects.
* :class:`FlowRule` — base class for the interprocedural rules
  (GT005+); the driver injects one shared
  :class:`~repro.analysis.callgraph.ProjectIndex` before checking, so
  parsing, call-graph construction, and dataflow amortize across rules.
* :class:`Violation` — one finding, renderable as plain text or as a
  GitHub Actions ``::error`` annotation.
* :func:`lint_paths` / :func:`lint_sources` — the driver used by
  ``tools/analyze.py`` and the fixture self-tests.

Suppression: a trailing ``# noqa: GT004 -- why it is safe`` comment
silences that rule on that line (comma-separated codes; a bare
``# noqa`` silences all rules).  The text after ``--`` is the
*justification*; GT009 rejects project-rule suppressions that omit it,
and ``tools/analyze.py --list-suppressions`` reports every sentinel
with its justification.  Suppressions are detected on real comment
tokens only — the string ``# noqa`` inside a docstring (like this one)
is inert.

Adding a rule: subclass :class:`Rule` (or :class:`FlowRule`) in
``repro/analysis/rules/``, register it in
:data:`repro.analysis.rules.ALL_RULES`, and add a fixture test proving
it fires on a violating snippet and stays silent on a compliant one
(see ``tests/test_analysis_linter.py``).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    ClassVar,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "Violation",
    "Suppression",
    "SourceFile",
    "Rule",
    "FlowRule",
    "lint_sources",
    "lint_paths",
    "load_sources",
    "iter_python_files",
]

#: the rule code used for files that do not parse
PARSE_ERROR_CODE = "GT000"


@dataclass(frozen=True)
class Violation:
    """One lint finding: rule code, location, and message."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self, fmt: str = "text") -> str:
        """Render for terminals (``text``) or CI (``github``)."""
        if fmt == "github":
            return (
                f"::error file={self.path},line={self.line},col={self.col},"
                f"title={self.rule}::{self.message}"
            )
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass(frozen=True)
class Suppression:
    """One ``# noqa`` sentinel: where, which codes, and why."""

    path: str
    line: int
    codes: FrozenSet[str]
    justification: str
    comment: str

    @property
    def blanket(self) -> bool:
        """True for a bare ``# noqa`` that silences every rule."""
        return "*" in self.codes


#: a noqa *directive* opens the comment: ``# noqa``, ``#noqa: GT004 -- why``
_NOQA_DIRECTIVE = re.compile(r"^#+\s*noqa\b(.*)$", re.IGNORECASE | re.DOTALL)


def _parse_noqa(comment: str) -> Optional[Tuple[FrozenSet[str], str]]:
    """Parse a comment token into ``(codes, justification)``.

    ``# noqa`` (no codes) suppresses everything (``{"*"}``).  Codes are
    comma-separated; an optional `` -- reason`` tail is the
    justification GT009 requires for project-rule sentinels.  The
    directive must *open* the comment — prose that merely mentions
    ``# noqa`` mid-comment is not a suppression.
    """
    match = _NOQA_DIRECTIVE.match(comment.strip())
    if match is None:
        return None
    rest = match.group(1)
    stripped = rest.lstrip()
    if not stripped.startswith(":"):
        # Blanket form: nothing after 'noqa' but whitespace or a reason.
        if stripped and not stripped.startswith("--"):
            return None  # '# noqachment...' / prose, not a directive
        _, _, justification = stripped.partition("--")
        return frozenset({"*"}), justification.strip()
    spec = stripped[1:]
    spec = spec.split("#", 1)[0]
    spec, _, justification = spec.partition("--")
    codes = {tok.strip().upper() for tok in spec.split(",") if tok.strip()}
    if not codes:
        return frozenset({"*"}), justification.strip()
    return frozenset(codes), justification.strip()


class SourceFile:
    """One parsed Python source file, shared across all rules.

    Parsing and the suppression scan happen once here; every rule then
    walks the same AST.  ``path`` is kept exactly as given so reported
    locations match what the caller passed (relative paths stay
    relative — what CI annotations need).  Suppressions come from real
    comment tokens (via :mod:`tokenize`), so ``# noqa`` text inside a
    string literal never silences anything.
    """

    def __init__(self, path: str, text: str):
        self.path = str(path)
        self.lines: List[str] = text.splitlines()
        self.tree: ast.Module = ast.parse(text, filename=self.path)
        #: 1-based line -> the comment token on that line, if any
        self.comments: Dict[int, str] = self._scan_comments(text)
        #: every ``# noqa`` sentinel in the file, in line order
        self.suppressions: List[Suppression] = []
        #: 1-based line -> codes suppressed on that line
        self.noqa: Dict[int, FrozenSet[str]] = {}
        for line_no, comment in sorted(self.comments.items()):
            parsed = _parse_noqa(comment)
            if parsed is None:
                continue
            codes, justification = parsed
            self.noqa[line_no] = codes
            self.suppressions.append(
                Suppression(
                    path=self.path,
                    line=line_no,
                    codes=codes,
                    justification=justification,
                    comment=comment.strip(),
                )
            )
        #: normalized posix path used for rule scoping
        self.posix = Path(self.path).as_posix()

    @staticmethod
    def _scan_comments(text: str) -> Dict[int, str]:
        comments: Dict[int, str] = {}
        try:
            for tok in tokenize.generate_tokens(io.StringIO(text).readline):
                if tok.type == tokenize.COMMENT:
                    comments[tok.start[0]] = tok.string
        except (tokenize.TokenError, IndentationError):  # pragma: no cover
            pass  # ast.parse succeeded, so this should not happen
        return comments

    @classmethod
    def read(cls, path: str) -> "SourceFile":
        """Load and parse ``path`` (UTF-8)."""
        return cls(path, Path(path).read_text(encoding="utf-8"))

    def suppressed(self, code: str, line: int) -> bool:
        """Whether rule ``code`` is ``# noqa``-silenced on ``line``."""
        codes = self.noqa.get(line)
        return bool(codes) and ("*" in codes or code.upper() in codes)


class Rule:
    """Base class of every project lint rule.

    Subclasses set :attr:`code` (``"GT00x"``), :attr:`summary`, the
    path-scoping patterns, and implement :meth:`check`.  Scoping matches
    on normalized posix paths: a rule applies when any ``include``
    substring occurs in the path (empty ``include`` = everywhere) and no
    ``exclude`` substring does.
    """

    code: ClassVar[str] = ""
    summary: ClassVar[str] = ""
    #: substring patterns selecting the files the rule runs on
    include: ClassVar[Tuple[str, ...]] = ()
    #: substring patterns exempting files even when included
    exclude: ClassVar[Tuple[str, ...]] = ()
    #: rules that audit the suppression mechanism itself set this False
    #: so a ``# noqa`` cannot silence them
    suppressible: ClassVar[bool] = True

    def applies_to(self, src: SourceFile) -> bool:
        """Whether this rule runs on ``src`` (path scoping)."""
        path = src.posix
        if any(pat in path for pat in self.exclude):
            return False
        return not self.include or any(pat in path for pat in self.include)

    def check(self, src: SourceFile) -> Iterator[Violation]:
        """Yield violations found in ``src``; override in subclasses."""
        raise NotImplementedError

    def violation(self, src: SourceFile, node: ast.AST, message: str) -> Violation:
        """Build a :class:`Violation` located at ``node``."""
        return Violation(
            rule=self.code,
            path=src.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


class FlowRule(Rule):
    """A rule that needs the shared project index (call graph + flows).

    The driver builds one :class:`~repro.analysis.callgraph.ProjectIndex`
    over every file in the run and injects it via :meth:`bind_project`
    before any :meth:`check` call.  Checking a :class:`FlowRule` without
    a bound project builds a single-file index on the fly — fixture
    tests lint one snippet at a time and still need resolution inside
    that snippet.
    """

    needs_project: ClassVar[bool] = True

    def __init__(self) -> None:
        self.project: Any = None

    def bind_project(self, project: Any) -> None:
        """Attach the shared project index for this lint run."""
        self.project = project

    def project_for(self, src: SourceFile) -> Any:
        """The bound index, or a throwaway single-file one."""
        if self.project is not None:
            return self.project
        from repro.analysis.callgraph import ProjectIndex

        return ProjectIndex([src])


def _bind_flow_rules(sources: Sequence[SourceFile], rules: Sequence[Rule]) -> None:
    flow_rules = [r for r in rules if getattr(r, "needs_project", False)]
    if not flow_rules:
        return
    from repro.analysis.callgraph import ProjectIndex

    project = ProjectIndex(sources)
    for rule in flow_rules:
        rule.bind_project(project)  # type: ignore[attr-defined]


def lint_sources(sources: Iterable[SourceFile], rules: Sequence[Rule]) -> List[Violation]:
    """Run ``rules`` over parsed ``sources``; suppressions applied.

    Flow rules get one shared :class:`ProjectIndex` over all
    ``sources`` — the cache that keeps whole-tree runs fast.
    """
    source_list = list(sources)
    _bind_flow_rules(source_list, rules)
    out: List[Violation] = []
    for src in source_list:
        for rule in rules:
            if not rule.applies_to(src):
                continue
            for v in rule.check(src):
                if rule.suppressible and src.suppressed(v.rule, v.line):
                    continue
                out.append(v)
    out.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return out


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Expand files/directories into a sorted stream of ``.py`` paths."""
    seen = set()
    for raw in paths:
        p = Path(raw)
        candidates = sorted(p.rglob("*.py")) if p.is_dir() else [p]
        for f in candidates:
            if "__pycache__" in f.parts:
                continue
            key = f.as_posix()
            if key not in seen:
                seen.add(key)
                yield key


def load_sources(paths: Sequence[str]) -> Tuple[List[SourceFile], List[Violation]]:
    """Parse every ``.py`` file under ``paths``.

    Returns the parsed sources plus :data:`GT000 <PARSE_ERROR_CODE>`
    violations for files that fail to parse — a broken file must fail
    the gate, not hide the rest of the report.
    """
    sources: List[SourceFile] = []
    violations: List[Violation] = []
    for path in iter_python_files(paths):
        try:
            sources.append(SourceFile.read(path))
        except (SyntaxError, ValueError, UnicodeDecodeError) as exc:
            line = getattr(exc, "lineno", None) or 1
            violations.append(
                Violation(
                    rule=PARSE_ERROR_CODE,
                    path=path,
                    line=int(line),
                    col=1,
                    message=f"file does not parse: {exc}",
                )
            )
    return sources, violations


def lint_paths(paths: Sequence[str], rules: Sequence[Rule]) -> List[Violation]:
    """Lint every ``.py`` file under ``paths`` with ``rules``."""
    sources, violations = load_sources(paths)
    violations.extend(lint_sources(sources, rules))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations
