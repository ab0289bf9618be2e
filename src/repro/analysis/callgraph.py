"""Project symbol table and call graph for flow-aware lint rules.

The GT001–GT004 rules are *local*: each fires on a syntactic pattern in
one file.  The determinism rules added with the interprocedural layer
(GT005–GT008) need to answer questions no single AST can: *does this
function's output feed an RNG draw three calls away?*  *Is this callable
handed to a process pool one that consumes randomness?*  This module
builds the shared index those questions run against:

* :class:`ModuleInfo` — one parsed module: its dotted name, import
  alias map, and top-level symbols.
* :class:`FunctionInfo` — one function or method (nested functions
  included): its qualified name, AST node, resolved project callees,
  and the attribute-call names it could not resolve.
* :class:`ProjectIndex` — the whole-project view: symbol resolution,
  the call graph, memoized transitive closures
  (:meth:`ProjectIndex.reachable`), and a per-function
  :class:`~repro.analysis.dataflow.FunctionFlow` cache so every rule
  shares one dataflow result per function.

The index is built **once** per lint invocation (``tools/analyze.py``
constructs it from the same :class:`~repro.analysis.linter.SourceFile`
objects every rule walks) — parsing, call-graph construction, and
dataflow all amortize across the GT005–GT008 rule set, which is what
keeps ``make analyze`` over the full tree in single-digit seconds.

Resolution is deliberately best-effort: Python's dynamism makes a sound
call graph impossible, and a lint rule wants high precision over
soundness.  A ``Name`` call resolves through enclosing-function nested
defs, then module scope, then the import map; ``self.method()``
resolves inside the enclosing class; a bare ``obj.method()`` resolves
by method name only when that name is defined exactly once in the
project (or in the same module) — otherwise it is recorded in
:attr:`FunctionInfo.attr_calls` for rules that match on method *names*
(e.g. the RNG draw methods ``integers``/``choice``/``shuffle``).
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.dataflow import FunctionFlow
from repro.analysis.linter import SourceFile

__all__ = [
    "ModuleInfo",
    "FunctionInfo",
    "ProjectIndex",
    "module_name_for",
]

#: package roots recognized when deriving dotted module names from paths
_PACKAGE_ROOTS = ("repro", "tests", "tools", "examples", "benchmarks")

FuncNode = ast.FunctionDef  # methods and nested functions share the shape


def module_name_for(path: str) -> str:
    """The dotted module name a posix ``path`` maps to.

    ``src/repro/gossip/engine.py`` -> ``repro.gossip.engine``; paths
    outside a recognized package root fall back to their stem, so
    fixture files in temporary directories still index cleanly.
    """
    parts = list(PurePosixPath(path).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    for root in _PACKAGE_ROOTS:
        if root in parts:
            return ".".join(parts[parts.index(root):])
    return ".".join(parts[-1:]) if parts else "<unknown>"


class ModuleInfo:
    """One module's symbols as seen by the resolver."""

    def __init__(self, name: str, src: SourceFile):
        self.name = name
        self.src = src
        #: local alias -> dotted target (``np`` -> ``numpy``,
        #: ``as_generator`` -> ``repro.utils.rng.as_generator``)
        self.imports: Dict[str, str] = {}
        #: top-level function name -> qname
        self.functions: Dict[str, str] = {}
        #: class name -> {method name -> qname}
        self.classes: Dict[str, Dict[str, str]] = {}
        self._scan_imports()

    def _scan_imports(self) -> None:
        for node in ast.walk(self.src.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    target = alias.name if alias.asname else alias.name.split(".", 1)[0]
                    self.imports[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )


class FunctionInfo:
    """One function/method definition plus its outgoing call edges."""

    def __init__(
        self,
        qname: str,
        node: FuncNode,
        module: ModuleInfo,
        cls: Optional[str] = None,
        parent: Optional["FunctionInfo"] = None,
    ):
        self.qname = qname
        self.node = node
        self.module = module
        #: name of the enclosing class, for methods
        self.cls = cls
        #: enclosing function, for nested defs
        self.parent = parent
        #: nested def name -> qname
        self.nested: Dict[str, str] = {}
        #: resolved project callees (qnames) — the call-graph edges
        self.calls: Set[str] = set()
        #: dotted names of calls resolved outside the project
        #: (``numpy.random.default_rng``, ``os.listdir``)
        self.external_calls: Set[str] = set()
        #: method names of attribute calls that resolved to nothing
        #: (``obj.integers()`` on an unknown receiver -> ``integers``)
        self.attr_calls: Set[str] = set()

    @property
    def src(self) -> SourceFile:
        return self.module.src

    def __repr__(self) -> str:  # pragma: no cover
        return f"FunctionInfo({self.qname!r}, calls={len(self.calls)})"


def _own_statements(func: FuncNode) -> Iterator[ast.AST]:
    """Walk ``func``'s body without descending into nested defs/classes."""
    stack: List[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue  # nested scopes index separately
        stack.extend(ast.iter_child_nodes(node))


def _dotted(expr: ast.expr) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` as ``("a", "b", "c")``, or None for non-name chains."""
    parts: List[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return tuple(reversed(parts))


class ProjectIndex:
    """Symbol table + call graph over a set of parsed sources.

    Build once per lint run (``ProjectIndex(sources)``), then share it
    across every flow rule: the per-function dataflow cache
    (:meth:`flow`) and the reachability memo (:meth:`reachable`) are
    the expensive artifacts the caching requirement is about.
    """

    def __init__(self, sources: Sequence[SourceFile]):
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        #: method/function name -> qnames defining it (for unique-name
        #: attribute-call resolution)
        self._by_name: Dict[str, List[str]] = {}
        self._flows: Dict[str, FunctionFlow] = {}
        self._closures: Dict[str, FrozenSet[str]] = {}
        for src in sources:
            self._index_source(src)
        for info in self.functions.values():
            self._extract_calls(info)

    # -- construction ------------------------------------------------------

    def _index_source(self, src: SourceFile) -> None:
        mod = ModuleInfo(module_name_for(src.posix), src)
        # Last module with a name wins; fixture collisions are harmless
        # because resolution happens through each function's own module.
        self.modules[mod.name] = mod
        for node in src.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(node, mod, cls=None, parent=None)
            elif isinstance(node, ast.ClassDef):
                methods: Dict[str, str] = {}
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        info = self._index_function(
                            item, mod, cls=node.name, parent=None
                        )
                        methods[item.name] = info.qname
                mod.classes[node.name] = methods

    def _index_function(
        self,
        node: FuncNode,
        mod: ModuleInfo,
        cls: Optional[str],
        parent: Optional[FunctionInfo],
    ) -> FunctionInfo:
        if parent is not None:
            qname = f"{parent.qname}.<locals>.{node.name}"
        elif cls is not None:
            qname = f"{mod.name}.{cls}.{node.name}"
        else:
            qname = f"{mod.name}.{node.name}"
        info = FunctionInfo(qname, node, mod, cls=cls, parent=parent)
        self.functions[qname] = info
        self._by_name.setdefault(node.name, []).append(qname)
        if parent is not None:
            parent.nested[node.name] = qname
        elif cls is None:
            mod.functions[node.name] = qname
        for item in node.body:
            self._walk_nested(item, mod, info)
        return info

    def _walk_nested(self, node: ast.AST, mod: ModuleInfo, owner: FunctionInfo) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._index_function(node, mod, cls=owner.cls, parent=owner)
            return
        if isinstance(node, ast.ClassDef):
            return  # classes nested in functions: out of resolver scope
        for child in ast.iter_child_nodes(node):
            self._walk_nested(child, mod, owner)

    def _extract_calls(self, info: FunctionInfo) -> None:
        for node in _own_statements(info.node):
            if not isinstance(node, ast.Call):
                continue
            resolved = self.resolve_call(node.func, info)
            if resolved is not None:
                info.calls.add(resolved)
                continue
            dotted = _dotted(node.func)
            if dotted is not None and len(dotted) > 1:
                head = info.module.imports.get(dotted[0])
                if head is not None:
                    info.external_calls.add(".".join((head, *dotted[1:])))
                    continue
            if isinstance(node.func, ast.Attribute):
                info.attr_calls.add(node.func.attr)
            elif isinstance(node.func, ast.Name):
                info.external_calls.add(node.func.id)

    # -- resolution --------------------------------------------------------

    def resolve_call(
        self, func: ast.expr, caller: FunctionInfo
    ) -> Optional[str]:
        """The project qname ``func`` refers to, or None.

        Resolution order for ``Name`` calls: nested defs of enclosing
        functions, the caller's module scope, then imports of project
        modules.  ``self.m()`` / ``cls.m()`` resolves in the enclosing
        class; ``Class.m()`` and ``module.f()`` resolve through the
        import map; a bare ``obj.m()`` resolves only when ``m`` is
        defined exactly once project-wide or once in the caller's
        module.
        """
        mod = caller.module
        if isinstance(func, ast.Name):
            scope: Optional[FunctionInfo] = caller
            while scope is not None:
                if func.id in scope.nested:
                    return scope.nested[func.id]
                scope = scope.parent
            if func.id in mod.functions:
                return mod.functions[func.id]
            target = mod.imports.get(func.id)
            if target is not None and target in self.functions:
                return target
            return None
        dotted = _dotted(func)
        if dotted is None:
            return None
        head, *rest = dotted
        if head in ("self", "cls") and caller.cls is not None and len(rest) == 1:
            methods = mod.classes.get(caller.cls, {})
            if rest[0] in methods:
                return methods[rest[0]]
        if head in mod.classes and len(rest) == 1 and rest[0] in mod.classes[head]:
            return mod.classes[head][rest[0]]
        target = mod.imports.get(head)
        if target is not None:
            qname = ".".join((target, *rest))
            if qname in self.functions:
                return qname
            # ``module.func`` style: module alias + func
            if len(rest) == 1 and target in self.modules:
                return self.modules[target].functions.get(rest[0])
        # Unique-name fallback for attribute calls on unknown receivers.
        if len(dotted) == 2:
            method = dotted[1]
            in_module = [
                q for q in self._by_name.get(method, ())
                if self.functions[q].module is mod
            ]
            if len(in_module) == 1:
                return in_module[0]
            everywhere = self._by_name.get(method, [])
            if len(everywhere) == 1:
                return everywhere[0]
        return None

    # -- queries -----------------------------------------------------------

    def flow(self, qname: str) -> Optional[FunctionFlow]:
        """The cached :class:`FunctionFlow` of ``qname`` (None if unknown)."""
        if qname in self._flows:
            return self._flows[qname]
        info = self.functions.get(qname)
        if info is None:
            return None
        fl = FunctionFlow(info.node)
        self._flows[qname] = fl
        return fl

    def reachable(self, qname: str) -> FrozenSet[str]:
        """Qnames transitively callable from ``qname`` (including itself)."""
        cached = self._closures.get(qname)
        if cached is not None:
            return cached
        seen: Set[str] = set()
        stack = [qname]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            info = self.functions.get(cur)
            if info is None:
                continue
            stack.extend(info.calls - seen)
        out = frozenset(seen)
        self._closures[qname] = out
        return out

    def reaches(
        self, qname: str, predicate: Callable[[FunctionInfo], bool]
    ) -> bool:
        """Whether any function reachable from ``qname`` satisfies ``predicate``."""
        for reached in self.reachable(qname):
            info = self.functions.get(reached)
            if info is not None and predicate(info):
                return True
        return False

    def functions_in(self, src: SourceFile) -> List[FunctionInfo]:
        """Every indexed function whose definition lives in ``src``."""
        return [
            info for info in self.functions.values() if info.src is src
        ]

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ProjectIndex(modules={len(self.modules)}, "
            f"functions={len(self.functions)})"
        )
