"""Every name, option and stored attribute in the package has a user.

A name that only tests reach runs in no experiment, engine, service or
benchmark, yet it still costs reading, typing and upkeep.  This test
parses the package with :mod:`ast` and requires each top-level ``def``
and ``class`` and each method and property defined in a class body
(dunder methods excepted: the language calls them) to be reached from
some file under ``src/``, ``benchmarks/``, ``tools/``, ``examples/`` or
``perfbench/``.  A top-level name is reached by any reference to it.
A reference inside the definition itself does not count, and neither
does a package ``__init__`` re-export: both keep a name alive without
using it.  Tests never count.

Members are matched through the project call graph
(:class:`~repro.analysis.callgraph.ProjectIndex`, the resolver behind
GT005–GT008).  A member ``C.m`` is reached by a call the index resolves
to ``C.m`` or to ``m`` on a base class of ``C`` (``rule.check(src)``
in ``linter.py`` resolves to ``Rule.check`` and so reaches every rule's
``check``); by a call it cannot
resolve, or one in module-level code, that names ``m``; by a bound
method ``x.m`` passed as a call argument; by ``getattr``/``hasattr``
with the string ``"m"``; and, for a property, by any load of ``x.m``.
A local variable named ``m``, a call resolved to ``m`` on an unrelated
class, or a non-call load such as ``sel.step`` reaches nothing.

The same holds one level down.  A defaulted parameter of a public
function, method or constructor must be set by some call outside the
tests (a test that needs another value monkeypatches a module
constant), and every ``self.<attr>`` the package stores must be read
somewhere outside the tests.
"""

import ast
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import pytest

from repro.analysis.callgraph import FunctionInfo, ProjectIndex, module_name_for
from repro.analysis.linter import SourceFile

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "benchmarks", "tools", "examples", "perfbench")
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: names reached in a way a name reference cannot show, each with why
#: (members as ``Class.member``)
ALLOWLIST = {
    "set_sanitize_enabled": "test hook: forces the switch sanitize_enabled() reads",
    "Simulator.peek": "observation seam: tests read the next event time without running it",
    "LinkFailureModel.down_count": "observation seam: tests count failed links",
    "LinkFailureModel.partitioned": "observation seam: tests read whether a partition is active",
    "ReliableTransport.pending_count": "observation seam: tests count unacked sends",
    "ChordRing.ring_id": "observation seam: tests place keys and nodes on the ring",
    "ChordRing.owner": (
        "reference implementation: the successor rule computed directly, which "
        "the routing tests compare Chord lookups against"
    ),
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
    defs = []
    for node in tree.body:
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            defs.append((node.name, node.name, *_span(node)))
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, _FUNCTIONS) and not (
                node.name.startswith("__") and node.name.endswith("__")
            ):
                defs.append((f"{cls.name}.{node.name}", node.name, *_span(node)))
    return defs


#: name -> the ``(file, line)`` places that reach it
Refs = Dict[str, Set[Tuple[Path, int]]]


def _unreached() -> List[str]:
    """Top-level names no file outside the tests references."""
    refs: Refs = defaultdict(set)
    for folder in CALLER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            for name, line in _references(path):
                refs[name].add((path, line))
    unreached = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for key, name, first, last in _definitions(path):
            if key in ALLOWLIST or "." in key:
                continue
            if all(
                where == path and first <= line <= last
                for where, line in refs.get(name, ())
            ):
                unreached.append(f"{path.relative_to(ROOT)}::{key}")
    return unreached


def _member_references(
    index: ProjectIndex, files: Dict[Path, SourceFile]
) -> Tuple[Refs, Refs, Refs]:
    """Where each member is reached: ``(resolved, named, loaded)``.

    ``resolved`` maps a project qname to the calls the index resolves to
    it; ``named`` maps a method name to unresolved or module-level calls
    of that name, bound methods passed as arguments that the index
    cannot resolve, and ``getattr``/``hasattr`` strings; ``loaded`` maps
    an attribute name to its loads (what reaches a property).
    """
    owners = {id(info.node): info for info in index.functions.values()}
    resolved: Refs = defaultdict(set)
    named: Refs = defaultdict(set)
    loaded: Refs = defaultdict(set)

    def visit(node: ast.AST, info: Optional[FunctionInfo], path: Path) -> None:
        if isinstance(node, _FUNCTIONS):
            info = owners.get(id(node))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loaded[node.attr].add((path, node.lineno))
        elif isinstance(node, ast.Call):
            where = (path, node.lineno)
            targets = [node.func] + [
                arg for arg in (*node.args, *(k.value for k in node.keywords))
                if isinstance(arg, ast.Attribute)
            ]
            for target in targets:
                qname = index.resolve_call(target, info) if info else None
                if qname is not None:
                    resolved[qname].add(where)
                elif isinstance(target, ast.Attribute):
                    named[target.attr].add(where)
            if (
                _callee(node) in ("getattr", "hasattr")
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
            ):
                named[node.args[1].value].add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, info, path)

    for path, src in files.items():
        visit(src.tree, None, path)
    return resolved, named, loaded


def _ancestors(index: ProjectIndex) -> Dict[str, List[str]]:
    """Class qname -> the qnames of its project base classes, transitively."""
    bases: Dict[str, List[str]] = {}
    for mod in index.modules.values():
        for cls in mod.src.tree.body:
            if isinstance(cls, ast.ClassDef):
                bases[f"{mod.name}.{cls.name}"] = [
                    f"{mod.name}.{b.id}" if b.id in mod.classes else mod.imports.get(b.id, "")
                    for b in cls.bases
                    if isinstance(b, ast.Name)
                ]

    def walk(qname: str) -> List[str]:
        out = []
        for base in bases.get(qname, ()):
            if base in bases:
                out += [base] + walk(base)
        return out

    return {qname: walk(qname) for qname in bases}


def _unreached_members(package: Path, callers: Sequence[Path]) -> List[str]:
    """Class members of ``package`` no code under ``callers`` reaches.

    ``package`` is a ``src/<name>`` directory under one of ``callers``;
    keys are reported relative to the directory above ``src``.
    """
    root = package.parents[1]
    files = {
        path: SourceFile(path.relative_to(root).as_posix(), path.read_text())
        for folder in callers
        for path in sorted(folder.rglob("*.py"))
    }
    index = ProjectIndex(list(files.values()))
    resolved, named, loaded = _member_references(index, files)
    ancestors = _ancestors(index)
    unreached = []
    for path in sorted(package.rglob("*.py")):
        module = module_name_for(path.relative_to(root).as_posix())
        properties = {
            (cls.name, fn.name)
            for cls in ast.walk(files[path].tree)
            if isinstance(cls, ast.ClassDef)
            for fn in cls.body
            if isinstance(fn, _FUNCTIONS)
            and any(isinstance(d, ast.Name) and d.id == "property" for d in fn.decorator_list)
        }
        for key, name, first, last in _definitions(path):
            if key in ALLOWLIST or "." not in key:
                continue
            cls = f"{module}.{key.split('.')[0]}"
            refs = set(named.get(name, ()))
            for owner in [cls] + ancestors.get(cls, []):
                refs |= resolved.get(f"{owner}.{name}", set())
            if (key.split(".")[0], name) in properties:
                refs |= loaded.get(name, set())
            if all(where == path and first <= line <= last for where, line in refs):
                unreached.append(f"{path.relative_to(root)}::{key}")
    return unreached


def _message(unreached: List[str]) -> str:
    return (
        "defined in src/repro but referenced only by tests (or not at all); "
        "delete it, give it a caller, or allowlist it with a reason: "
        + ", ".join(unreached)
    )


def test_every_top_level_name_has_a_caller_outside_tests():
    unreached = _unreached()
    assert not unreached, _message(unreached)


def test_every_class_member_has_a_caller_outside_tests():
    unreached = _unreached_members(PACKAGE, [ROOT / folder for folder in CALLER_DIRS])
    assert not unreached, _message(unreached)


#: a package whose members each exercise one matching rule
_FIXTURE = {
    "src/repro/shapes.py": """
class Base:
    def check(self):
        return 0

    def check_all(self):
        return self.check()


class Child(Base):
    def check(self):
        return 1

    def total(self):
        return 2

    def step(self):
        return 3

    def run(self):
        return 4

    def heal(self):
        return 5

    @property
    def size(self):
        return 6


class Other:
    def run(self):
        return 7

    def go(self):
        return self.run()
""",
    "tools/use.py": """
from repro.shapes import Base, Child, Other


def main(sim, sel):
    child = Child()
    total = Base.check_all(child)
    sim.call_in(1.0, child.heal)
    width = child.size
    stride = sel.step
    return Other.go(Other()) + total + width + stride
""",
}


@pytest.fixture(scope="module")
def fixture_unreached(tmp_path_factory) -> List[str]:
    root = tmp_path_factory.mktemp("tree")
    for name, text in _FIXTURE.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text.lstrip())
    return _unreached_members(root / "src" / "repro", [root / "src", root / "tools"])


@pytest.mark.parametrize(
    "member, flagged",
    [
        ("Child.total", True),  # only a local variable is called ``total``
        ("Child.run", True),  # ``self.run()`` resolves to ``Other.run``
        ("Child.step", True),  # ``sel.step`` is a load, not a call
        ("Child.check", False),  # ``self.check()`` in ``Base`` dispatches here
        ("Child.heal", False),  # passed as a bound method
        ("Child.size", False),  # a property: any load reads it
    ],
)
def test_member_rule_on_a_fixture_tree(fixture_unreached, member, flagged):
    assert (f"src/repro/shapes.py::{member}" in fixture_unreached) == flagged


def test_member_rule_flags_only_the_fixture_cases(fixture_unreached):
    assert sorted(fixture_unreached) == [
        f"src/repro/shapes.py::Child.{m}" for m in ("run", "step", "total")
    ]


def test_allowlist_names_still_exist():
    defined = {
        key for path in PACKAGE.rglob("*.py") for key, _, _, _ in _definitions(path)
    }
    assert not set(ALLOWLIST) - defined, sorted(set(ALLOWLIST) - defined)
    assert all(reason.strip() for reason in ALLOWLIST.values())


# -- options -------------------------------------------------------------

#: parameters a caller never needs to set (the seed material)
SEED_PARAMETERS = ("rng", "seed")

#: defaulted parameters only tests set, each with why (as
#: ``function(param)``; constructors as ``Class.__init__(param)``)
PARAMETER_ALLOWLIST = {
    "configure(level)": "deployment setting: the operator chooses the log level",
    "FileSharingSimulation.__init__(inauthentic_model)": (
        "§6.4's stated rate model ('reputation'), next to the per-class default"
    ),
}


def _defaulted_parameters(path: Path) -> Iterator[Tuple[str, str, str, Optional[int]]]:
    """``(key, callee, parameter, position)`` of each defaulted parameter.

    Covers public top-level functions and the public methods and
    constructors of public classes.  ``callee`` is the name a call uses
    (the class name for a constructor); ``position`` is the index a
    positional argument would fill, ``None`` for a keyword-only one.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    owners = [(node, None) for node in tree.body if isinstance(node, _FUNCTIONS)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
            owners.extend((node, cls) for node in cls.body if isinstance(node, _FUNCTIONS))
    for fn, cls in owners:
        if fn.name.startswith("_") and not (cls and fn.name == "__init__"):
            continue
        key = fn.name if cls is None else f"{cls.name}.{fn.name}"
        callee = cls.name if cls and fn.name == "__init__" else fn.name
        static = any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list
        )
        bound = 0 if cls is None or static else 1
        args = fn.args.posonlyargs + fn.args.args
        first_default = len(args) - len(fn.args.defaults)
        for i, arg in enumerate(args[first_default:], start=first_default):
            if arg.arg not in SEED_PARAMETERS:
                yield key, callee, arg.arg, i - bound
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None and arg.arg not in SEED_PARAMETERS:
                yield key, callee, arg.arg, None


def _callee(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _written_keys(fn: ast.AST, name: str) -> Set[str]:
    """Keywords ``fn`` writes into its dict ``name``: ``name.update(k=...)``, ``name["k"] = ...``."""
    keys = set()
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "update"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == name
        ):
            keys.update(k.arg for k in node.keywords if k.arg)
        elif (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == name
            and isinstance(node.slice, ast.Constant)
        ):
            keys.add(node.slice.value)
    return keys


def _tables(tree: ast.Module) -> Dict[str, List[str]]:
    """Module-level ``{key: callable}`` dicts: table name -> callable names."""
    tables = {}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Dict):
            target = node.target if isinstance(node, ast.AnnAssign) else node.targets[0]
            values = node.value.values
            if isinstance(target, ast.Name) and values and all(
                isinstance(v, ast.Name) for v in values
            ):
                tables[target.id] = [v.id for v in values]
    return tables


def _own_splats(tree: ast.Module) -> Dict[int, str]:
    """Calls that forward their enclosing function's own ``**`` parameter.

    Maps ``id(call)`` to that function's name: in ``def f(x, **kwargs)``,
    ``g(a=1, **kwargs)`` passes ``g`` only what ``f``'s callers pass ``f``.
    """
    splats = {}
    for fn in ast.walk(tree):
        if isinstance(fn, _FUNCTIONS) and fn.args.kwarg is not None:
            name = fn.args.kwarg.arg
            for call in ast.walk(fn):
                if isinstance(call, ast.Call) and any(
                    k.arg is None and isinstance(k.value, ast.Name) and k.value.id == name
                    for k in call.keywords
                ):
                    splats[id(call)] = fn.name
    return splats


def _setting_calls(path: Path) -> Iterator[Tuple[str, ast.Call, Optional[Set[str]], Optional[str]]]:
    """``(callee, call, keywords, forwarder)`` for every call in ``path``.

    ``keywords`` is ``None`` for a plain call, whose arguments set what
    they name or fill.  ``forwarder`` names the enclosing function when
    the call splats that function's own ``**`` parameter (see
    :func:`_forwarded_keywords`), else it is ``None``.  Two kinds of call
    reach a callee they do not name:

    * ``super().__init__(...)`` in a class calls its bases' constructors
      (``DistributedEigenTrust`` forwards ``a`` to ``EigenTrust``);
    * a call through a local bound from a module-level table of
      callables (``cls = _ENGINES[name]``, then ``cls(*args, **kwargs)``)
      calls each of them, and sets only the keywords the function
      writes into the splatted dict (``make_engine`` fills ``dtype``,
      ``max_steps``, ``partnering`` and ``mass_restore_budget`` from
      the config).
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    splats = _own_splats(tree)
    for call in ast.walk(tree):
        if isinstance(call, ast.Call) and _callee(call):
            yield _callee(call), call, None, splats.get(id(call))
    tables = _tables(tree)
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        bases = [b.id for b in cls.bases if isinstance(b, ast.Name)]
        for call in ast.walk(cls):
            if (
                isinstance(call, ast.Call)
                and _callee(call) == "__init__"
                and isinstance(call.func.value, ast.Call)
                and _callee(call.func.value) == "super"
            ):
                for base in bases:
                    yield base, call, None, None
    for fn in ast.walk(tree):
        if not isinstance(fn, _FUNCTIONS):
            continue
        dispatch = {
            node.targets[0].id: tables[node.value.value.id]
            for node in ast.walk(fn)
            if isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Subscript)
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id in tables
        }
        for call in ast.walk(fn):
            if isinstance(call, ast.Call) and _callee(call) in dispatch:
                keys = {k.arg for k in call.keywords if k.arg}
                for k in call.keywords:
                    if k.arg is None and isinstance(k.value, ast.Name):
                        keys |= _written_keys(fn, k.value.id)
                for target in dispatch[_callee(call)]:
                    yield target, call, keys, None


def _forwarded_keywords(
    calls: Dict[str, List[Tuple[ast.Call, Optional[Set[str]]]]], call: ast.Call, fn: str
) -> Optional[Set[str]]:
    """The keywords ``call`` sets by splatting ``fn``'s own ``**`` parameter.

    Those ``fn``'s callers pass: its own keywords plus every keyword of a
    call that names ``fn`` or hands ``fn`` itself to a runner
    (``timed(_run_marked, system, v0=...)`` in perfbench).  ``None``
    (anything) when such a call splats a ``**`` dict of its own.
    """
    keys = {k.arg for k in call.keywords if k.arg}
    for callee_calls in calls.values():
        for caller, _ in callee_calls:
            if _callee(caller) != fn and not any(
                isinstance(a, ast.Name) and a.id == fn for a in caller.args
            ):
                continue
            if any(k.arg is None for k in caller.keywords):
                return None
            keys |= {k.arg for k in caller.keywords if k.arg}
    return keys


def _sets(call: ast.Call, keywords: Optional[Set[str]], param: str, position) -> bool:
    """Whether ``call`` sets ``param``; a ``*``/``**`` splat may set anything.

    With ``keywords`` known, the call sets those and what its leading
    non-starred positional arguments fill.
    """
    if keywords is not None:
        leading = 0
        for arg in call.args:
            if isinstance(arg, ast.Starred):
                break
            leading += 1
        return param in keywords or (position is not None and position < leading)
    if any(k.arg == param or k.arg is None for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and position < len(call.args)


def _runner_names() -> Set[str]:
    """The experiment runners, whose every keyword the CLI's ``--set`` reaches."""
    tree = ast.parse((PACKAGE / "experiments" / "registry.py").read_text())
    runners = set()
    for node in tree.body:
        target = node.target if isinstance(node, ast.AnnAssign) else None
        if isinstance(target, ast.Name) and target.id == "_RUNNERS":
            for value in node.value.values:
                runners.add(value.elts[0].id)
    return runners


def _unset_parameters() -> List[str]:
    calls: Dict[str, List[Tuple[ast.Call, Optional[Set[str]]]]] = defaultdict(list)
    forwarding = []
    for folder in CALLER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            for callee, call, keywords, forwarder in _setting_calls(path):
                if forwarder is None:
                    calls[callee].append((call, keywords))
                else:
                    forwarding.append((callee, call, forwarder))
    for callee, call, forwarder in forwarding:
        calls[callee].append((call, _forwarded_keywords(calls, call, forwarder)))
    runners = _runner_names()
    unset = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for key, callee, param, position in _defaulted_parameters(path):
            label = f"{key}({param})"
            if label in PARAMETER_ALLOWLIST or key in runners:
                continue
            if not any(_sets(c, kw, param, position) for c, kw in calls[callee]):
                unset.append(f"{path.relative_to(ROOT)}::{label}")
    return unset


def test_every_defaulted_parameter_has_a_caller_outside_tests():
    unset = _unset_parameters()
    assert not unset, (
        "defaulted parameters no call outside tests sets; make each a module "
        "constant (tests monkeypatch it), delete it with the path it selects, "
        "or allowlist it with a reason: " + ", ".join(unset)
    )


def test_parameter_allowlist_entries_still_exist():
    defined = {
        f"{key}({param})"
        for path in PACKAGE.rglob("*.py")
        for key, _, param, _ in _defaulted_parameters(path)
    }
    assert not set(PARAMETER_ALLOWLIST) - defined, sorted(set(PARAMETER_ALLOWLIST) - defined)
    assert all(reason.strip() for reason in PARAMETER_ALLOWLIST.values())


# -- stored attributes ---------------------------------------------------

#: attributes stored for a reader outside the package's callers, each
#: with why (as ``Class.attr``)
ATTRIBUTE_ALLOWLIST = {
    "ConvergenceError.residual": "exception payload: read by whoever catches the error",
    "InvariantViolation.invariant": "exception payload: read by whoever catches the error",
}


def _stored_attributes(path: Path) -> Iterator[Tuple[str, str]]:
    """``(Class.attr, attr)`` for each ``self.<attr>`` a class stores."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        seen = set()
        for fn in cls.body:
            if not isinstance(fn, _FUNCTIONS):
                continue
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr not in seen
                ):
                    seen.add(node.attr)
                    yield f"{cls.name}.{node.attr}", node.attr


def _loaded_names() -> Set[str]:
    """Every attribute name read anywhere outside the tests."""
    loaded = set()
    for folder in CALLER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
                elif (
                    isinstance(node, ast.Call)
                    and _callee(node) in ("getattr", "hasattr")
                    and len(node.args) > 1
                    and isinstance(node.args[1], ast.Constant)
                ):
                    loaded.add(node.args[1].value)
    return loaded


def test_every_stored_attribute_is_read_outside_tests():
    loaded = _loaded_names()
    unread = [
        f"{path.relative_to(ROOT)}::{key}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for key, attr in _stored_attributes(path)
        if attr not in loaded and key not in ATTRIBUTE_ALLOWLIST
    ]
    assert not unread, (
        "attributes stored in src/repro but read only by tests (or not at all); "
        "delete them, read them, or allowlist them with a reason: " + ", ".join(unread)
    )


def test_attribute_allowlist_entries_still_exist():
    stored = {key for path in PACKAGE.rglob("*.py") for key, _ in _stored_attributes(path)}
    assert not set(ATTRIBUTE_ALLOWLIST) - stored, sorted(set(ATTRIBUTE_ALLOWLIST) - stored)
    assert all(reason.strip() for reason in ATTRIBUTE_ALLOWLIST.values())
