"""Shared tag semantics for the flow-aware determinism rules.

GT005 (iteration order) and GT008 (float-reduction order) both need the
same core judgment — *is this value an unordered container, or derived
from one, at this program point?* — and GT007 needs the same
interprocedural helpers (resolve a call, summarize a callee's return
tags).  This module is that shared substrate so each rule file carries
only its own policy.

The :data:`UNORDERED` tag marks values whose iteration order is not a
pure function of the experiment seed: ``set``/``frozenset`` values and
set-literal/set-comprehension results, filesystem enumeration
(``os.listdir``, ``glob.glob``, ``Path.iterdir``), set-algebra results,
and anything *materialized from* one of those (``list(s)``,
``enumerate(s)``, a comprehension over ``s``) — materializing does not
launder nondeterminism, it freezes it.  Plain dict/list/tuple literals
are ordered (CPython dicts preserve insertion order), but a dict *built
from* an unordered source inherits the tag.  Sanctioned launderers
clear it: ``sorted``, ``np.sort``, ``np.unique``, ``min``/``max``,
``math.fsum`` (order-independent by construction), and length/scalar
reductions.
"""

from __future__ import annotations

import ast
from typing import Any, FrozenSet, List, Optional

from repro.analysis.dataflow import NO_TAGS, Env, FlowResult, TagClassifier, Tags

__all__ = [
    "UNORDERED",
    "RNG_DRAW_NAMES",
    "UnorderedClassifier",
    "return_tags",
]

#: tag carried by values with seed-independent (nondeterministic) order
UNORDERED = "unordered"

#: Generator draw methods whose *consumption* makes a function an
#: order-sensitive sink: feed these from an unordered iteration and the
#: stream decouples from the experiment seed.
RNG_DRAW_NAMES = frozenset(
    {
        "integers",
        "choice",
        "shuffle",
        "permutation",
        "permuted",
        "random",
        "uniform",
        "normal",
        "standard_normal",
        "exponential",
        "poisson",
        "binomial",
        "geometric",
    }
)

#: callables producing unordered results (bare-name form)
_UNORDERED_BUILDERS = frozenset({"set", "frozenset"})
#: attribute calls producing unordered results regardless of receiver
_UNORDERED_ATTRS = frozenset({"listdir", "scandir", "iglob", "iterdir"})
#: attribute calls that are unordered when the receiver/module suggests
#: filesystem or set algebra
_GLOB_ATTRS = frozenset({"glob", "rglob"})
_SET_ALGEBRA = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)
#: bare-name launderers: results are ordered or order-independent
_SANITIZERS = frozenset({"sorted", "min", "max", "len", "sum", "fsum", "any", "all"})
#: attribute launderers (``np.sort``, ``np.unique``, ``math.fsum``)
_SANITIZER_ATTRS = frozenset({"sort", "unique", "fsum", "argsort", "lexsort"})
#: transparent wrappers: output order is input order
_PASSTHROUGH = frozenset({"list", "tuple", "iter", "enumerate", "reversed", "filter", "map"})
_PASSTHROUGH_ATTRS = frozenset({"array", "asarray", "fromiter", "keys", "values", "items", "copy"})

#: interprocedural summary depth — enough for helper-wrapping patterns
#: without turning one lint query into a whole-program fixpoint
_MAX_DEPTH = 3


class UnorderedClassifier(TagClassifier):
    """Flow semantics of the :data:`UNORDERED` tag.

    ``project`` is the shared :class:`~repro.analysis.callgraph.ProjectIndex`
    and ``caller`` the :class:`~repro.analysis.callgraph.FunctionInfo`
    currently being propagated — both are set by the rule before each
    :meth:`~repro.analysis.dataflow.FunctionFlow.propagate` call and
    used to fold project-resolved callees' return tags into call
    results.
    """

    def __init__(self) -> None:
        self.project: Any = None
        self.caller: Any = None
        self._active: set = set()
        self._depth = 0

    def expr_tags(self, expr: ast.expr, env: Env, result: FlowResult) -> Optional[Tags]:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return frozenset({UNORDERED})
        if isinstance(expr, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            # A comprehension freezes its generators' order: looping a
            # set through a listcomp yields an unordered list.
            for gen in expr.generators:
                if UNORDERED in result.tags_of(gen.iter, env):
                    return frozenset({UNORDERED})
            return NO_TAGS
        return None

    def call_tags(
        self, call: ast.Call, arg_tags: List[Tags], env: Env, result: FlowResult
    ) -> Tags:
        func = call.func
        merged_args = NO_TAGS
        for tags in arg_tags:
            merged_args |= tags
        if isinstance(func, ast.Name):
            name = func.id
            if name in _UNORDERED_BUILDERS:
                return frozenset({UNORDERED})
            if name in _SANITIZERS:
                return NO_TAGS
            if name in _PASSTHROUGH or name == "dict":
                return merged_args
        elif isinstance(func, ast.Attribute):
            attr = func.attr
            if attr in _SANITIZER_ATTRS:
                return NO_TAGS
            if attr in _UNORDERED_ATTRS or attr in _GLOB_ATTRS:
                return frozenset({UNORDERED})
            if attr in _SET_ALGEBRA or attr in _PASSTHROUGH_ATTRS or attr == "fromkeys":
                # set algebra / dict views / materializers inherit the
                # receiver's (and arguments') orderedness
                return result.tags_of(func.value, env) | merged_args
        return self._callee_return_tags(call) | NO_TAGS

    def _callee_return_tags(self, call: ast.Call) -> Tags:
        """Fold in the return tags of a project-resolved callee."""
        if self.project is None or self.caller is None or self._depth >= _MAX_DEPTH:
            return NO_TAGS
        qname = self.project.resolve_call(call.func, self.caller)
        if qname is None or qname in self._active:
            return NO_TAGS
        return return_tags(self.project, qname, self)

    def element_tags(self, iterable_tags: Tags) -> Tags:
        return NO_TAGS  # elements of an unordered container are just values


def return_tags(project: Any, qname: str, classifier: UnorderedClassifier) -> Tags:
    """Union of tags over every ``return`` expression of ``qname``.

    Depth-limited and cycle-safe: recursion through
    :meth:`UnorderedClassifier.call_tags` stops at ``_MAX_DEPTH`` or on
    re-entry into an in-flight function.
    """
    info = project.functions.get(qname)
    flow = project.flow(qname)
    if info is None or flow is None:
        return NO_TAGS
    prev_caller = classifier.caller
    classifier._active.add(qname)
    classifier._depth += 1
    classifier.caller = info
    try:
        fr = flow.propagate(classifier)
        out: Tags = NO_TAGS
        for stmt, node in flow._own_nodes():
            if isinstance(node, ast.Return) and node.value is not None:
                out |= fr.tags_at(stmt, node.value)
        return out
    finally:
        classifier.caller = prev_caller
        classifier._depth -= 1
        classifier._active.discard(qname)


def mentions_name(expr: ast.expr, fragment: str) -> bool:
    """Whether any identifier in ``expr`` contains ``fragment``."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and fragment in node.id.lower():
            return True
        if isinstance(node, ast.Attribute) and fragment in node.attr.lower():
            return True
        if isinstance(node, ast.keyword) and node.arg and fragment in node.arg.lower():
            return True
    return False
