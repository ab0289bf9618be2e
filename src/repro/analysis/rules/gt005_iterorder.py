"""GT005 — no nondeterministic iteration order on determinism-critical paths.

Python gives ``set``/``frozenset`` iteration an order that depends on
hash seeding and insertion history, and ``os.listdir``/``glob`` return
directory order — none of which is a function of the experiment seed.
Feeding such an order into anything the reproducibility contract covers
silently decouples results from the seed: an RNG consumed in a
different sequence, partners selected from a differently-ordered pool,
messages scheduled in a different order, or a mixing step fed a
permuted target order all produce *plausible but unreproducible* runs.

This is the first flow-aware rule: it tracks unordered-container
provenance through assignments, comprehensions, and project-resolved
helper returns (:mod:`repro.analysis.dataflow`), and consults the call
graph (:mod:`repro.analysis.callgraph`) so it only fires in functions
whose transitive callees actually reach an order-sensitive sink:

* RNG consumption — any reachable function drawing from a generator
  (``integers``/``choice``/``shuffle``/...);
* partner selection — anything in ``repro.gossip.partnering``;
* message scheduling — reachable functions with ``schedule`` in their
  name;
* the mixing step — ``_dense_step``, which scatters every sender's
  half into the row its partner target names, so the order of the
  target array is the order of the sums.

Flagged: ``for``-loops and comprehensions iterating a value tagged
unordered, and NumPy materializations (``np.array``/``np.asarray``/
``np.fromiter``) of one.  Passing: explicitly ordered uses — wrap the
container in ``sorted(...)`` (or ``np.sort``/``np.unique``) before
iterating, and the tag clears.
"""

from __future__ import annotations

import ast
from typing import Any, Iterator

from repro.analysis.linter import FlowRule, SourceFile, Violation
from repro.analysis.rules._flowutils import (
    RNG_DRAW_NAMES,
    UNORDERED,
    UnorderedClassifier,
)

__all__ = ["NondeterministicIterOrderRule"]

_ADVICE = (
    "iteration order of a set/dict-view/listing is not seed-determined; "
    "sort it first (sorted(...) / np.sort / np.unique) or keep an "
    "ordered container"
)

#: function names that consume a partner-target order
_SINK_FUNC_NAMES = frozenset({"_dense_step"})
_NP_MATERIALIZERS = frozenset({"array", "asarray", "fromiter"})


def _is_order_sink(info: Any) -> bool:
    """Whether ``info`` is itself an order-sensitive endpoint."""
    if info.module.name.startswith("repro.gossip.partnering"):
        return True  # partner selection
    name = info.node.name
    if name in _SINK_FUNC_NAMES or "schedule" in name.lower():
        return True  # mixing step / message scheduling
    if info.attr_calls & RNG_DRAW_NAMES:
        return True  # draws from a generator
    return False


class NondeterministicIterOrderRule(FlowRule):
    """Unordered iteration must not reach determinism sinks (GT005)."""

    code = "GT005"
    summary = "no unordered-container iteration on RNG/partner/schedule/mixing paths"
    include = ("repro/",)
    exclude = ("tests/",)

    def check(self, src: SourceFile) -> Iterator[Violation]:
        project = self.project_for(src)
        classifier = UnorderedClassifier()
        classifier.project = project
        for info in project.functions_in(src):
            if not project.reaches(info.qname, _is_order_sink):
                continue
            flow = project.flow(info.qname)
            if flow is None:
                continue
            classifier.caller = info
            fr = flow.propagate(classifier)
            reported = set()
            for stmt, iter_expr, site in flow.iteration_sites():
                if id(site) in reported:
                    continue
                if UNORDERED in fr.tags_at(stmt, iter_expr):
                    reported.add(id(site))
                    kind = (
                        "for-loop" if isinstance(site, (ast.For, ast.AsyncFor))
                        else "comprehension"
                    )
                    yield self.violation(
                        src,
                        site,
                        f"{kind} iterates an unordered container on a path "
                        f"reaching an order-sensitive sink — {_ADVICE}",
                    )
            for stmt, node in flow._own_nodes():
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _NP_MATERIALIZERS
                    and node.args
                    and UNORDERED in fr.tags_at(stmt, node.args[0])
                ):
                    yield self.violation(
                        src,
                        node,
                        f"np.{node.func.attr} materializes an unordered "
                        f"container on an order-sensitive path — {_ADVICE}",
                    )
