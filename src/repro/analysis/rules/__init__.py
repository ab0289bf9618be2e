"""Project lint rules — the GT rule catalog.

=========  ==============================================================
``GT001``  No ad-hoc / global RNG: randomness flows through
           ``utils.rng`` (:class:`~repro.utils.rng.RngStreams`,
           :func:`~repro.utils.rng.as_generator`).
``GT002``  No array allocations inside ``# hot:``-marked regions of the
           gossip step loops (their allocation-free contract).
``GT003``  No wall-clock reads in the deterministic core
           (``core/``, ``gossip/``, ``sim/``, ``trust/``, ``service/``,
           ``experiments/``).
``GT004``  No bare float ``==`` / ``!=`` comparisons in numeric modules.
``GT005``  No unordered-container iteration (set/dict-view/listing) on
           paths reaching RNG draws, partner selection, message
           scheduling, or the mixing step (flow-aware, call-graph scoped).
``GT006``  Retired (shared-workspace write ownership; its only
           subject, the shard-worker path, is gone).  The code stays
           unassigned so suppression sentinels keep their meaning.
``GT007``  Process fan-outs collect futures in submission order and
           thread a spawned per-task seed (no ``as_completed``).
``GT008``  No float reductions in unordered-container order in the
           numeric core (``sorted(...)`` or ``math.fsum``).
``GT009``  Suppression hygiene: GT sentinels name codes and carry a
           `` -- justification`` (unsuppressible self-check).
=========  ==============================================================

GT001–GT004 are local AST matches; GT005, GT007 and GT008 are
:class:`~repro.analysis.linter.FlowRule` subclasses running on the
shared :class:`~repro.analysis.callgraph.ProjectIndex` (symbol table +
call graph + reaching-definitions dataflow) built once per lint run.

Each rule lives in its own module; :data:`ALL_RULES` is the canonical
registry consumed by ``tools/analyze.py``.  To add a rule, drop a
:class:`~repro.analysis.linter.Rule` subclass module here, append an
instance below, and add fixture self-tests (see DESIGN.md, "Static
analysis & sanitizers").
"""

from typing import Tuple

from repro.analysis.linter import Rule
from repro.analysis.rules.gt001_rng import NoAdHocRngRule
from repro.analysis.rules.gt002_alloc import NoHotAllocRule
from repro.analysis.rules.gt003_wallclock import NoWallClockRule
from repro.analysis.rules.gt004_floateq import NoBareFloatEqRule
from repro.analysis.rules.gt005_iterorder import NondeterministicIterOrderRule
from repro.analysis.rules.gt007_procdet import ProcessPoolDisciplineRule
from repro.analysis.rules.gt008_reduction import FloatReductionOrderRule
from repro.analysis.rules.gt009_suppress import SuppressionHygieneRule

__all__ = [
    "ALL_RULES",
    "NoAdHocRngRule",
    "NoHotAllocRule",
    "NoWallClockRule",
    "NoBareFloatEqRule",
    "NondeterministicIterOrderRule",
    "ProcessPoolDisciplineRule",
    "FloatReductionOrderRule",
    "SuppressionHygieneRule",
]

#: the full GT rule set, in catalog order
ALL_RULES: Tuple[Rule, ...] = (
    NoAdHocRngRule(),
    NoHotAllocRule(),
    NoWallClockRule(),
    NoBareFloatEqRule(),
    NondeterministicIterOrderRule(),
    ProcessPoolDisciplineRule(),
    FloatReductionOrderRule(),
    SuppressionHygieneRule(),
)
