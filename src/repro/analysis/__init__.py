"""Static and runtime invariant analysis for the GossipTrust codebase.

Two complementary layers live here:

* :mod:`repro.analysis.linter` + :mod:`repro.analysis.rules` — a custom
  AST lint framework enforcing *project* invariants that generic linters
  cannot know about: all randomness flows through
  :class:`~repro.utils.rng.RngStreams` (GT001), the gossip step-loop
  hot paths stay allocation-free (GT002), the deterministic core never reads
  the wall clock (GT003), and numeric modules never compare floats with
  bare ``==`` (GT004).  Run via ``tools/analyze.py`` or ``make analyze``.
* :mod:`repro.analysis.sanitizer` — an opt-in runtime sanitizer
  (``REPRO_SANITIZE=1`` or ``GossipTrustConfig.sanitize``) that arms
  checked invariant hooks inside every gossip engine: push-sum mass
  conservation, non-negative consensus mass, NaN/inf guards, and
  post-normalization row-stochasticity of the trust matrix.  Violations
  raise :class:`~repro.errors.InvariantViolation` with engine, cycle,
  step, and node context.

The linter's flow-aware rules (GT005-GT008) lean on a small
interprocedural layer — :mod:`repro.analysis.callgraph` builds the
project symbol table and call graph, :mod:`repro.analysis.dataflow`
runs reaching-definitions tag propagation over it.
"""

from repro.analysis.sanitizer import InvariantSanitizer, sanitize_enabled

__all__ = ["InvariantSanitizer", "sanitize_enabled"]
