"""Fixture self-tests for the interprocedural layer and rules GT005-GT009.

Every flow-aware rule is exercised both ways — violating snippets must
fire, compliant ones must stay silent — through the same
:func:`~repro.analysis.linter.lint_sources` entry point the CLI uses,
so project-index binding, path scoping, and suppression handling are
covered by the same fixtures.  The call-graph and dataflow engines get
their own unit tests at the top.
"""

import subprocess
import sys
from pathlib import Path

from repro.analysis.callgraph import ProjectIndex, module_name_for
from repro.analysis.linter import SourceFile, lint_sources
from repro.analysis.rules._flowutils import UNORDERED, UnorderedClassifier
from repro.analysis.rules.gt005_iterorder import NondeterministicIterOrderRule
from repro.analysis.rules.gt007_procdet import ProcessPoolDisciplineRule
from repro.analysis.rules.gt008_reduction import FloatReductionOrderRule
from repro.analysis.rules.gt009_suppress import SuppressionHygieneRule

REPO = Path(__file__).resolve().parent.parent
TOOL = REPO / "tools" / "analyze.py"


def lint_one(rule, text, path):
    return lint_sources([SourceFile(path, text)], [rule])


def lint_many(rule, sources):
    return lint_sources([SourceFile(p, t) for p, t in sources], [rule])


# -- call graph --------------------------------------------------------------


class TestProjectIndex:
    def test_module_name_anchoring(self):
        assert module_name_for("src/repro/gossip/engine.py") == (
            "repro.gossip.engine"
        )
        assert module_name_for("tools/analyze.py") == "tools.analyze"
        assert module_name_for("/abs/src/repro/core/config.py") == (
            "repro.core.config"
        )

    def test_resolves_module_function_call(self):
        src = SourceFile(
            "src/repro/core/a.py",
            "def helper():\n    return 1\n\ndef caller():\n    return helper()\n",
        )
        project = ProjectIndex([src])
        info = project.functions["repro.core.a.caller"]
        assert "repro.core.a.helper" in info.calls

    def test_resolves_import_alias(self):
        lib = SourceFile("src/repro/core/lib.py", "def f():\n    return 0\n")
        use = SourceFile(
            "src/repro/core/use.py",
            "from repro.core.lib import f as g\n\ndef caller():\n    return g()\n",
        )
        project = ProjectIndex([lib, use])
        info = project.functions["repro.core.use.caller"]
        assert "repro.core.lib.f" in info.calls

    def test_reaches_is_transitive(self):
        src = SourceFile(
            "src/repro/core/chain.py",
            "def sink():\n"
            "    rng.integers(3)\n"
            "\n"
            "def mid():\n"
            "    sink()\n"
            "\n"
            "def top():\n"
            "    mid()\n",
        )
        project = ProjectIndex([src])
        pred = lambda info: "integers" in info.attr_calls  # noqa: E731
        assert project.reaches("repro.core.chain.top", pred)
        assert not project.reaches("repro.core.chain.sink2", pred)

    def test_nested_function_qname(self):
        src = SourceFile(
            "src/repro/core/nest.py",
            "def outer():\n    def inner():\n        return 1\n    return inner()\n",
        )
        project = ProjectIndex([src])
        assert "repro.core.nest.outer.<locals>.inner" in project.functions


class TestDataflow:
    def _last_value_tags(self, body):
        """Tags of the final ``y = <expr>`` statement's right-hand side."""
        text = f"def f(cond):\n{body}\n"
        src = SourceFile("src/repro/core/df.py", text)
        project = ProjectIndex([src])
        flow = project.flow("repro.core.df.f")
        fr = flow.propagate(UnorderedClassifier())
        last = flow.func.body[-1]
        return fr.tags_at(last, last.value)

    def test_set_literal_is_unordered(self):
        tags = self._last_value_tags("    s = {1, 2}\n    y = s")
        assert UNORDERED in tags

    def test_sorted_sanitizes(self):
        tags = self._last_value_tags("    s = {1, 2}\n    y = sorted(s)")
        assert UNORDERED not in tags

    def test_list_passthrough_keeps_taint(self):
        tags = self._last_value_tags("    s = {1, 2}\n    y = list(s)")
        assert UNORDERED in tags

    def test_branch_merge_is_union(self):
        body = (
            "    if cond:\n"
            "        x = {1}\n"
            "    else:\n"
            "        x = [1]\n"
            "    y = x"
        )
        assert UNORDERED in self._last_value_tags(body)


# -- GT005: nondeterministic iteration order ---------------------------------


GT5 = NondeterministicIterOrderRule


class TestGT005:
    PATH = "src/repro/gossip/part.py"

    def test_set_iteration_reaching_rng_fires(self):
        bad = (
            "def pick(rng, peers):\n"
            "    live = set(peers)\n"
            "    for p in live:\n"
            "        rng.choice([p])\n"
        )
        assert lint_one(GT5(), bad, self.PATH)

    def test_sorted_pass_is_clean(self):
        good = (
            "def pick(rng, peers):\n"
            "    live = set(peers)\n"
            "    for p in sorted(live):\n"
            "        rng.choice([p])\n"
        )
        assert not lint_one(GT5(), good, self.PATH)

    def test_no_order_sink_stays_silent(self):
        benign = (
            "def count(peers):\n"
            "    live = set(peers)\n"
            "    total = 0\n"
            "    for p in live:\n"
            "        total = max(total, p)\n"
            "    return total\n"
        )
        assert not lint_one(GT5(), benign, self.PATH)

    def test_comprehension_over_set_fires(self):
        bad = (
            "def pick(rng, peers):\n"
            "    live = frozenset(peers)\n"
            "    ordered = [p for p in live]\n"
            "    return rng.choice(ordered)\n"
        )
        assert lint_one(GT5(), bad, self.PATH)

    def test_np_materialization_of_set_fires(self):
        bad = (
            "import numpy as np\n"
            "def pick(rng, peers):\n"
            "    live = set(peers)\n"
            "    arr = np.fromiter(live, dtype=int)\n"
            "    return rng.integers(arr.size)\n"
        )
        assert lint_one(GT5(), bad, self.PATH)

    def test_interprocedural_sink_via_callee(self):
        bad = (
            "def draw(rng, xs):\n"
            "    return rng.shuffle(xs)\n"
            "\n"
            "def sched(rng, peers):\n"
            "    live = set(peers)\n"
            "    for p in live:\n"
            "        draw(rng, [p])\n"
        )
        assert lint_one(GT5(), bad, self.PATH)

    def test_listdir_taint_fires(self):
        bad = (
            "import os\n"
            "def load(rng, d):\n"
            "    for name in os.listdir(d):\n"
            "        rng.random()\n"
        )
        assert lint_one(GT5(), bad, self.PATH)

    def test_tests_are_out_of_scope(self):
        bad = (
            "def pick(rng, peers):\n"
            "    for p in set(peers):\n"
            "        rng.choice([p])\n"
        )
        assert not lint_one(GT5(), bad, "tests/test_x.py")


# -- GT007: process fan-out discipline ---------------------------------------


GT7 = ProcessPoolDisciplineRule
_GT7_PATH = "src/repro/experiments/fan.py"
_POOL = "from concurrent.futures import ProcessPoolExecutor, as_completed\n"


class TestGT007:
    def test_as_completed_fires(self):
        bad = _POOL + (
            "def run(tasks):\n"
            "    with ProcessPoolExecutor() as ex:\n"
            "        futs = [ex.submit(t) for t in tasks]\n"
            "        return [f.result() for f in as_completed(futs)]\n"
        )
        vs = lint_one(GT7(), bad, _GT7_PATH)
        assert vs and "as_completed" in vs[0].message

    def test_futures_set_add_fires(self):
        bad = _POOL + (
            "def run(tasks):\n"
            "    futs = set()\n"
            "    with ProcessPoolExecutor() as ex:\n"
            "        for t in tasks:\n"
            "            futs.add(ex.submit(t))\n"
        )
        assert lint_one(GT7(), bad, _GT7_PATH)

    def test_futures_set_comprehension_fires(self):
        bad = _POOL + (
            "def run(tasks):\n"
            "    with ProcessPoolExecutor() as ex:\n"
            "        futs = {ex.submit(t) for t in tasks}\n"
        )
        assert lint_one(GT7(), bad, _GT7_PATH)

    def test_ordered_futures_list_is_clean(self):
        good = _POOL + (
            "def run(tasks):\n"
            "    with ProcessPoolExecutor() as ex:\n"
            "        futs = [ex.submit(t) for t in tasks]\n"
            "        return [f.result() for f in futs]\n"
        )
        assert not lint_one(GT7(), good, _GT7_PATH)

    def test_shared_rng_submission_fires(self):
        bad = _POOL + (
            "def task(rng, i):\n"
            "    return rng.integers(i)\n"
            "\n"
            "def run(rng):\n"
            "    with ProcessPoolExecutor() as ex:\n"
            "        futs = [ex.submit(task, rng, i) for i in range(4)]\n"
            "        return [f.result() for f in futs]\n"
        )
        vs = lint_one(GT7(), bad, _GT7_PATH)
        assert vs and "seed" in vs[0].message

    def test_spawned_seed_submission_is_clean(self):
        good = _POOL + (
            "def task(seed, i):\n"
            "    import numpy as np\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return rng.integers(i)\n"
            "\n"
            "def run(ss):\n"
            "    with ProcessPoolExecutor() as ex:\n"
            "        futs = [ex.submit(task, child_seed, i)\n"
            "                for i, child_seed in enumerate(ss.spawn(4))]\n"
            "        return [f.result() for f in futs]\n"
        )
        assert not lint_one(GT7(), good, _GT7_PATH)

    def test_rng_free_task_needs_no_seed(self):
        good = _POOL + (
            "def task(i):\n"
            "    return i * i\n"
            "\n"
            "def run():\n"
            "    with ProcessPoolExecutor() as ex:\n"
            "        futs = [ex.submit(task, i) for i in range(4)]\n"
            "        return [f.result() for f in futs]\n"
        )
        assert not lint_one(GT7(), good, _GT7_PATH)

    def test_no_executor_import_gates_rule_off(self):
        benign = (
            "def run(add, items):\n"
            "    seen = set()\n"
            "    seen.add(add(items))\n"
        )
        assert not lint_one(GT7(), benign, _GT7_PATH)


# -- GT008: float reduction order --------------------------------------------


GT8 = FloatReductionOrderRule
_GT8_PATH = "src/repro/trust/agg.py"


class TestGT008:
    def test_sum_over_set_fires(self):
        bad = "def total(xs):\n    return sum(set(xs))\n"
        assert lint_one(GT8(), bad, _GT8_PATH)

    def test_fsum_over_set_is_clean(self):
        good = (
            "import math\n"
            "def total(xs):\n    return math.fsum(set(xs))\n"
        )
        assert not lint_one(GT8(), good, _GT8_PATH)

    def test_sum_over_sorted_is_clean(self):
        good = "def total(xs):\n    return sum(sorted(set(xs)))\n"
        assert not lint_one(GT8(), good, _GT8_PATH)

    def test_accumulation_loop_over_set_fires(self):
        bad = (
            "def total(xs):\n"
            "    acc = 0.0\n"
            "    for x in set(xs):\n"
            "        acc += x\n"
            "    return acc\n"
        )
        assert lint_one(GT8(), bad, _GT8_PATH)

    def test_accumulation_loop_over_list_is_clean(self):
        good = (
            "def total(xs):\n"
            "    acc = 0.0\n"
            "    for x in list(xs):\n"
            "        acc += x\n"
            "    return acc\n"
        )
        assert not lint_one(GT8(), good, _GT8_PATH)

    def test_out_of_scope_module_is_silent(self):
        bad = "def total(xs):\n    return sum(set(xs))\n"
        assert not lint_one(GT8(), bad, "src/repro/metrics/report.py")


# -- GT009: suppression hygiene ----------------------------------------------


GT9 = SuppressionHygieneRule
_GT9_PATH = "src/repro/core/mod.py"


class TestGT009:
    def test_blanket_noqa_fires(self):
        bad = "x = 1  # noqa\n"
        vs = lint_one(GT9(), bad, _GT9_PATH)
        assert vs and "blanket" in vs[0].message

    def test_bare_gt_sentinel_fires(self):
        bad = "x = 1.0 == y  # noqa: GT004\n"
        vs = lint_one(GT9(), bad, _GT9_PATH)
        assert vs and "bare suppression" in vs[0].message

    def test_justified_sentinel_is_clean(self):
        good = "x = w == 0.0  # noqa: GT004 -- exact sentinel, never rounded\n"
        assert not lint_one(GT9(), good, _GT9_PATH)

    def test_unknown_gt_code_fires(self):
        bad = "x = 1  # noqa: GT999 -- no such rule\n"
        vs = lint_one(GT9(), bad, _GT9_PATH)
        assert vs and "GT999" in vs[0].message

    def test_foreign_tool_codes_ignored(self):
        good = "import sys  # noqa: E402\n"
        assert not lint_one(GT9(), good, _GT9_PATH)

    def test_gt009_is_not_suppressible(self):
        bad = "x = 1  # noqa\n"  # the blanket sentinel suppresses... itself?
        assert lint_one(GT9(), bad, _GT9_PATH)

    def test_tests_are_out_of_scope(self):
        assert not lint_one(GT9(), "x = 1  # noqa\n", "tests/test_y.py")


# -- shared project index caching --------------------------------------------


class TestSharedProjectIndex:
    def test_flow_rules_share_one_index(self):
        """lint_sources binds the same ProjectIndex to every flow rule,
        so ASTs and call graphs are built once per invocation."""
        sources = [
            SourceFile("src/repro/core/a.py", "def f():\n    return 1\n"),
            SourceFile("src/repro/core/b.py", "def g():\n    return 2\n"),
        ]
        r5, r7 = GT5(), GT7()
        lint_sources(sources, [r5, r7])
        assert r5.project is r7.project
        assert r5.project is not None


# -- CLI: --list-suppressions -------------------------------------------------


class TestListSuppressionsCLI:
    def test_reports_sentinels_with_justification(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text(
            "x = w == 0.0  # noqa: GT004 -- exact sentinel\n"
            "y = 1  # noqa: GT001\n"
        )
        proc = subprocess.run(
            [sys.executable, str(TOOL), "--list-suppressions", str(f)],
            capture_output=True, text=True, cwd=REPO,
        )
        assert proc.returncode == 0
        assert "GT004 -- exact sentinel" in proc.stdout
        assert "(no justification)" in proc.stdout
        assert "2 suppression(s)" in proc.stderr

    def test_clean_tree_has_no_bare_gt_sentinels(self):
        """Every GT sentinel in the shipped tree carries a justification
        (the inventory GT009 enforces)."""
        proc = subprocess.run(
            [sys.executable, str(TOOL), "--list-suppressions", "src", "tools"],
            capture_output=True, text=True, cwd=REPO,
        )
        assert proc.returncode == 0
        for line in proc.stdout.splitlines():
            if "GT" in line.split(" -- ")[0]:
                assert "(no justification)" not in line, line
