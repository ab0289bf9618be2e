"""Fixture self-tests for the GT lint framework and every rule.

Each rule is exercised both ways: a violating snippet must fire, a
compliant one must stay silent.  Fixtures are linted as in-memory
:class:`~repro.analysis.linter.SourceFile` objects with fake paths, so
the path-scoping logic is covered by the same tests.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.linter import (
    PARSE_ERROR_CODE,
    Rule,
    SourceFile,
    Violation,
    lint_paths,
    lint_sources,
)
from repro.analysis.rules import ALL_RULES
from repro.analysis.rules.gt001_rng import NoAdHocRngRule
from repro.analysis.rules.gt002_alloc import NoHotAllocRule, hot_regions
from repro.analysis.rules.gt003_wallclock import NoWallClockRule
from repro.analysis.rules.gt004_floateq import NoBareFloatEqRule

REPO = Path(__file__).resolve().parent.parent
TOOL = REPO / "tools" / "analyze.py"


def lint_snippet(rule: Rule, text: str, path: str = "src/repro/gossip/mod.py"):
    return lint_sources([SourceFile(path, text)], [rule])


# -- framework ---------------------------------------------------------------


class TestFramework:
    def test_violation_text_format(self):
        v = Violation(rule="GT001", path="a.py", line=3, col=7, message="msg")
        assert v.format("text") == "a.py:3:7: GT001 msg"

    def test_violation_github_format(self):
        v = Violation(rule="GT003", path="src/x.py", line=12, col=1, message="m")
        assert v.format("github") == (
            "::error file=src/x.py,line=12,col=1,title=GT003::m"
        )

    def test_noqa_bare_suppresses_all(self):
        src = SourceFile("src/repro/gossip/m.py", "import random  # noqa\n")
        assert lint_sources([src], [NoAdHocRngRule()]) == []

    def test_noqa_with_code_suppresses_that_rule(self):
        src = SourceFile(
            "src/repro/gossip/m.py", "import random  # noqa: GT001\n"
        )
        assert lint_sources([src], [NoAdHocRngRule()]) == []

    def test_noqa_with_other_code_does_not_suppress(self):
        src = SourceFile(
            "src/repro/gossip/m.py", "import random  # noqa: GT004\n"
        )
        assert len(lint_sources([src], [NoAdHocRngRule()])) == 1

    def test_include_scoping(self):
        rule = NoWallClockRule()
        bad = "import time\nt = time.time()\n"
        assert lint_snippet(rule, bad, path="src/repro/gossip/engine2.py")
        # The service/experiment layers are in scope since the GT003
        # extension; the metrics layer (home of Stopwatch) is not.
        assert lint_snippet(rule, bad, path="src/repro/experiments/x.py")
        assert not lint_snippet(rule, bad, path="src/repro/metrics/reporting2.py")

    def test_exclude_scoping(self):
        rule = NoWallClockRule()
        bad = "import time\nt = time.perf_counter()\n"
        assert not lint_snippet(rule, bad, path="src/repro/metrics/telemetry.py")
        assert not lint_snippet(rule, bad, path="src/repro/utils/proc.py")

    def test_lint_paths_reports_parse_errors(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def broken(:\n")
        violations = lint_paths([str(tmp_path)], list(ALL_RULES))
        assert [v.rule for v in violations] == [PARSE_ERROR_CODE]

    def test_lint_paths_skips_pycache(self, tmp_path):
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "junk.py").write_text("import random\n")
        assert lint_paths([str(tmp_path)], list(ALL_RULES)) == []

    def test_all_rules_catalog(self):
        codes = [r.code for r in ALL_RULES]
        # GT006 is retired, not renumbered: suppression sentinels cite
        # GT007-GT009 by code.
        assert codes == [
            "GT001", "GT002", "GT003", "GT004", "GT005",
            "GT007", "GT008", "GT009",
        ]
        assert len(set(codes)) == len(codes)
        assert all(r.summary for r in ALL_RULES)


# -- GT001: no ad-hoc RNG ----------------------------------------------------


class TestGT001:
    rule = NoAdHocRngRule()

    def test_fires_on_default_rng(self):
        vs = lint_snippet(self.rule, "import numpy as np\nr = np.random.default_rng(0)\n")
        assert [v.rule for v in vs] == ["GT001"]
        assert "default_rng" in vs[0].message

    def test_fires_on_stdlib_random_import(self):
        vs = lint_snippet(self.rule, "import random\n")
        assert [v.rule for v in vs] == ["GT001"]

    def test_fires_on_from_numpy_random_import(self):
        vs = lint_snippet(self.rule, "from numpy.random import default_rng\n")
        assert [v.rule for v in vs] == ["GT001"]

    def test_fires_on_legacy_global_state(self):
        vs = lint_snippet(self.rule, "import numpy as np\nv = np.random.rand(3)\n")
        assert [v.rule for v in vs] == ["GT001"]

    def test_silent_on_utils_rng(self):
        text = "from repro.utils.rng import as_generator\nrng = as_generator(7)\n"
        assert lint_snippet(self.rule, text) == []

    def test_silent_on_generator_annotation(self):
        # Type annotations mention np.random.Generator without drawing.
        text = (
            "import numpy as np\n"
            "def f(rng: np.random.Generator) -> None:\n"
            "    rng.random(3)\n"
        )
        assert lint_snippet(self.rule, text) == []

    def test_exempt_inside_utils_rng_itself(self):
        text = "import numpy as np\ng = np.random.default_rng(0)\n"
        assert not lint_snippet(self.rule, text, path="src/repro/utils/rng.py")

    def test_exempt_in_tests(self):
        text = "import numpy as np\ng = np.random.default_rng(0)\n"
        assert not lint_snippet(self.rule, text, path="tests/test_x.py")


# -- GT002: no allocations in hot regions ------------------------------------


HOT_LOOP_BAD = """\
import numpy as np

def kernel(X, n):
    # hot: step loop
    for _ in range(n):
        buf = np.zeros(n)
        Y = X.copy()
    return X
"""

HOT_LOOP_GOOD = """\
import numpy as np

def kernel(X, scratch, n):
    # hot: step loop
    for _ in range(n):
        np.multiply(X, 0.5, out=scratch)
        X, scratch = scratch, X
    return X
"""


class TestGT002:
    rule = NoHotAllocRule()

    def test_fires_on_alloc_and_copy_in_hot_region(self):
        vs = lint_snippet(self.rule, HOT_LOOP_BAD)
        messages = sorted(v.message for v in vs)
        assert len(vs) == 2
        assert any("np.zeros" in m for m in messages)
        assert any(".copy()" in m for m in messages)

    def test_silent_on_clean_hot_region(self):
        assert lint_snippet(self.rule, HOT_LOOP_GOOD) == []

    def test_silent_without_marker(self):
        text = "import numpy as np\n\ndef f(n):\n    return np.zeros(n)\n"
        assert lint_snippet(self.rule, text) == []

    def test_allocations_outside_marked_region_pass(self):
        text = (
            "import numpy as np\n"
            "def setup(n):\n"
            "    buf = np.empty(n)\n"  # before the marked loop: fine
            "    # hot: loop\n"
            "    for _ in range(n):\n"
            "        buf[:] = 0.0\n"
            "    return buf\n"
        )
        assert lint_snippet(self.rule, text) == []

    def test_trailing_marker_form(self):
        text = (
            "import numpy as np\n"
            "def f(X, n):\n"
            "    while n:  # hot: step loop\n"
            "        Y = X.copy()\n"
            "        n -= 1\n"
        )
        vs = lint_snippet(self.rule, text)
        assert [v.rule for v in vs] == ["GT002"]

    def test_marker_above_binds_to_loop_not_function(self):
        # The enclosing function allocates before the marker; only the
        # marked loop is the hot region.
        src = SourceFile("src/repro/gossip/m.py", HOT_LOOP_GOOD)
        regions = hot_regions(src)
        assert len(regions) == 1
        assert type(regions[0]).__name__ == "For"

    def test_copy_with_arguments_is_not_flagged(self):
        # Only zero-arg .copy() (array duplication) is banned.
        text = (
            "def f(items, n):\n"
            "    # hot: loop\n"
            "    for _ in range(n):\n"
            "        items.copy(deep=False)\n"
        )
        assert lint_snippet(self.rule, text) == []

    def test_repo_hot_regions_are_clean(self):
        # Minimum marker counts pin the kernels' coverage: engine.py
        # carries the step loop's regions (mixing fill, step loop,
        # shard step, SpGEMM, dense scatter step, tile gather, estimate
        # tile, blocked check); vector.py its two merge/fill loops.
        for rel, floor in (
            ("src/repro/gossip/engine.py", 8),
            ("src/repro/gossip/vector.py", 2),
        ):
            src = SourceFile.read(str(REPO / rel))
            regions = hot_regions(src)
            assert len(regions) >= floor, (
                f"{rel} lost # hot: markers ({len(regions)} < {floor})"
            )
            assert lint_sources([src], [self.rule]) == []


# -- GT003: no wall clock in the deterministic core --------------------------


class TestGT003:
    rule = NoWallClockRule()

    @pytest.mark.parametrize(
        "expr",
        ["time.time()", "time.perf_counter()", "time.monotonic()",
         "time.process_time()"],
    )
    def test_fires_on_time_calls(self, expr):
        vs = lint_snippet(self.rule, f"import time\nt = {expr}\n")
        assert [v.rule for v in vs] == ["GT003"]

    def test_fires_on_bare_reference(self):
        # Passing time.time as a callback is just as non-deterministic.
        vs = lint_snippet(self.rule, "import time\nclock = time.time\n")
        assert [v.rule for v in vs] == ["GT003"]

    def test_fires_on_datetime_now(self):
        vs = lint_snippet(
            self.rule, "import datetime\nt = datetime.datetime.now()\n"
        )
        assert vs and all(v.rule == "GT003" for v in vs)

    def test_fires_on_from_import(self):
        vs = lint_snippet(
            self.rule, "from time import perf_counter\nt = perf_counter()\n"
        )
        assert len(vs) == 2  # the import and the call

    def test_silent_on_time_sleep(self):
        assert lint_snippet(self.rule, "import time\ntime.sleep(0)\n") == []

    def test_silent_on_simulated_time(self):
        text = "def f(sim):\n    return sim.now\n"
        assert lint_snippet(self.rule, text, path="src/repro/sim/engine.py") == []


# -- GT004: no bare float equality -------------------------------------------


class TestGT004:
    rule = NoBareFloatEqRule()

    @pytest.mark.parametrize("expr", ["x == 0.5", "x != 1e-4", "0.0 == x",
                                      "x == -0.25"])
    def test_fires_on_float_literal_comparison(self, expr):
        vs = lint_snippet(self.rule, f"def f(x):\n    return {expr}\n")
        assert [v.rule for v in vs] == ["GT004"]

    def test_silent_on_integer_comparison(self):
        assert lint_snippet(self.rule, "def f(n):\n    return n == 0\n") == []

    def test_silent_on_threshold_comparison(self):
        assert lint_snippet(self.rule, "def f(x):\n    return x <= 1e-4\n") == []

    def test_silent_on_isclose(self):
        text = "import numpy as np\ndef f(x):\n    return np.isclose(x, 0.5)\n"
        assert lint_snippet(self.rule, text) == []

    def test_chained_comparison_checks_each_pair(self):
        vs = lint_snippet(self.rule, "def f(a, b):\n    return a == b == 0.5\n")
        assert len(vs) == 1

    def test_out_of_scope_module_passes(self):
        text = "def f(x):\n    return x == 0.5\n"
        assert not lint_snippet(self.rule, text, path="src/repro/network/dht.py")


# -- the repository gate and the CLI ----------------------------------------


class TestRepositoryAndCli:
    def test_repo_tree_is_clean(self):
        violations = lint_paths(
            [str(REPO / "src"), str(REPO / "tests"), str(REPO / "examples"),
             str(REPO / "tools")],
            list(ALL_RULES),
        )
        assert violations == [], "\n".join(v.format() for v in violations)

    def test_cli_clean_exit(self, tmp_path):
        clean = tmp_path / "ok.py"
        clean.write_text("x = 1\n")
        proc = subprocess.run(
            [sys.executable, str(TOOL), str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_cli_violation_exit_and_github_format(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "gossip" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\n")
        proc = subprocess.run(
            [sys.executable, str(TOOL), "--format=github", str(bad)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stdout.startswith("::error ")
        assert "title=GT001" in proc.stdout

    def test_cli_select_subset(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "gossip" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\n")
        proc = subprocess.run(
            [sys.executable, str(TOOL), "--select", "GT003", str(bad)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0  # GT001 deselected

    def test_cli_unknown_rule_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, str(TOOL), "--select", "GT999", "src"],
            capture_output=True, text=True, cwd=str(REPO),
        )
        assert proc.returncode == 2

    def test_cli_list_rules(self):
        proc = subprocess.run(
            [sys.executable, str(TOOL), "--list-rules"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        for code in ("GT001", "GT002", "GT003", "GT004", "GT005",
                     "GT007", "GT008", "GT009"):
            assert code in proc.stdout
        assert "GT006" not in proc.stdout  # retired
