"""Self-tests of the benchmark harness.

Run from the repository root::

    python -m pytest perfbench/test_harness.py -q

Every workload runs here at a tiny size, passed as constructor
arguments; the full sizes are only ever built by ``run.py``.
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.use_checkout_src()

import harness  # noqa: E402
import spans  # noqa: E402
import summary  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads(run.SPEC_PATH.read_text(encoding="utf-8"))
#: the registered workload classes, kept before any test patches the registry
CLASSES = dict(workloads.WORKLOADS)
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
#: every workload at a size that runs in well under a second
TINY = {
    "cold-1k": {"n": 64, "pool": 3},
    "probe-100k": {"n": 3000},
    "service-1k": {"n": 150, "events": 20, "lookups": 40},
    "des-128": {"n": 24, "pool": 2},
}


def tiny(name: str) -> workloads.Workload:
    return CLASSES[name](**TINY[name])


def test_every_declared_workload_is_registered() -> None:
    assert set(TINY) == {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_declared_names_are_valid_and_unique() -> None:
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) and len(n) <= 64 for n in names)


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_smoke_run(name: str) -> None:
    result = harness.measure(tiny(name), seed=3, seconds=0.0)
    out = run.payload(result, SPEC, trace=False)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_is_bitwise_equal_and_unwraps(name: str) -> None:
    originals = {(owner, attr): vars(owner)[attr] for owner, attr, _, _ in spans.TARGETS}
    result = harness.measure_traced(tiny(name), seed=3, seconds=0.0)
    half = len(result.ops) // 2
    plain, traced = result.ops[:half], result.ops[half:]
    assert half >= 2 and result.failed == 0
    assert all(a.vector.tobytes() == b.vector.tobytes() for a, b in zip(plain, traced))
    assert all(vars(owner)[attr] is fn for (owner, attr), fn in originals.items())
    assert set(run.payload(result, SPEC, trace=True)["metrics"]) == PER_LAYER


def test_wrappers_are_removed_when_the_block_raises() -> None:
    originals = {(owner, attr): vars(owner)[attr] for owner, attr, _, _ in spans.TARGETS}
    with pytest.raises(KeyError):
        with spans.installed(spans.Tracer()):
            assert vars(spans.GossipTrust)["run"] is not originals[(spans.GossipTrust, "run")]
            raise KeyError("boom")
    assert all(vars(owner)[attr] is fn for (owner, attr), fn in originals.items())


def _same_matrix(x, y) -> bool:
    a, b = x.sparse(), y.sparse()
    return all(np.array_equal(getattr(a, k), getattr(b, k)) for k in ("indptr", "indices", "data"))


def test_same_seed_same_inputs() -> None:
    w = tiny("cold-1k")
    a, b, c = w.setup(5), w.setup(5), w.setup(6)
    assert all(_same_matrix(x, y) for x, y in zip(a.pool, b.pool))
    assert a.config == b.config
    assert not _same_matrix(a.pool[0], c.pool[0])


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_the_spec(
    trace: int, monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture, tmp_path
) -> None:
    monkeypatch.setitem(workloads.WORKLOADS, "cold-1k", lambda: tiny("cold-1k"))
    runs = tmp_path / "runs.jsonl"
    argv = ["--workload", "cold-1k", "--seed", "2", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv + ["--json", str(runs), "--commit", "abc123"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    printed = [line.split()[0] for line in lines[:-1]]
    assert all(NAME.match(name) for name in printed)
    assert set(printed) == set(result["metrics"]) == (PER_LAYER if trace else END_TO_END)
    record = json.loads(runs.read_text())
    for key in ("seed", "nproc", "threads", "python", "numpy", "scipy"):
        assert key in record
    assert record["commit"] == "abc123" and record["seed"] == 2


def test_highest_percentile_leaves_ten_samples_beyond() -> None:
    assert summary.highest_percentile(19) is None
    assert summary.highest_percentile(20) == 50
    assert summary.highest_percentile(50) == 80
    assert summary.highest_percentile(99) == 80
    assert summary.highest_percentile(100) == 90
    assert summary.highest_percentile(1000) == 99
    assert summary.highest_percentile(40_000) == 99.9
    for count in range(1, 2000):
        p = summary.highest_percentile(count)
        if p is not None:
            assert count * (100 - p) / 100 >= 10 - 1e-9


def test_self_time_subtracts_the_union_of_children() -> None:
    S = spans.Span
    tree = [
        S("root", 0.0, 10.0, None, 0),
        S("a", 1.0, 4.0, 0, 0),
        S("b", 3.0, 6.0, 0, 0),  # overlaps a: the union [1, 6] counts once
        S("c", 9.0, 12.0, 0, 0),  # runs past root: only [9, 10] is covered
        S("a.x", 2.0, 3.0, 1, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 3.0, 3.0, 1.0])


def _by_seed(values):
    return {seed: [v] for seed, v in enumerate(values)}


def test_compare_verdicts() -> None:
    base = _by_seed([1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00])
    same = _by_seed([1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00])
    slower = {s: [v * 1.3] for s, (v,) in base.items()}
    faster = {s: [v * 0.8] for s, (v,) in base.items()}
    noisy = _by_seed([0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0])
    assert summary.verdict(base, same, "lower", 0.1) == "unchanged"
    assert summary.verdict(base, slower, "lower", 0.1) == "regressed"
    assert summary.verdict(base, faster, "lower", 0.1) == "improved"
    assert summary.verdict(base, faster, "higher", 0.1) == "regressed"
    assert summary.verdict(base, noisy, "lower", 0.1) == "unresolved"
    assert summary.count_verdict(_by_seed([5, 6]), _by_seed([5, 6]), "lower") == "unchanged"
    assert summary.count_verdict(_by_seed([5, 6]), _by_seed([5, 7]), "lower") == "regressed"
    assert summary.count_verdict(_by_seed([5, 6]), _by_seed([4, 6]), "lower") == "improved"


def test_compare_files_fails_on_a_regression(tmp_path, capsys: pytest.CaptureFixture) -> None:
    def write(path, scale):
        with open(path, "w", encoding="utf-8") as fh:
            for seed in range(10):
                metrics = {
                    m["name"]: {"value": (1.0 + seed / 1000) * scale, "unit": m["unit"]}
                    for m in SPEC["end_to_end"]
                }
                fh.write(json.dumps({"workload": "cold-1k", "seed": seed, "metrics": metrics}) + "\n")

    write(tmp_path / "base.jsonl", 1.0)
    write(tmp_path / "same.jsonl", 1.0)
    write(tmp_path / "slow.jsonl", 1.5)
    assert run.main(["--compare", str(tmp_path / "base.jsonl"), str(tmp_path / "same.jsonl")]) == 0
    assert run.main(["--compare", str(tmp_path / "base.jsonl"), str(tmp_path / "slow.jsonl")]) == 1
    assert "regressed" in capsys.readouterr().out


def test_refuses_to_run_without_the_library(tmp_path) -> None:
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-1k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
