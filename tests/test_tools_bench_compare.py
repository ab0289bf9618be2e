"""``tools/bench_runner.py --compare``: the regression gate.

Seeded counts must match exactly; peak RSS must stay within a band.
"""

import copy
import importlib.util
import json
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def runner():
    spec = importlib.util.spec_from_file_location(
        "bench_runner", REPO / "tools" / "bench_runner.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def committed():
    return json.loads((REPO / "BENCH_engines.json").read_text())


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_identical_payloads_pass(runner, committed, tmp_path):
    path = _write(tmp_path, "a.json", committed)
    assert runner.main(["--compare", str(path), str(path)]) == 0


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d["entries"][0].__setitem__("steps", d["entries"][0]["steps"] + 1),
        lambda d: d["large_n"]["points"][0].__setitem__("converged", False),
        lambda d: d["end_to_end"]["runs"][0].__setitem__("cycles", 99),
        lambda d: d["service"]["epochs_detail"][0].__setitem__("gossip_steps", 1),
        lambda d: d["resilience"]["error"].__setitem__(
            "message/global/crash", 0.5
        ),
    ],
    ids=["steps", "converged", "cycles", "service-epoch", "resilience"],
)
def test_a_deterministic_change_fails(runner, committed, tmp_path, edit, capsys):
    changed = copy.deepcopy(committed)
    edit(changed)
    old = _write(tmp_path, "old.json", committed)
    new = _write(tmp_path, "new.json", changed)
    assert runner.main(["--compare", str(old), str(new)]) == 1
    assert "changed " in capsys.readouterr().out


def test_wall_time_is_not_compared(runner, committed, tmp_path):
    changed = copy.deepcopy(committed)
    for entry in changed["entries"]:
        entry["wall_time_s"] *= 3
    old = _write(tmp_path, "old.json", committed)
    new = _write(tmp_path, "new.json", changed)
    assert runner.main(["--compare", str(old), str(new)]) == 0


def test_rss_within_band_passes(runner, committed, tmp_path):
    changed = copy.deepcopy(committed)
    for entry in changed["entries"]:
        entry["peak_rss_kib"] += 0.99 * max(0.15 * entry["peak_rss_kib"], 20 * 1024)
    old = _write(tmp_path, "old.json", committed)
    new = _write(tmp_path, "new.json", changed)
    assert runner.main(["--compare", str(old), str(new)]) == 0


@pytest.mark.parametrize("factor", [0.5, 1.5])
def test_rss_outside_band_fails(runner, committed, tmp_path, factor, capsys):
    changed = copy.deepcopy(committed)
    point = changed["large_n"]["points"][-1]
    point["peak_rss_kib"] *= factor
    old = _write(tmp_path, "old.json", committed)
    new = _write(tmp_path, "new.json", changed)
    assert runner.main(["--compare", str(old), str(new)]) == 1
    out = capsys.readouterr().out
    assert "peak_rss_kib" in out
    assert "0 deterministic changes, 1 peak-RSS changes" in out


def test_small_cells_get_the_absolute_band(runner):
    assert runner.rss_within_band(50 * 1024, 69 * 1024)
    assert not runner.rss_within_band(50 * 1024, 71 * 1024)


def test_only_shared_cells_are_compared(runner, committed):
    """A quick run keeps the per-cycle grid and the n=10^4 points; cells
    only one side has (other n, other sections) are skipped."""
    quick = {
        "entries": copy.deepcopy(committed["entries"]),
        "large_n": {"points": copy.deepcopy(committed["large_n"]["points"][:2])},
        "resilience": dict(copy.deepcopy(committed["resilience"]), n=48),
    }
    shared, diffs = runner.compare(committed, quick)
    assert shared == len(committed["entries"]) + 2
    assert diffs == []


def test_no_shared_cell_is_an_error(runner, committed, tmp_path):
    other = {"entries": [dict(committed["entries"][0], n=7)]}
    old = _write(tmp_path, "old.json", committed)
    new = _write(tmp_path, "new.json", other)
    assert runner.main(["--compare", str(old), str(new)]) == 2
