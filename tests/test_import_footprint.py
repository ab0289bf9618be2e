"""Importing the library loads no SciPy subpackage beyond ``scipy.sparse``.

``scipy.stats`` and ``scipy.sparse.linalg`` (which pull in
``scipy.linalg``, ``scipy.special``, ``scipy.optimize``, ...) cost
~49 MiB of RSS and most of a second on import, about as much as the
rest of ``import repro``, and no engine, service or experiment path
calls them: only
``metrics.errors.kendall_tau`` and ``CentralizedEigenvector.arpack`` do,
and they import them on first call.  This test pins that import graph.

The baseline is whatever ``import scipy.sparse`` loads on its own, so
the check holds on any SciPy release whose ``scipy.sparse`` drags in
more or fewer helpers.  It runs in a fresh interpreter because the test
session itself has long since imported ``scipy.stats``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

_SNIPPET = r"""
import importlib, json, pkgutil, sys

def scipy_modules():
    return {m for m in sys.modules if m == "scipy" or m.startswith("scipy.")}

import scipy.sparse
allowed = scipy_modules()
offenders = {}

class Blame:
    # Observes every import and names the innermost repro module on the
    # stack when a SciPy module outside the baseline is first loaded.
    def find_spec(self, name, path=None, target=None):
        if name.startswith("scipy.") and name not in allowed:
            frame = sys._getframe(1)
            while frame is not None:
                owner = frame.f_globals.get("__name__", "")
                if owner == "repro" or owner.startswith("repro."):
                    break
                frame = frame.f_back
            offenders.setdefault(owner if frame else "<unknown>", []).append(name)
        return None

sys.meta_path.insert(0, Blame())
import repro
names = ["repro"]
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
    names.append(info.name)
# Only what was loaded counts, not an import that was tried and failed.
loaded = {owner: [m for m in mods if m in sys.modules] for owner, mods in offenders.items()}
print(json.dumps({"modules": names, "offenders": {k: v for k, v in loaded.items() if v}}))
"""


def _run_snippet() -> dict:
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src_dir)
    out = subprocess.run(
        [sys.executable, "-c", _SNIPPET], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_importing_every_module_loads_only_scipy_sparse():
    report = _run_snippet()
    # walk_packages reached the whole tree, subpackages included.
    assert "repro.metrics.errors" in report["modules"]
    assert "repro.baselines.centralized" in report["modules"]
    assert "repro.gossip.message_engine" in report["modules"]
    offenders = report["offenders"]
    assert not offenders, "\n".join(
        f"{name} imports {', '.join(shallow[:4])}"
        + (f" (+{len(shallow) - 4} more)" if len(shallow) > 4 else "")
        for name, mods in offenders.items()
        # Shallowest first, in import order: the module the repro code
        # asked for leads, the helpers it dragged in follow.
        for shallow in [sorted(dict.fromkeys(mods), key=lambda m: m.count("."))]
    )
