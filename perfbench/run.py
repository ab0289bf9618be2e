#!/usr/bin/env python3
"""GossipTrust benchmark driver: run one workload, or compare two sets of runs.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload cold-1k --seed 0 --seconds 12 --trace 0 \\
        [--json RUNS.jsonl] [--spans SPANS.jsonl] [--commit SHA]

It imports the library from the checkout's ``src/``, prints every metric
as ``name value unit``, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics declared in ``BENCHMARK.json``;
``--trace 1`` the per-layer ones.  ``--json`` appends the run, stamped
with its provenance, as one JSON line; ``--spans`` writes a traced
run's spans as JSON lines.

Compare two files of ``--json`` runs (several seeds and sets per side)::

    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl

Load model: one process, one client in a closed loop (the next operation
starts when the previous one returns), BLAS/OpenMP pools pinned to one
thread before numpy loads.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
from typing import Any, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

#: size of every BLAS/OpenMP thread pool (pinned before numpy is imported)
THREADS = 1
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_threads() -> None:
    for var in _THREAD_VARS:
        os.environ[var] = str(THREADS)


def use_checkout_src() -> None:
    """Import the library from this checkout's ``src/``; SystemExit if absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library source under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def payload(result: Any, spec: dict, trace: bool) -> dict:
    """The result object, with units from BENCHMARK.json; names must match it."""
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result.metrics
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}"
        )
    return {
        "correct": result.failed == 0,
        "attempted": len(result.ops),
        "failed": result.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def provenance(args: argparse.Namespace) -> dict:
    import numpy
    import scipy

    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": args.commit,
        "nproc": len(affinity(0)) if affinity else os.cpu_count(),
        "threads": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def parse_args(argv: Optional[List[str]], spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", metavar="OUT", help="append this run as one JSON line")
    parser.add_argument("--spans", metavar="OUT", help="write a traced run's spans (JSON lines)")
    parser.add_argument("--commit", default="", help="commit id to stamp (never read from git)")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.compare is None and args.workload is None:
        parser.error("--workload is required unless --compare is given")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    args = parse_args(argv, spec)
    if args.compare:
        from summary import compare

        return compare(args.compare[0], args.compare[1], spec)
    use_checkout_src()
    from harness import measure, measure_traced, summaries
    from workloads import WORKLOADS

    for out_path in (args.json, args.spans):
        if out_path:
            pathlib.Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]()
    if args.trace:
        result = measure_traced(workload, args.seed, args.seconds, args.spans)
    else:
        result = measure(workload, args.seed, args.seconds)
    out = payload(result, spec, bool(args.trace))
    for op in result.ops:
        if op.error is not None:
            print(f"perfbench: failed operation: {op.error}", file=sys.stderr)
    if args.json:
        record = {**provenance(args), **out, "samples": summaries(result.samples)}
        with open(args.json, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    for name, metric in out["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    pin_threads()
    sys.exit(main())
