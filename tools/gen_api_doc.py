"""Generate docs/API.md from the package's public surface.

Run from the repository root: ``PYTHONPATH=src python tools/gen_api_doc.py``.
A module that fails to import fails the run.  CI regenerates the file
and fails when it differs from the committed one.
"""
import importlib, inspect, pkgutil
import repro

lines = ["# API reference", "",
         "Auto-generated summary of the public surface (`__all__` of every",
         "module).  Regenerate with `python tools/gen_api_doc.py`.", ""]

def doc_first_line(obj):
    doc = inspect.getdoc(obj) or ""
    return doc.split("\n")[0] if doc else ""

seen = set()
mods = []
for m in pkgutil.walk_packages(repro.__path__, prefix="repro."):
    mods.append(m.name)
for name in sorted(mods):
    mod = importlib.import_module(name)
    public = getattr(mod, "__all__", None)
    if not public:
        continue
    lines.append(f"## `{name}`")
    first = doc_first_line(mod)
    if first:
        lines.append("")
        lines.append(first)
    lines.append("")
    for sym in public:
        obj = getattr(mod, sym, None)
        if obj is None or id(obj) in seen:
            continue
        kind = "class" if inspect.isclass(obj) else ("function" if callable(obj) else "data")
        summary = doc_first_line(obj)
        lines.append(f"- **`{sym}`** ({kind}) — {summary}")
    lines.append("")

# Static epilogue: the performance model is part of the public contract
# (the engine options and constants that set a cycle's cost), so it rides along
# with every regeneration rather than living only in DESIGN.md.
lines += [
    "## Performance model",
    "",
    "`SynchronousGossipEngine` (`repro.gossip.engine`) has one step loop",
    "and one step for both modes: each cycle scatters X0 and W0 into",
    "dense slot arrays, and every step, from step 0, is",
    "`np.multiply(X, 0.5, out=Y)` plus one sort-free `csc_matvecs` scatter",
    "of the senders' halves. What governs gossip-cycle cost:",
    "",
    "- **`mode`** — `\"full\"` tracks all n columns; `\"probe\"` tracks",
    "  `probe_columns` (a class constant, 64) sampled columns (plus the",
    "  heaviest-mass column) for large sweeps; `\"auto\"` (default)",
    "  probes iff n > 1500.",
    "- **`check_every`** — convergence-check cadence, a class constant",
    "  (8). Coarse checks skip the expensive residual scan; once the",
    "  residual is within `8x epsilon` the loop switches to per-step",
    "  checks, so the reported step count keeps Algorithm 1's",
    "  granularity.",
    "- **`dtype`** — `\"float64\"` (default) or `\"float32\"` (halves",
    "  workspace memory; estimate drift stays orders below epsilon, and",
    "  an armed sanitizer widens its conservation tolerance to 1e-4).",
    "",
    "The engine runs in one process on ordinary heap buffers. Columns",
    "split into one contiguous column block per stepping thread, one",
    "thread per usable core (`step_threads(n, p)`: at least 16 columns",
    "and 2^16 entries each). One process-wide pool round trip covers a",
    "whole convergence-check window: each thread steps its block",
    "through every step of the window, then computes the block's check",
    "share; the calling thread draws partners and combines the check.",
    "Results are bitwise invariant in the block count.",
    "The buffers live in one `SparseWorkspace` that survives across",
    "`run_cycle` calls and runs of the same shape;",
    "`invalidate_workspace()` drops it explicitly. Reused and fresh",
    "workspaces produce identical results step for step.",
    "",
    "`MessageGossipEngine` runs Algorithm 2 as messages on the DES on",
    "a round clock; its subclass `AsyncMessageGossipEngine` swaps in a",
    "Poisson clock (one Poisson(n/mean_interval) clock whose wakes pick",
    "a node uniformly, drawn a check window at a time and scheduled as",
    "plain calls). Both keep every node's triplet vector as a row of",
    "one engine-owned `(n, n)` x/w pair, a `PopulationStore`, and the",
    "cycle's participants as one boolean mask over the rows. A cycle",
    "takes the trust matrix's CSR once; it feeds the exact oracle and",
    "`PopulationStore.reset`, one scatter of `s_ij * v_i` into the live",
    "rows. A round is one call per stage:",
    "`PartnerStrategy.partners` draws every partner (the global sampler",
    "via `Overlay.random_partners`, the same RNG stream as per-node",
    "`random_partner` calls), `PopulationStore.halve` halves all senders",
    "into a fresh outbox and counts the round's known ids in one total,",
    "`Transport.send_many` sends the round as one",
    "`Simulator.call_batch_in` heap entry and counts that total as its",
    "bytes (exact also when messages drop: `send` counts a message's",
    "bytes before its drop checks), and the arrivals merge into",
    "the store in arrival order as one `csc_matvecs` scatter-add, the",
    "sync engine's step kernel (`PopulationStore.merge`). The",
    "convergence check runs over blocks of 4 rows doubling up to 32 and",
    "stops at the first failing block; it divides only the rows it",
    "reads (`PopulationStore.estimate_rows`; the previous window's come",
    "from the buffer the store left when the round halved it), and held",
    "mass and the armed sanitizer's checks are row reductions over the",
    "store.",
    "Results are bitwise those of the node-by-node protocol.",
    "`Simulator.call_at`/`call_in` push `(when, seq, fn, args)` heap",
    "entries and return `None`; Poisson wakes and membership control",
    "traffic schedule one call per message. The simulator has no",
    "processes or event handles.",
    "",
    "`repro.experiments.runner` fans experiment sweeps over worker",
    "processes: declare `SweepPoint`s (picklable point function + kwargs",
    "+ root seed) and call `run_sweep(points, workers=N)` — ordered",
    "results, per-point wall time and peak RSS, identical values at any",
    "worker count (`--workers` on the CLI).",
    "",
    "Importing `repro` loads numpy and `scipy.sparse` only (~53 MiB of",
    "RSS, the import floor under every peak-RSS figure).",
    "`metrics.errors.kendall_tau` and `CentralizedEigenvector.arpack`",
    "import `scipy.stats` and `scipy.sparse.linalg` on first call;",
    "`tests/test_import_footprint.py` fails if any module loads a SciPy",
    "subpackage beyond `scipy.sparse` at import time.",
    "",
    "Run `PYTHONPATH=src python tools/bench_runner.py` to regenerate the",
    "tracked benchmark trajectory in `BENCH_engines.json` (schema 9:",
    "per-cycle engine grid with per-entry peak RSS and phase breakdowns,",
    "end-to-end `GossipTrust.run` and sweep-throughput sections, the",
    "service closed loop, and the `large_n` probe tier with per-point",
    "RSS/wall budgets — `make bench-large` runs",
    "just that tier and fails when a budget is blown; `make bench-xlarge`",
    "adds the opt-in n = 10^6 point; `--compare OLD NEW` fails on any",
    "change in steps, cycles, convergence or another seeded count),",
    "`python3 perfbench/run.py`",
    "for the end-to-end workloads with a `--compare` gate, or",
    "`pytest benchmarks/bench_engines.py` for the engine shoot-out and",
    "the service and parallel-sweep contracts.",
    "",
]
import os
os.makedirs("docs", exist_ok=True)
open("docs/API.md", "w").write("\n".join(lines) + "\n")
print(f"wrote docs/API.md ({len(lines)} lines)")
