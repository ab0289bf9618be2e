"""Generate docs/API.md from the package's public surface (one-off tool)."""
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
    try:
        mod = importlib.import_module(name)
    except Exception as exc:
        continue
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
# (engine options callers are expected to tune), so it rides along
# with every regeneration rather than living only in DESIGN.md.
lines += [
    "## Performance model",
    "",
    "`SynchronousGossipEngine` (`repro.gossip.engine`) has one step loop",
    "for both modes: X and W start each cycle in geometrically-grown CSR",
    "`CsrPool`s stepped by pooled `csr_matmat` SpGEMMs (the mixing matrix",
    "laid out diagonal-first by `fill_mixing`); once a shard's",
    "occupancy crosses 0.25 it hands off to dense slots, where a step is",
    "`np.multiply(X, 0.5, out=Y)` plus one sort-free `csc_matvecs` scatter",
    "of the senders' halves. The handoff is bitwise-invisible. The knobs",
    "that govern gossip-cycle cost:",
    "",
    "- **`mode`** — `\"full\"` tracks all n columns; `\"probe\"` tracks",
    "  `probe_columns` sampled columns (plus the heaviest-mass column)",
    "  for large sweeps; `\"auto\"` (default) probes iff n > 1500.",
    "- **`check_every`** — convergence-check cadence (default 8). Coarse",
    "  checks skip the expensive residual scan; once the residual is",
    "  within `8x epsilon` the loop switches to per-step checks, so the",
    "  reported step count keeps Algorithm 1's granularity.",
    "- **`dtype`** — `\"float64\"` (default) or `\"float32\"` (halves",
    "  workspace memory; estimate drift stays orders below epsilon, and",
    "  an armed sanitizer widens its conservation tolerance to 1e-4).",
    "",
    "The engine runs in one process on ordinary heap buffers. Columns",
    "split into shards only where one pool's `n * p` entries would",
    "overflow int32 indices (`min_shards_for(n, p)`; one shard at every",
    "recorded point); results are bitwise shard-count invariant.",
    "The buffers live in one `SparseWorkspace` that survives across",
    "`run_cycle` calls and runs of the same shape;",
    "`invalidate_workspace()` drops it explicitly. Reused and fresh",
    "workspaces produce identical results step for step.",
    "",
    "`MessageGossipEngine` keeps per-node state in array-backed",
    "`TripletVector`s (pooled across cycles and re-initialized in place",
    "via `TripletVector.reset`) and evaluates the per-round epsilon",
    "criterion population-at-once in a reusable `EstimatesWorkspace`;",
    "its dominant cost is the simulated transport, not the convergence",
    "bookkeeping.",
    "",
    "`repro.experiments.runner` fans experiment sweeps over worker",
    "processes: declare `SweepPoint`s (picklable point function + kwargs",
    "+ root seed) and call `run_sweep(points, workers=N)` — ordered",
    "results, per-point wall time and peak RSS, identical values at any",
    "worker count (`--workers` on the CLI).",
    "",
    "Run `PYTHONPATH=src python tools/bench_runner.py` to regenerate the",
    "tracked benchmark trajectory in `BENCH_engines.json` (schema 8:",
    "per-cycle engine grid with per-entry peak RSS and phase breakdowns,",
    "end-to-end `GossipTrust.run` and sweep-throughput sections, the",
    "service closed loop, and the `large_n` probe tier with per-point",
    "RSS/wall budgets — `make bench-large` runs",
    "just that tier and fails when a budget is blown; `make bench-xlarge`",
    "adds the opt-in n = 10^6 point), `python3 perfbench/run.py`",
    "for the end-to-end workloads with a `--compare` gate, or",
    "`pytest benchmarks/bench_engines.py` for the engine shoot-out and",
    "the service and parallel-sweep contracts.",
    "",
]
import os
os.makedirs("docs", exist_ok=True)
open("docs/API.md", "w").write("\n".join(lines) + "\n")
print(f"wrote docs/API.md ({len(lines)} lines)")
