"""Command-line interface: regenerate any paper table or figure.

Usage::

    gossiptrust list
    gossiptrust run fig3 [--quick] [--engine sync]
    gossiptrust run table3 --set n=500 --set repeats=2
    gossiptrust all --quick
    gossiptrust serve-sim --n 1000 --epochs 5

``--set key=value`` forwards typed overrides to the experiment runner
(ints, floats, and comma-separated tuples are auto-parsed).
``--engine NAME`` is shorthand for ``--set engine=NAME`` and selects
any engine registered with :func:`repro.gossip.factory.register_engine`.
``--workers N`` is shorthand for ``--set workers=N`` and fans the
experiment's sweep points over ``N`` processes (see
:mod:`repro.experiments.runner`); results are identical to serial runs.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from repro.experiments.registry import list_experiments, run_experiment
from repro.utils.logging import configure

__all__ = ["main", "build_parser", "parse_override"]


def parse_override(text: str) -> tuple:
    """Parse ``key=value`` into a typed (key, value) pair.

    Values parse as int, then float, then comma-tuples of those, then
    plain strings.  ``n=500`` -> 500; ``gammas=0.0,0.2`` -> (0.0, 0.2);
    a trailing comma makes a one-element tuple (``sizes=100,`` -> (100,)),
    matching Python literal syntax.
    """
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"override must be key=value, got {text!r}")
    key, _, raw = text.partition("=")

    def scalar(tok: str):
        for cast in (int, float):
            try:
                return cast(tok)
            except ValueError:
                continue
        return tok

    if "," in raw:
        value: object = tuple(scalar(t) for t in raw.split(",") if t != "")
    else:
        value = scalar(raw)
    return key, value


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="gossiptrust",
        description="GossipTrust reproduction: regenerate paper tables/figures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("experiment", help="experiment id (see `list`)")
    run_p.add_argument("--quick", action="store_true", help="smoke-test scale")
    run_p.add_argument(
        "--chart", action="store_true", help="append an ASCII chart of the series"
    )
    run_p.add_argument(
        "--engine",
        default=None,
        metavar="NAME",
        help="cycle engine to run the experiment on "
        "(registered names; shorthand for --set engine=NAME)",
    )
    run_p.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for sweep-backed experiments "
        "(shorthand for --set workers=N; 1 = serial)",
    )
    run_p.add_argument(
        "--dtype",
        default=None,
        choices=["float64", "float32"],
        help="sync-engine buffer precision (shorthand for "
        "--set dtype=NAME; float32 halves workspace memory)",
    )
    run_p.add_argument(
        "--strategy",
        default=None,
        metavar="NAME",
        help="partner strategy for message-level engines "
        "(global | neighbors | hyparview | brahms; shorthand for "
        "--set strategy=NAME)",
    )
    run_p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        type=parse_override,
        metavar="KEY=VALUE",
        help="override a runner keyword (repeatable)",
    )

    all_p = sub.add_parser("all", help="run every experiment in sequence")
    all_p.add_argument("--quick", action="store_true", help="smoke-test scale")

    serve_p = sub.add_parser(
        "serve-sim",
        help="simulate the long-lived reputation service "
        "(streaming ingest, warm re-aggregation, Bloom serving)",
    )
    serve_p.add_argument("--n", type=int, default=200, help="network size")
    serve_p.add_argument(
        "--epochs", type=int, default=5, help="measured ingest/query/aggregate epochs"
    )
    serve_p.add_argument(
        "--events", type=int, default=50, help="feedback events streamed per epoch"
    )
    serve_p.add_argument(
        "--queries", type=int, default=500, help="score lookups served per epoch"
    )
    serve_p.add_argument(
        "--dirty-fraction",
        type=float,
        default=0.01,
        help="fraction of rater rows the event stream touches per epoch",
    )
    serve_p.add_argument("--seed", type=int, default=0, help="root seed")
    return parser


def _render_serve_sim(report) -> str:
    """Text report of one service simulation."""
    from repro.metrics.reporting import TextTable

    epochs = TextTable(
        ["epoch", "dirty", "events", "cycles", "steps", "churn", "wall_s"],
        title=f"service epochs (n={report.config.n}, "
        f"warmup={report.warmup_epochs}, "
        f"power nodes {'stable' if report.power_nodes_stable else 'UNSTABLE'})",
    )
    for ep in report.epoch_reports:
        epochs.add_row(
            [
                ep.epoch,
                ep.dirty_rows,
                ep.events_absorbed,
                ep.cycles,
                ep.gossip_steps,
                ep.power_node_churn,
                ep.wall_time_s,
            ]
        )
    summary = TextTable(["metric", "value"], title="service summary")
    summary.add_row(["ingest events/s", report.ingest_events_per_s])
    summary.add_row(["queries/s", report.queries_per_s])
    summary.add_row(["mean staleness (events)", report.mean_staleness_events])
    summary.add_row(["max staleness (events)", report.max_staleness_events])
    summary.add_row(["warm epoch cycles (mean)", report.warm_cycles])
    summary.add_row(["cold scratch cycles", report.cold_cycles])
    summary.add_row(["warm wall s (mean)", report.warm_wall_s])
    summary.add_row(["cold wall s", report.cold_wall_s])
    summary.add_row(["wall speedup (x)", report.wall_speedup])
    summary.add_row(["step speedup (x)", report.step_speedup])
    summary.add_row(["warm vs cold vector error", report.vector_error])
    summary.add_row(["store compression (x)", report.store_compression])
    return epochs.render() + "\n\n" + summary.render()


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    configure()
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for eid, desc in list_experiments().items():
            print(f"{eid:10s} {desc}")
        return 0
    if args.command == "run":
        overrides: Dict[str, object] = dict(args.overrides)
        if args.engine is not None:
            overrides["engine"] = args.engine
        if args.workers is not None:
            overrides["workers"] = args.workers
        if args.dtype is not None:
            overrides["dtype"] = args.dtype
        if args.strategy is not None:
            overrides["strategy"] = args.strategy
        result = run_experiment(args.experiment, quick=args.quick, **overrides)
        print(result.render(chart=args.chart))
        return 0
    if args.command == "all":
        for eid in list_experiments():
            result = run_experiment(eid, quick=args.quick)
            print(result.render())
            print()
        return 0
    if args.command == "serve-sim":
        from repro.service import ServeSimConfig, simulate_service

        report = simulate_service(
            ServeSimConfig(
                n=args.n,
                epochs=args.epochs,
                events_per_epoch=args.events,
                queries_per_epoch=args.queries,
                dirty_fraction=args.dirty_fraction,
                seed=args.seed,
            )
        )
        print(_render_serve_sim(report))
        return 0
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
