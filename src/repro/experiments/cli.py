"""``python -m repro`` — run declarative experiments from the command line.

Subcommands
-----------
``run SPEC.json``
    Execute an experiment spec file end-to-end (resolve networks/devices,
    run its search strategy, print the campaign report) and optionally
    persist the evaluated result (``-o``) and/or a CSV of every point
    (``--csv``).
``report RESULT.json``
    Reload a previously saved result and re-print its summary, comparison
    and best-by-metric views — no re-evaluation.
``list networks|devices|strategies``
    Show what the registries can resolve, one name per line.
``serve``
    Start the :mod:`repro.service` HTTP server: a persistent
    :class:`~repro.service.ResultStore`, micro-batched ``evaluate`` /
    ``query`` / ``pareto`` / ``best`` endpoints and the sharded async
    campaign-job scheduler (``/v1/jobs``, ``--workers N``).
``worker``
    Attach a pull-based fleet worker (:mod:`repro.worker`) to a running
    server: it leases pending campaign-job shards over ``/v1/leases``,
    executes them and pushes the results back, exiting gracefully on
    ``SIGTERM`` after finishing its in-flight shards.
``migrate``
    Open a result store, importing any legacy JSONL segments into the
    columnar format, and compact away dead records.  Safe to run offline
    on a store a server later reopens.

The full flag reference lives in ``docs/cli.md`` (a test keeps it in sync
with the parsers' ``--help`` output).

Examples
--------
::

    python -m repro run examples/experiment_spec.json -o result.json
    python -m repro report result.json --metric power_efficiency
    python -m repro list strategies
    python -m repro serve --store .repro-store --port 8787
    python -m repro worker --server http://127.0.0.1:8787 --concurrency 2
    python -m repro migrate --store .repro-store
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from ..dse.campaign import CampaignResult, metric_direction
from ..dse.engine import EXECUTOR_MODES, ExecutorConfig
from ..hw.device import known_devices
from ..nn.registry import known_networks
from ..reporting import (
    campaign_comparison_table,
    campaign_summary_table,
    campaign_to_csv,
    format_table,
)
from .runner import run_experiment
from .spec import ExperimentSpec
from .strategies import known_strategies

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser (all subcommands)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run, report and inspect declarative design-space experiments.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser(
        "run", help="execute an experiment spec file end-to-end"
    )
    run_parser.add_argument("spec", help="path to an ExperimentSpec JSON file")
    run_parser.add_argument(
        "-o", "--output", metavar="PATH", help="save the evaluated result as JSON"
    )
    run_parser.add_argument(
        "--csv", metavar="PATH", help="export every feasible point as CSV"
    )
    run_parser.add_argument(
        "--executor",
        choices=EXECUTOR_MODES,
        help="override the spec's executor mode",
    )
    run_parser.add_argument(
        "--no-cache", action="store_true", help="disable evaluation memoisation"
    )
    run_parser.add_argument(
        "-q", "--quiet", action="store_true", help="suppress the report tables"
    )

    report_parser = commands.add_parser(
        "report", help="re-print the report of a saved result (no re-evaluation)"
    )
    report_parser.add_argument("result", help="path to a saved CampaignResult JSON file")
    report_parser.add_argument(
        "--metric",
        default=None,
        help="comparison metric (defaults to the spec's first metric)",
    )
    report_parser.add_argument(
        "--csv", metavar="PATH", help="export every feasible point as CSV"
    )

    list_parser = commands.add_parser("list", help="show registry contents")
    list_parser.add_argument("what", choices=("networks", "devices", "strategies"))

    serve_parser = commands.add_parser(
        "serve", help="start the result-store + design-query HTTP server"
    )
    serve_parser.add_argument(
        "--store",
        metavar="DIR",
        default=".repro-store",
        help="result-store directory (created if missing; default: .repro-store)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument(
        "--port", type=int, default=8787, help="bind port (0 picks a free one)"
    )
    serve_parser.add_argument(
        "--max-batch",
        type=int,
        default=256,
        help="dispatch a batch immediately at this many pending requests",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "local slots executing campaign-job shards as in-process lease "
            "clients: 0 disables local execution (shards run only on the "
            "worker fleet), 1 runs shards on a single background thread, "
            "N >= 2 runs them on a process pool of N (default: 1)"
        ),
    )
    serve_parser.add_argument(
        "--shard-entries",
        type=int,
        default=512,
        help=(
            "max grid entries per campaign-job shard before a (network, device) "
            "cell is split further (default: 512)"
        ),
    )
    serve_parser.add_argument(
        "--lease-ttl-s",
        type=float,
        default=60.0,
        help=(
            "seconds a shard lease (local slot or fleet worker) survives "
            "without a heartbeat before the shard re-queues (default: 60)"
        ),
    )
    serve_parser.add_argument(
        "--no-metrics",
        action="store_true",
        help="disable the metrics registry and the /metrics + /v1/stats endpoints",
    )
    serve_parser.add_argument(
        "--max-pending-evals",
        type=int,
        default=None,
        help=(
            "admission bound on queued + in-flight /v1/evaluate requests; "
            "beyond it the server answers 429 with Retry-After "
            "(default: unbounded)"
        ),
    )
    serve_parser.add_argument(
        "--max-pending-jobs",
        type=int,
        default=None,
        help=(
            "bound on active (non-terminal) campaign jobs; beyond it job "
            "submission answers 429 with Retry-After (default: unbounded)"
        ),
    )
    serve_parser.add_argument(
        "-q", "--quiet", action="store_true", help="suppress the startup banner"
    )

    worker_parser = commands.add_parser(
        "worker", help="attach a pull-based fleet worker to a running server"
    )
    worker_parser.add_argument(
        "--server",
        default="http://127.0.0.1:8787",
        help="server URL to pull shard leases from (default: http://127.0.0.1:8787)",
    )
    worker_parser.add_argument(
        "--worker-id",
        default=None,
        help="worker identity reported to the server (default: hostname-pid)",
    )
    worker_parser.add_argument(
        "--concurrency",
        type=int,
        default=1,
        help="shards executed at once; also caps leases held (default: 1)",
    )
    worker_parser.add_argument(
        "--lease-ttl-s",
        type=float,
        default=None,
        help="lease TTL to request per acquire (default: the server's TTL)",
    )
    worker_parser.add_argument(
        "--heartbeat-s",
        type=float,
        default=None,
        help="seconds between lease heartbeats (default: a third of the lease TTL)",
    )
    worker_parser.add_argument(
        "--poll-s",
        type=float,
        default=0.5,
        help="idle poll interval when no shards are claimable (default: 0.5)",
    )
    worker_parser.add_argument(
        "--max-shards",
        type=int,
        default=None,
        help="exit after leasing this many shards (default: run until stopped)",
    )
    worker_parser.add_argument(
        "-q", "--quiet", action="store_true", help="suppress per-shard progress lines"
    )

    migrate_parser = commands.add_parser(
        "migrate", help="import legacy JSONL segments and compact a result store"
    )
    migrate_parser.add_argument(
        "--store",
        default=".repro-store",
        help="result-store directory to migrate in place (default: .repro-store)",
    )
    migrate_parser.add_argument(
        "-q", "--quiet", action="store_true", help="suppress the migration summary"
    )
    return parser


def _print_report(result: CampaignResult, metric: Optional[str] = None) -> None:
    spec = result.spec
    metrics: Sequence[str] = (metric,) if metric else (spec.metrics if spec else ("throughput_gops",))
    print(campaign_summary_table(result))
    for name in metrics[:1]:
        print()
        print(campaign_comparison_table(result, metric=name))
    if result.points:
        rows = []
        for name in metrics:
            best = result.best(name)
            rows.append(
                {
                    "metric": name,
                    "direction": "max" if metric_direction(name) else "min",
                    "best": float(getattr(best, name)),
                    "design": best.name,
                    "network": best.workload_name,
                    "device": best.device_name,
                }
            )
        print()
        print(format_table(rows, title="Best by metric", precision=3))


def _cmd_run(args: argparse.Namespace) -> int:
    spec = ExperimentSpec.load(args.spec)
    executor = ExecutorConfig(mode=args.executor) if args.executor else None
    result = run_experiment(
        spec,
        cache=False if args.no_cache else None,
        executor=executor,
    )
    if not args.quiet:
        print(
            f"experiment {spec.name!r}: strategy={spec.strategy.name} "
            f"evaluations={result.evaluations}/{spec.grid_size} "
            f"feasible={result.feasible} "
            f"elapsed={result.elapsed_seconds * 1e3:.1f} ms"
        )
        print()
        _print_report(result)
    if args.output:
        path = result.save(args.output)
        print(f"result saved to {path}")
    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write(campaign_to_csv(result))
        print(f"points exported to {args.csv}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    result = CampaignResult.load(args.result)
    _print_report(result, metric=args.metric)
    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write(campaign_to_csv(result))
        print(f"points exported to {args.csv}")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    names = {
        "networks": known_networks,
        "devices": known_devices,
        "strategies": known_strategies,
    }[args.what]()
    for name in names:
        print(name)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from ..service.server import serve  # deferred: keep plain CLI imports light

    return serve(
        args.store,
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        workers=args.workers,
        shard_entries=args.shard_entries,
        lease_ttl_s=args.lease_ttl_s,
        quiet=args.quiet,
        metrics=not args.no_metrics,
        max_pending_evals=args.max_pending_evals,
        max_pending_jobs=args.max_pending_jobs,
    )


def _cmd_worker(args: argparse.Namespace) -> int:
    from ..worker.loop import run_worker  # deferred: keep plain CLI imports light

    return run_worker(
        args.server,
        worker_id=args.worker_id,
        concurrency=args.concurrency,
        ttl_s=args.lease_ttl_s,
        heartbeat_s=args.heartbeat_s,
        poll_s=args.poll_s,
        max_shards=args.max_shards,
        quiet=args.quiet,
    )


def _cmd_migrate(args: argparse.Namespace) -> int:
    from ..service.store import ResultStore  # deferred: keep plain CLI imports light

    store = ResultStore(args.store)  # opening imports legacy JSONL segments
    stats = store.compact()
    if not args.quiet:
        print(
            f"store {args.store!r} compacted: "
            f"kept {stats['kept']} result(s), dropped {stats['dropped']}"
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "run": _cmd_run,
        "report": _cmd_report,
        "list": _cmd_list,
        "serve": _cmd_serve,
        "worker": _cmd_worker,
        "migrate": _cmd_migrate,
    }[args.command]
    try:
        return handler(args)
    except FileNotFoundError as error:
        print(f"error: no such file: {error.filename or error}", file=sys.stderr)
    except (ValueError, KeyError) as error:
        message = error.args[0] if error.args else error
        print(f"error: {message}", file=sys.stderr)
    return 2
