"""The repository benchmark: one workload against a real ``repro serve``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 20 --trace 0

One run builds the workload's inputs from ``--seed``, sets the service up
:data:`SETUPS` times (spawn to first healthy ``/health`` plus an untimed
warm-up pass over every cell the workload touches; ``setup_s`` is the
median), drives the last one for ``--seconds`` from at most two client
threads, stops it, checks every answer and prints each metric by name and
unit.  The last line of standard output is one JSON object: with
``--trace 0`` its metrics are the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a run whose second half records spans.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Service set-ups per run; ``setup_s`` is their median.
SETUPS = 3
READ_CLASSES = ("evaluate", "query", "pareto")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("interactive", "campaign", "fleet_mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def scrape(conn) -> Dict[str, Any]:
    """One ``/v1/stats`` read, with the client-side time it took."""
    status, body, start, end, _trace = conn.call("GET", "/v1/stats")
    if status != 200:
        raise RuntimeError(f"/v1/stats answered {status}: {body}")
    return {"metrics": body["metrics"], "ms": (end - start) * 1e3}


def warm_up(conn, recorder, workload) -> None:
    """Untimed traffic over every (network, device, m, r, bit_width) cell."""
    import harness as h
    from workloads import Op

    for body in workload.warmup_evaluates:
        h.send_read(conn, recorder, Op("evaluate", body), "warmup")
    job = h.run_job_closed(conn, recorder, Op("job", {"spec": workload.warmup_job}),
                           "warmup", workload.poll_s)
    target = ["prefill", 0] if workload.prefill else ["job"]
    for kind in ("query", "pareto"):
        body = {"target": target, "limit": 20}
        if kind == "query":
            body.update(metric="throughput_gops", top_k=20)
        h.send_read(conn, recorder, Op(kind, body), "warmup", job.response.get("key"))
    failed = [s for s in recorder.samples if not s.ok]
    if failed:
        raise RuntimeError(f"warm-up request failed: {failed[0].kind} -> {failed[0].response}")


def prefill_store(workload, path: Path) -> List[str]:
    """Store the interactive workload's campaign results before the server starts."""
    from repro.dse.engine import ExecutorConfig
    from repro.experiments.persistence import result_to_dict
    from repro.experiments.runner import run_experiment
    from repro.experiments.spec import ExperimentSpec
    from repro.service.store import ResultStore

    store = ResultStore(path)
    executor = ExecutorConfig(mode="vectorized")
    keys = [
        store.put_payload(result_to_dict(run_experiment(ExperimentSpec.from_dict(spec),
                                                        executor=executor)),
                          flush_index=False)
        for spec in workload.prefill
    ]
    store.flush_index()
    return keys


def point_overlap(samples) -> Optional[float]:
    """Share of job grid entries that an earlier job of the run already had."""
    from workloads import bit_widths_of

    seen = set()
    repeated = total = 0
    for sample in sorted((s for s in samples if s.kind == "job"), key=lambda s: s.start):
        spec = sample.request["spec"]
        sweep = spec["sweeps"][0]
        for network in spec["networks"]:
            for device in spec["devices"]:
                for m in sweep["m_values"]:
                    for budget in sweep["multiplier_budgets"]:
                        for freq in sweep["frequencies_mhz"]:
                            for bits in bit_widths_of(sweep):
                                entry = (network, device, m, budget, freq, bits)
                                repeated += entry in seen
                                total += 1
                                seen.add(entry)
    return repeated / total if total else None


def run(args: argparse.Namespace, workdir: Path) -> Dict[str, Any]:
    """Set up, drive, stop and check one workload run; returns its record."""
    import harness as h
    import workloads
    from checks import check_all

    workload = workloads.build(args.workload, args.seed, args.seconds)
    prefill_keys: List[str] = []
    started = time.perf_counter()
    if workload.prefill:
        prefill_keys = prefill_store(workload, workdir / "prefill")
    prefill_s = time.perf_counter() - started
    setup_times = []
    recorder = None
    service = None
    try:
        for index in range(SETUPS):
            last = index == SETUPS - 1
            run_dir = workdir / f"setup-{index}"
            run_dir.mkdir()
            store = run_dir / "store"
            if workload.prefill:
                shutil.copytree(workdir / "prefill", store)
            recorder = h.Recorder(prefill_keys=prefill_keys)
            service = h.Service(ROOT, run_dir, store, workload.server_workers,
                                workload.fleet_worker, spans=bool(args.trace) and last)
            started = time.perf_counter()
            service.start()
            conn = h.Connection(service.port, "warm")
            warm_up(conn, recorder, workload)
            setup_times.append(time.perf_counter() - started)
            if not last:
                conn.close()
                service.stop()
        assert recorder is not None and service is not None
        half_stats: Dict[str, Any] = {}

        def on_half(connection) -> None:
            service.advance_phase()
            half_stats.update(scrape(connection))

        def phase_of(elapsed: float) -> str:
            if not args.trace:
                return "timed"
            return "untraced" if elapsed < args.seconds / 2 else "traced"

        before = scrape(conn)
        if args.trace:
            service.advance_phase()  # set-up spans end; the untraced half begins
        window_wall = time.time()
        rss_marked: List[float] = []
        if workload.loop == "closed":
            on_sent = (workload.rss_after_ops, lambda: rss_marked.append(service.rss_mb()))
            begin, sent = h.closed_loop(conn, recorder, workload.ops(), workload.poll_s,
                                        args.seconds, phase_of, on_half if args.trace else None,
                                        on_sent)
            lateness: List[float] = []
        else:
            conn.close()
            loop = h.OpenLoop(service.port, recorder, workload.ops(), workload.poll_s,
                              args.seconds, phase_of, on_half if args.trace else None)
            begin, sent = loop.run()
            lateness = loop.lateness
            conn = h.Connection(service.port, "end")
        window_s = time.perf_counter() - begin
        after = scrape(conn)
        rss_end_mb = service.rss_mb()
        conn.close()
    finally:
        if service is not None:
            service.stop()
    started = time.perf_counter()
    jobs_checked = check_all(recorder.samples, service.store, args.seed)
    check_s = time.perf_counter() - started
    final_dir = service.workdir
    return {
        "workload": workload,
        "samples": recorder.samples,
        "setup_times": setup_times,
        "window_s": window_s,
        "sent": sent,
        "window_wall": window_wall,
        "before": before,
        "half": half_stats,
        "after": after,
        # A window that ends before ``rss_after_ops`` reads it at the end.
        "rss_mb": rss_marked[0] if rss_marked else rss_end_mb,
        "rss_after_ops": workload.rss_after_ops if rss_marked else sent,
        "rss_end_mb": rss_end_mb,
        "lateness": lateness,
        "jobs_checked": jobs_checked,
        "prefill_s": prefill_s,
        "check_s": check_s,
        "spans": [final_dir / "server.spans", final_dir / "worker.spans"],
        "worker_log": final_dir / "worker.err",
    }


def _fmt(value: Any) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def line(name: str, value: Any, unit: str) -> None:
    print(f"  {name:<40} {_fmt(value)} {unit}")


def catalogue(section: str) -> Dict[str, str]:
    """Metric name -> unit of one ``BENCHMARK.json`` section, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def report(args: argparse.Namespace, record: Dict[str, Any]) -> Dict[str, Any]:
    """Print every figure by name and unit; return the final JSON object."""
    from layers import (
        LAYER_NOTES, job_metrics, production_metrics, read_spans, read_worker_events,
        route_span_means, span_metrics, tracing_overhead_pct, worker_metrics,
    )
    from stats import optional_percentile, percentile

    workload = record["workload"]
    samples = record["samples"]
    timed_phases = ("untraced", "traced") if args.trace else ("timed",)
    timed = [s for s in samples if s.phase in timed_phases]

    def latencies(kind: str, phases=timed_phases) -> List[float]:
        return [s.latency for s in samples if s.kind == kind and s.ok and s.phase in phases]

    print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} loop={workload.loop} ops_sent={record['sent']} "
          f"sequence_sha256={workload.sequence_hash(record['sent'])}")
    print(f"  window {record['window_s']:.3f} s; set-ups {[round(t, 4) for t in record['setup_times']]} s; "
          f"status poll every {workload.poll_s * 1e3:g} ms")

    e2e: Dict[str, float] = {
        "setup_s": statistics.median(record["setup_times"]),
        "evaluate_p50_ms": percentile(latencies("evaluate"), 50) * 1e3,
        "query_p50_ms": percentile(latencies("query"), 50) * 1e3,
        "pareto_p50_ms": percentile(latencies("pareto"), 50) * 1e3,
        "job_p50_s": percentile(latencies("job"), 50),
        "server_rss_mb": record["rss_mb"],
    }
    e2e_units = catalogue("end_to_end")
    print("end-to-end:")
    for name, unit in e2e_units.items():
        print(f"  {name:<28} {e2e[name]:.6g} {unit}")

    print("diagnostics (not gated):")
    for kind in READ_CLASSES:
        values = latencies(kind)
        for q in (90, 99):
            tail = optional_percentile(values, q)
            line(f"{kind}_p{q}_ms", tail and tail * 1e3, f"ms (n={len(values)})")
    job_values = latencies("job")
    line("job_p90_s", optional_percentile(job_values, 90), f"s (n={len(job_values)})")
    points = sum(s.entries for s in timed if s.kind == "job" and s.ok)
    line("campaign_points_per_s", points / record["window_s"], "1/s")
    failed_timed = sum(1 for s in timed if not s.ok)
    line("error_rate", failed_timed / max(1, len(timed)),
         f"ratio ({failed_timed} of {len(timed)}; {sum(s.wrong for s in samples)} wrong answers)")
    line("job_point_overlap", point_overlap(samples), "ratio")
    if record["lateness"]:
        late = optional_percentile(record["lateness"], 99)
        line("bench.late_p99_ms", late and late * 1e3, f"ms (n={len(record['lateness'])} sends)")
    line("server_rss_mb read after", record["rss_after_ops"], "ops")
    line("server_rss_end_mb", record["rss_end_mb"], "MB (VmHWM at the window's end)")
    line("prefill_s", record["prefill_s"], "s")
    line("check_s", record["check_s"], f"s ({record['jobs_checked']} jobs re-run)")

    print("per class and phase:")
    counts: Counter = Counter()
    for phase in ("warmup", *timed_phases):
        for kind in ("evaluate", "query", "pareto", "job"):
            chosen = [s for s in samples if s.kind == kind and s.phase == phase]
            ok = sum(s.ok for s in chosen)
            print(f"  {phase:<9} {kind:<9} attempted={len(chosen)} succeeded={ok} "
                  f"failed={len(chosen) - ok}")
            if phase in timed_phases:
                counts.update({f"bench.attempted.{kind}": len(chosen),
                               f"bench.succeeded.{kind}": ok,
                               f"bench.failed.{kind}": len(chosen) - ok})

    before = record["before"]["metrics"]
    after = record["after"]["metrics"]
    half = record["half"].get("metrics", before)
    production = production_metrics(half if args.trace else before, after)
    print("production metrics from /v1/stats (" + ("traced half" if args.trace else "window") + "):")
    for name, value in production.items():
        print(f"  {name:<40} {_fmt(value)}")
    if workload.fleet_worker:
        print("worker (structured stderr log, timed window):")
        for name, value in worker_metrics(read_worker_events(record["worker_log"]),
                                          record["window_wall"]).items():
            print(f"  {name:<40} {_fmt(value)}")

    attempted = len(samples)
    failed = sum(1 for s in samples if not s.ok)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if not args.trace:
        result["metrics"] = {name: {"value": e2e[name], "unit": unit}
                             for name, unit in e2e_units.items()}
        return result

    spans = read_spans(record["spans"])
    traced = [s for s in timed if s.phase == "traced"]
    per_layer: Dict[str, Any] = dict(production)
    per_layer.update(span_metrics(spans))
    per_layer.update(job_metrics(traced))
    per_layer.update(counts)
    for kind in ("evaluate", "query"):
        client = [s.end - s.start for s in traced if s.kind == kind and s.ok]
        server = production[f"server.route_ms_mean.{kind}"]
        per_layer[f"http.outside_server_ms.{kind}"] = (
            sum(client) / len(client) * 1e3 - server if client and server is not None else None)
    per_layer.update(tracing_overhead_pct(
        {kind: latencies(kind, ("untraced",)) for kind in ("evaluate", "query", "pareto", "job")},
        {kind: latencies(kind, ("traced",)) for kind in ("evaluate", "query", "pareto", "job")},
    ))
    scrapes = [record["before"]["ms"], record["half"]["ms"], record["after"]["ms"]]
    per_layer["obs.stats_scrape_ms"] = sum(scrapes) / len(scrapes)
    print("route means, spans vs /v1/stats (traced half):")
    span_means = route_span_means(spans)
    for route in span_means:
        print(f"  {route:<12} span {_fmt(span_means[route])} ms; "
              f"stats {_fmt(production[f'server.route_ms_mean.{route}'])} ms")
    print("per-layer:")
    metrics = {}
    missing = []
    layer_units = catalogue("per_layer")
    for name, unit in layer_units.items():
        value = per_layer.get(name)
        layer, moves, on = LAYER_NOTES[name]
        print(f"  {name:<44} {_fmt(value)} {unit}   [{layer}; moves {moves} on {on}]")
        if value is None:
            missing.append(name)
        else:
            metrics[name] = {"value": float(value), "unit": unit}
    for name in sorted(set(per_layer) - set(layer_units) - set(production)):
        print(f"  {name:<44} {_fmt(per_layer[name])}   [not listed]")
    if missing:
        raise RuntimeError(f"per-layer metrics without samples: {missing}")
    result["metrics"] = metrics
    return result


def _terminate(signum, _frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    # Unwind through the ``finally`` blocks that stop the service.
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no repro sources under src/; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        record = run(args, workdir)
        result = report(args, record)
    except Exception:  # noqa: BLE001 — report the failure, print no result line
        traceback.print_exc()
        print(f"perfbench: run failed; files kept in {workdir}", file=sys.stderr)
        return 1
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
