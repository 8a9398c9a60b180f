"""Per-layer metrics of a traced run, and which end-to-end metric each moves.

Three sources feed them, all read from outside the program:

* spans the launcher records around public functions (``launch.py``);
* ``/v1/stats`` snapshots at the traced half's start and at the end,
  using histogram ``sum/count`` (the exported p50s are interpolated
  inside factor-2 buckets);
* the worker's structured JSON stderr lines (``lease.acquired``,
  ``shard.completed``).

Span phases: 0 is set-up, 1 the untraced half of the timed window, 2 the
traced half.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from stats import mean, optional_percentile, self_time

SETUP_PHASE, TRACED_PHASE = 0, 2
CLASSES = ("evaluate", "query", "pareto", "job")
CACHE_LAYERS = ("points", "engines", "latency", "op_counts", "accuracy")
ROUTES = {
    "evaluate": "/v1/evaluate",
    "query": "/v1/query",
    "pareto": "/v1/pareto",
    "jobs_submit": "/v1/jobs",
    "job_status": "/v1/jobs/{job_id}",
}

#: Per-layer metric -> (layer module, end-to-end metric it should move, on).
#: Names, units and directions live in BENCHMARK.json.  Printed but not
#: listed there, because they cannot move on the gated workloads: the
#: coalesce ratio and requests per batch (1 with one closed-loop client),
#: the fleet counters and the worker's own figures (only ``fleet_mixed``
#: runs a worker), the ``dse.cache`` hit rates (0: the vectorized engine
#: that serves evaluates and shards does not use the evaluation cache) and
#: ``batching.rejected`` (no admission bound is set).
LAYER_NOTES: Dict[str, Tuple[str, str, str]] = {
    **{f"server.route_ms_mean.{route}": ("service.server", "every p50", "interactive")
       for route in ROUTES},
    **{f"http.outside_server_ms.{cls}": ("service.server", "every p50", "interactive")
       for cls in ("evaluate", "query")},
    "batching.wait_ms_p50": ("service.batching", "evaluate_p50_ms", "interactive"),
    "dse_batch.evaluate_requests_ms_p50": ("dse.batch", "evaluate_p50_ms", "interactive"),
    "vectorized.evaluate_cell_batch_ms_total": ("dse.vectorized", "job_p50_s", "campaign"),
    "vectorized.entries_per_busy_s": ("dse.vectorized", "job_p50_s", "campaign"),
    "runner.run_experiment_self_ms_per_shard": ("experiments.runner", "job_p50_s", "campaign"),
    "persistence.result_to_dict_ms_per_shard": ("experiments.persistence", "job_p50_s",
                                                "campaign"),
    **{f"jobs.{name}": ("service.jobs", "job_p50_s", "campaign")
       for name in ("plan_shards_ms", "execute_shard_ms_p50", "queue_wait_ms",
                    "server_makespan_s", "shards_per_job")},
    "store.put_payload_ms_p50": ("service.store", "job_p50_s", "campaign"),
    "columnar.encode_block_ms_p50": ("service.columnar", "job_p50_s", "campaign"),
    "store.bytes_per_point": ("service.columnar", "job_p50_s; query_p50_ms", "campaign"),
    "store.query_page_ms_p50": ("service.store", "query_p50_ms", "interactive"),
    "store.pareto_ms_p50": ("service.store", "pareto_p50_ms", "interactive"),
    "store.engine_miss_ratio": ("service.query", "query_p50_ms; pareto_p50_ms", "interactive"),
    "store.scan_ms_mean": ("service.store", "query_p50_ms; pareto_p50_ms", "interactive"),
    "queryspec.from_dict_ms_p50": ("service.queryspec", "query_p50_ms", "interactive"),
    **{f"quantized.{name}": ("winograd.quantized", "setup_s", "interactive; campaign")
       for name in ("calibrated_error_cold_calls", "calibrated_error_ms_total")},
    **{f"obs.tracing_overhead_pct.{cls}": ("obs", "none (overhead check)", "all")
       for cls in CLASSES},
    "obs.stats_scrape_ms": ("obs", "none (overhead check)", "all"),
    **{f"bench.{count}.{cls}": ("benchmark generator", "validity of every number", "all")
       for count in ("attempted", "succeeded", "failed") for cls in CLASSES},
}


def read_spans(paths: Iterable[Path]) -> List[Tuple]:
    """Spans from the launcher files that exist, each tagged with its file index."""
    spans = []
    for index, path in enumerate(paths):
        if path.exists():
            for line in path.read_text().splitlines():
                spans.append((index, *json.loads(line)))
    return spans


def read_worker_events(path: Path) -> List[Dict[str, Any]]:
    """The worker's structured JSON log lines."""
    events = []
    if path.exists():
        for line in path.read_text().splitlines():
            if line.startswith("{"):
                try:
                    events.append(json.loads(line))
                except ValueError:
                    continue
    return events


def _family(stats: Dict[str, Any], name: str) -> List[Dict[str, Any]]:
    return stats.get(name, {}).get("samples", [])


def histogram(stats: Dict[str, Any], name: str, **labels: str) -> Tuple[int, float]:
    """``(count, sum)`` of one labelled histogram child (zeros when absent)."""
    for sample in _family(stats, name):
        if all(sample["labels"].get(k) == v for k, v in labels.items()):
            return sample["count"], sample["sum"]
    return 0, 0.0


def histogram_total(stats: Dict[str, Any], name: str) -> Tuple[int, float]:
    """``(count, sum)`` over every child of a histogram family."""
    samples = _family(stats, name)
    return sum(s["count"] for s in samples), sum(s["sum"] for s in samples)


def gauge(stats: Dict[str, Any], name: str, **labels: str) -> float:
    """One labelled gauge value (0 when absent)."""
    for sample in _family(stats, name):
        if all(sample["labels"].get(k) == v for k, v in labels.items()):
            return sample["value"]
    return 0.0


def diff_mean_ms(before: Tuple[int, float], after: Tuple[int, float]) -> Optional[float]:
    """Mean in ms of the observations between two ``(count, sum)`` snapshots."""
    count = after[0] - before[0]
    return (after[1] - before[1]) / count * 1e3 if count else None


def route_means(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Optional[float]]:
    """Server-observed mean latency per route between two ``/v1/stats`` reads."""
    return {
        route: diff_mean_ms(
            histogram(before, "repro_http_request_seconds", route=pattern),
            histogram(after, "repro_http_request_seconds", route=pattern),
        )
        for route, pattern in ROUTES.items()
    }


def production_metrics(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Any]:
    """The ``/v1/stats`` figures every run records beside the client numbers."""
    requests = (gauge(after, "repro_batcher_requests_total")
                - gauge(before, "repro_batcher_requests_total"))
    batches = (gauge(after, "repro_batcher_batches_total")
               - gauge(before, "repro_batcher_batches_total"))
    out: Dict[str, Any] = {
        f"server.route_ms_mean.{route}": value
        for route, value in route_means(before, after).items()
    }
    out["server.route_ms_mean.lease_complete"] = diff_mean_ms(
        histogram(before, "repro_http_request_seconds",
                  route="/v1/leases/{lease_id}/complete"),
        histogram(after, "repro_http_request_seconds", route="/v1/leases/{lease_id}/complete"),
    )
    out["batching.coalesce_ratio"] = requests / batches if batches else None
    out["batching.rejected"] = (gauge(after, "repro_batcher_rejected_total")
                                - gauge(before, "repro_batcher_rejected_total"))
    for layer in CACHE_LAYERS:
        out[f"cache.hit_rate.{layer}"] = gauge(after, "repro_eval_cache_hit_rate", layer=layer)
    for event in ("granted", "requeued", "expired"):
        out[f"fleet.{event}"] = (gauge(after, "repro_fleet_leases", event=event)
                                 - gauge(before, "repro_fleet_leases", event=event))
    out["store.scan_ms_mean"] = diff_mean_ms(
        histogram_total(before, "repro_store_scan_seconds"),
        histogram_total(after, "repro_store_scan_seconds"),
    )
    return out


def worker_metrics(events: List[Dict[str, Any]], since: float) -> Dict[str, Optional[float]]:
    """Shard, lease-to-complete and idle times from the worker's log lines."""
    acquired: Dict[str, float] = {}
    shard_s, lease_s, idle_s = [], [], []
    last_completed: Optional[float] = None
    for event in sorted(events, key=lambda e: e.get("ts", 0.0)):
        if event.get("ts", 0.0) < since:
            continue
        if event.get("event") == "lease.acquired":
            acquired[event["lease_id"]] = event["ts"]
            if last_completed is not None:
                idle_s.append(event["ts"] - last_completed)
                last_completed = None
        elif event.get("event") == "shard.completed":
            shard_s.append(event["seconds"])
            if event["lease_id"] in acquired:
                lease_s.append(event["ts"] - acquired[event["lease_id"]])
            last_completed = event["ts"]
    return {
        "worker.shard_s_p50": optional_percentile(shard_s, 50),
        "worker.lease_to_complete_s_p50": optional_percentile(lease_s, 50),
        "worker.idle_s_p50": optional_percentile(idle_s, 50),
        "worker.shards": float(len(shard_s)),
    }


def _durations_ms(spans: List[Tuple], name: str) -> List[float]:
    return [(s[4] - s[3]) * 1e3 for s in spans if s[2] == name]


def _children(spans: List[Tuple]) -> Dict[Tuple[int, int], List[Tuple[float, float]]]:
    """Child intervals per (file, parent span id)."""
    children: Dict[Tuple[int, int], List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[5] is not None:
            children[(span[0], span[5])].append((span[3], span[4]))
    return children


def batch_wait_ms(spans: List[Tuple]) -> List[float]:
    """``MicroBatcher.submit`` self time: its span minus the batch evaluation.

    The evaluation runs on the executor thread, so the child is found by
    the request object it carried, within the submit's interval.
    """
    batches = defaultdict(list)
    for span in spans:
        if span[2] == "dse_batch.evaluate_requests":
            for request in span[8]["requests"]:
                batches[(span[0], request)].append((span[3], span[4]))
    waits = []
    for span in spans:
        if span[2] != "batching.submit":
            continue
        start, end = span[3], span[4]
        inside = [c for c in batches[(span[0], span[8]["request"])]
                  if c[0] >= start and c[1] <= end]
        waits.append(self_time(start, end, inside) * 1e3)
    return waits


def span_metrics(spans: List[Tuple]) -> Dict[str, Optional[float]]:
    """Per-layer figures from the traced half's spans (and set-up spans)."""
    setup = [s for s in spans if s[7] == SETUP_PHASE]
    traced = [s for s in spans if s[7] == TRACED_PHASE]
    children = _children(traced)
    out: Dict[str, Optional[float]] = {}

    def p50(name: str) -> Optional[float]:
        return optional_percentile(_durations_ms(traced, name), 50)

    out["batching.wait_ms_p50"] = optional_percentile(batch_wait_ms(traced), 50)
    out["dse_batch.evaluate_requests_ms_p50"] = p50("dse_batch.evaluate_requests")
    out["dse_batch.requests_per_call"] = mean(
        [len(s[8]["requests"]) for s in traced if s[2] == "dse_batch.evaluate_requests"])
    cell = [s for s in traced if s[2] == "vectorized.evaluate_cell_batch"]
    busy = sum(s[4] - s[3] for s in cell)
    out["vectorized.evaluate_cell_batch_ms_total"] = busy * 1e3
    out["vectorized.entries_per_busy_s"] = (
        sum(s[8]["entries"] for s in cell) / busy if busy else None)
    out["runner.run_experiment_self_ms_per_shard"] = mean([
        self_time(s[3], s[4], children[(s[0], s[1])]) * 1e3
        for s in traced if s[2] == "runner.run_experiment"])
    out["persistence.result_to_dict_ms_per_shard"] = mean(
        _durations_ms(traced, "persistence.result_to_dict"))
    out["jobs.plan_shards_ms"] = mean(_durations_ms(traced, "jobs.plan_shards"))
    out["jobs.execute_shard_ms_p50"] = p50("jobs.execute_shard")
    out["store.put_payload_ms_p50"] = p50("store.put_payload")
    out["columnar.encode_block_ms_p50"] = p50("columnar.encode_block")
    encodes = [s[8] for s in traced if s[2] == "columnar.encode_block"]
    points = sum(e["points"] for e in encodes)
    out["store.bytes_per_point"] = sum(e["bytes"] for e in encodes) / points if points else None
    out["store.query_page_ms_p50"] = p50("store.query_page")
    out["store.pareto_ms_p50"] = p50("store.pareto")
    reads = sum(1 for s in traced if s[2] in ("store.query_page", "store.pareto"))
    builds = sum(1 for s in traced if s[2] == "store.engine_build")
    out["store.engine_miss_ratio"] = builds / reads if reads else None
    out["queryspec.from_dict_ms_p50"] = p50("queryspec.from_dict")
    cold = [s for s in setup if s[2] == "quantized.calibrated_error" and s[8]["cold"]]
    out["quantized.calibrated_error_cold_calls"] = float(len(cold))
    out["quantized.calibrated_error_ms_total"] = sum(
        (s[4] - s[3]) * 1e3 for s in setup if s[2] == "quantized.calibrated_error")
    return out


def route_span_means(spans: List[Tuple]) -> Dict[str, Optional[float]]:
    """Mean ``server.route`` span per route, to hold against ``/v1/stats``."""
    by_route: Dict[str, List[float]] = defaultdict(list)
    for span in spans:
        if span[2] == "server.route" and span[7] == TRACED_PHASE:
            fields = span[8]
            path = fields["path"]
            route = next((r for r, p in ROUTES.items() if p == path), None)
            if path.startswith("/v1/jobs/"):
                route = "job_status"
            if route is not None and not (route == "jobs_submit" and fields["method"] != "POST"):
                by_route[route].append((span[4] - span[3]) * 1e3)
    return {route: mean(values) for route, values in by_route.items()}


def job_metrics(samples: List[Any]) -> Dict[str, Optional[float]]:
    """Queue wait, makespan and shard count from the jobs' own status payloads."""
    jobs = [s.response for s in samples if s.kind == "job" and s.ok]
    return {
        "jobs.queue_wait_ms": mean([(j["started"] - j["created"]) * 1e3 for j in jobs]),
        "jobs.server_makespan_s": mean([j["finished"] - j["created"] for j in jobs]),
        "jobs.shards_per_job": mean([j["shards"]["total"] for j in jobs]),
    }


def tracing_overhead_pct(untraced: Dict[str, List[float]], traced: Dict[str, List[float]]
                         ) -> Dict[str, Optional[float]]:
    """Traced over untraced p50 per class, as a percentage above 1."""
    out: Dict[str, Optional[float]] = {}
    for cls in CLASSES:
        base = optional_percentile(untraced.get(cls, []), 50)
        with_spans = optional_percentile(traced.get(cls, []), 50)
        out[f"obs.tracing_overhead_pct.{cls}"] = (
            (with_spans / base - 1.0) * 100 if base and with_spans else None)
    return out
