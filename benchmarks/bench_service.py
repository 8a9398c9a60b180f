"""Service benchmark — micro-batched evaluate throughput and latency.

Measures the two things the ``repro.service`` request path promises:

* **Throughput** — a heterogeneous request set (two networks x two
  devices x an ``m`` x budget x frequency plane) evaluated two ways:
  one-request-at-a-time through the scalar evaluator (what a naive
  server would do per HTTP request) versus one coalesced
  :func:`repro.dse.batch.evaluate_requests` dispatch (what the
  :class:`~repro.service.MicroBatcher` does).  Asserts the outcomes are
  byte-identical and, in full mode, that batching sustains at least the
  ``service_micro_batching`` floor in ``benchmarks/baselines.json``.
* **Latency** — the same requests fired concurrently at a live
  :class:`~repro.service.MicroBatcher` on an asyncio loop, recording
  per-request p50/p99 and sustained requests/second through the real
  self-clocking schedule.

Every full-mode run appends a machine-readable trend record to
``BENCH_service.json`` at the repository root (override with
``REPRO_BENCH_RECORD_SERVICE``; set it in fast mode to record smoke runs
too); ``benchmarks/check_regression.py`` gates CI on the recorded
speedup.  Set ``REPRO_BENCH_FAST=1`` to shrink the request set.
"""

import asyncio
import json
import os
import pickle
import platform
import statistics
import time
from datetime import datetime, timezone
from pathlib import Path

from conftest import emit, record_trend

from repro.core.design_space import SweepSpec, frequency_range
from repro.dse import EvalRequest, evaluate_requests
from repro.reporting import format_table
from repro.service import MicroBatcher

FAST = os.environ.get("REPRO_BENCH_FAST") == "1"

NETWORK_NAMES = ("vgg16-d", "alexnet")
DEVICE_NAMES = ("xc7vx485t", "xc7vx690t")

BASELINES_PATH = Path(__file__).resolve().parent / "baselines.json"

if FAST:
    SPEC = SweepSpec(
        m_values=(2, 3, 4),
        multiplier_budgets=(256, 512),
        frequencies_mhz=(150.0, 200.0),
    )
    MIN_SPEEDUP = None
else:
    SPEC = SweepSpec(
        m_values=(2, 3, 4, 5, 6),
        multiplier_budgets=tuple(range(200, 2001, 200)) + (None,),
        frequencies_mhz=frequency_range(100.0, 300.0, 50.0),
    )
    MIN_SPEEDUP = json.loads(BASELINES_PATH.read_text())["service_micro_batching"][
        "metrics"
    ]["batched_speedup"]["min"]

#: Where the trend record lands unless REPRO_BENCH_RECORD_SERVICE is set.
DEFAULT_RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_service.json"


def build_requests() -> list:
    """The heterogeneous request set: every cell interleaved, like live traffic."""
    entries = list(SPEC.configurations())
    return [
        EvalRequest(network, device, entry)
        for entry in entries
        for network in NETWORK_NAMES
        for device in DEVICE_NAMES
    ]


def test_micro_batching_throughput(benchmark):
    requests = build_requests()

    # One-request-at-a-time scalar evaluation: the no-batching server.
    started = time.perf_counter()
    serial_outcomes = [
        evaluate_requests([request], cache=False, vectorized=False)[0]
        for request in requests
    ]
    serial_seconds = time.perf_counter() - started

    # One coalesced dispatch: what the micro-batcher hands the engine.
    best_batched = float("inf")
    batched_outcomes = None
    for _ in range(2 if FAST else 3):
        started = time.perf_counter()
        batched_outcomes = evaluate_requests(requests, cache=False)
        best_batched = min(best_batched, time.perf_counter() - started)
    benchmark(lambda: evaluate_requests(requests, cache=False))

    assert [o.error for o in serial_outcomes] == [o.error for o in batched_outcomes]
    assert [
        pickle.dumps(o.point) for o in serial_outcomes if o.point is not None
    ] == [
        pickle.dumps(o.point) for o in batched_outcomes if o.point is not None
    ], "batched evaluation must reproduce one-at-a-time serial results bit-for-bit"

    speedup = serial_seconds / best_batched
    feasible = sum(1 for outcome in batched_outcomes if outcome.feasible)

    # Live MicroBatcher: concurrent submissions through the real
    # self-clocking schedule, measuring per-request latency.
    async def drive() -> list:
        batcher = MicroBatcher(max_batch=512, cache=False)
        latencies = []

        async def one(request):
            started = time.perf_counter()
            await batcher.submit(request)
            latencies.append(time.perf_counter() - started)

        await asyncio.gather(*(one(request) for request in requests))
        await batcher.close()
        return latencies

    started = time.perf_counter()
    latencies = asyncio.run(drive())
    wall = time.perf_counter() - started
    latencies.sort()
    p50_ms = statistics.median(latencies) * 1e3
    p99_ms = latencies[min(len(latencies) - 1, int(len(latencies) * 0.99))] * 1e3
    throughput_rps = len(requests) / wall

    emit(
        f"Micro-batched evaluate path vs one-request-at-a-time serial "
        f"({len(requests)} requests, {len(NETWORK_NAMES)}x{len(DEVICE_NAMES)} cells)",
        format_table(
            [
                {
                    "path": "serial (one request at a time)",
                    "time_ms": serial_seconds * 1e3,
                    "us_per_request": serial_seconds / len(requests) * 1e6,
                    "speedup": 1.0,
                },
                {
                    "path": "batched (single vectorized dispatch)",
                    "time_ms": best_batched * 1e3,
                    "us_per_request": best_batched / len(requests) * 1e6,
                    "speedup": speedup,
                },
                {
                    "path": "micro-batcher (asyncio, self-clocking)",
                    "time_ms": wall * 1e3,
                    "us_per_request": wall / len(requests) * 1e6,
                    "speedup": serial_seconds / wall,
                },
            ],
            precision=2,
        )
        + f"\nlatency p50 {p50_ms:.2f} ms  p99 {p99_ms:.2f} ms  "
        f"sustained {throughput_rps:.0f} req/s",
    )

    if not FAST or os.environ.get("REPRO_BENCH_RECORD_SERVICE"):
        path = record_trend(
            {
                "benchmark": "service_micro_batching",
                "mode": "fast" if FAST else "full",
                "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
                "networks": list(NETWORK_NAMES),
                "devices": list(DEVICE_NAMES),
                "requests": len(requests),
                "feasible": feasible,
                "serial_seconds": round(serial_seconds, 6),
                "batched_seconds": round(best_batched, 6),
                "batched_speedup": round(speedup, 2),
                "batcher_wall_seconds": round(wall, 6),
                "batcher_throughput_rps": round(throughput_rps, 1),
                "latency_p50_ms": round(p50_ms, 3),
                "latency_p99_ms": round(p99_ms, 3),
                "python": platform.python_version(),
                "platform": platform.platform(),
            },
            default_path=DEFAULT_RECORD_PATH,
            env_var="REPRO_BENCH_RECORD_SERVICE",
        )
        print(f"trend record appended to {path}")

    if MIN_SPEEDUP is not None:
        assert speedup >= MIN_SPEEDUP, (
            f"batched {best_batched * 1e3:.1f} ms vs serial "
            f"{serial_seconds * 1e3:.1f} ms — only {speedup:.2f}x "
            f"(need >= {MIN_SPEEDUP}x)"
        )
