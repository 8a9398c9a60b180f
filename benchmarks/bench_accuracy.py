"""Accuracy-vs-bit-width DSE benchmark — the fixed-point backend as an axis.

Runs one campaign cell (vgg16-d on the xc7vx485t) across the full
``bit_widths`` ladder — the float32 reference datapath plus the 8/12/16-bit
fixed-point Winograd backends — and reports the accuracy/throughput
trade-off the quantized backend adds to the design space:

* per-bit-width error envelopes straight off the design points (these are
  the seeded calibration-table numbers, so they are deterministic);
* the three-objective Pareto front (throughput up, multipliers down,
  worst-case relative error down) that only exists because accuracy is a
  metric;
* the cost of the first, cold calibration sweep vs the memoised table a
  warm process reuses for every subsequent evaluation.

Two accuracy gates are enforced on every run (they are deterministic, so
fast mode checks them too), with the bounds sourced from
``benchmarks/baselines.json`` so ``check_regression.py`` enforces the same
numbers against the recorded trend:

* the float32 datapath stays within ``1e-5`` of direct convolution;
* the 16-bit anchor design F(2x2,3x3) stays under its error ceiling.

Every full-mode run appends a trend record to ``BENCH_dse.json`` at the
repository root (override with ``REPRO_BENCH_RECORD``, or set it in fast
mode to record smoke runs too).  Set ``REPRO_BENCH_FAST=1`` to shrink the
tile-size axis for smoke runs.
"""

import json
import os
import platform
import time
from datetime import datetime, timezone
from pathlib import Path

from conftest import emit, record_trend

from repro.core.design_space import SweepSpec
from repro.core.pareto import pareto_front
from repro.dse import ExecutorConfig
from repro.experiments import ExperimentSpec, run_experiment
from repro.reporting import format_table
from repro.winograd.quantized import calibrated_error, clear_calibration

FAST = os.environ.get("REPRO_BENCH_FAST") == "1"

NETWORK = "vgg16-d"
DEVICE = "xc7vx485t"
BIT_WIDTHS = (None, 8, 12, 16)
M_VALUES = (2, 3, 4) if FAST else (2, 3, 4, 5, 6)

SPEC = SweepSpec(m_values=M_VALUES, bit_widths=BIT_WIDTHS)

OBJECTIVES = (
    ("throughput_gops", True),
    ("multipliers", False),
    ("max_rel_error", False),
)

#: Single source of truth for the error ceilings — the same bounds
#: ``check_regression.py`` enforces against the recorded trend.
BASELINES_PATH = Path(__file__).resolve().parent / "baselines.json"
_BASELINE_METRICS = json.loads(BASELINES_PATH.read_text())["dse_accuracy"]["metrics"]
FLOAT_ERROR_CEILING = _BASELINE_METRICS["float_max_rel_error"]["max"]
Q16_ANCHOR_CEILING = _BASELINE_METRICS["q16_anchor_max_rel_error"]["max"]

#: Where the trend record lands (repo root) unless REPRO_BENCH_RECORD is set.
DEFAULT_RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_dse.json"


def test_accuracy_axis_tradeoff(benchmark):
    spec = ExperimentSpec(networks=(NETWORK,), devices=(DEVICE,), sweeps=(SPEC,))
    vectorized = ExecutorConfig(mode="vectorized")

    # Cold: the first sweep in a process pays for the calibration table.
    clear_calibration()
    started = time.perf_counter()
    result = run_experiment(spec, cache=False, executor=vectorized)
    cold_seconds = time.perf_counter() - started

    # Warm: every later sweep reuses the memoised per-(m, r, bit_width)
    # error statistics, so the accuracy axis is almost free.
    warm_seconds = float("inf")
    for _ in range(2 if FAST else 3):
        started = time.perf_counter()
        result = run_experiment(spec, cache=False, executor=vectorized)
        warm_seconds = min(warm_seconds, time.perf_counter() - started)
    benchmark(lambda: run_experiment(spec, cache=False, executor=vectorized))

    by_width = {width: [] for width in BIT_WIDTHS}
    for point in result.points:
        by_width[point.bit_width].append(point)
    front = pareto_front(result.points, OBJECTIVES)
    front_ids = {id(point) for point in front}

    emit(
        f"Accuracy axis: {NETWORK} on {DEVICE}, m in {M_VALUES}, "
        f"bit widths {BIT_WIDTHS} ({len(result.points)} points)",
        format_table(
            [
                {
                    "backend": "float32" if width is None else f"Q{width}",
                    "points": len(points),
                    "best_max_rel": min(p.max_rel_error for p in points),
                    "worst_max_rel": max(p.max_rel_error for p in points),
                    "best_gops": max(p.throughput_gops for p in points),
                    "pareto": sum(1 for p in points if id(p) in front_ids),
                }
                for width, points in by_width.items()
                if points
            ],
            precision=6,
        ),
    )

    float_points = by_width[None]
    assert float_points, "the float32 reference datapath must survive the sweep"
    float_max_rel_error = max(point.max_rel_error for point in float_points)
    assert float_max_rel_error < FLOAT_ERROR_CEILING, (
        f"float32 Winograd drifted to {float_max_rel_error:.3g} relative error "
        f"vs direct convolution (ceiling {FLOAT_ERROR_CEILING:.3g})"
    )

    # The 16-bit anchor: the smallest tile at the widest width is the
    # quantized backend's accuracy flagship.  Its seeded calibration error
    # is the number the trend record tracks release over release.
    q16_anchor = calibrated_error(2, 3, 16)
    assert q16_anchor.max_rel < Q16_ANCHOR_CEILING, (
        f"F(2x2,3x3) at 16 bits measured {q16_anchor.max_rel:.3g} relative "
        f"error (ceiling {Q16_ANCHOR_CEILING:.3g})"
    )

    # Accuracy must genuinely shape the front.  The float32 anchor always
    # survives on the error axis.  Fixed-point designs share the float
    # datapath's throughput/resource numbers, so on the combined front they
    # are dominated by their float twins — the hardware trade-off lives on
    # the fixed-point ladder itself, where the front spans tile sizes
    # (throughput up, error up with m) instead of collapsing to one design.
    assert any(point.bit_width is None for point in front)
    quantized_front = pareto_front(
        [point for point in result.points if point.bit_width is not None],
        OBJECTIVES,
    )
    assert len({point.m for point in quantized_front}) > 1, (
        "the fixed-point front must trade throughput against accuracy "
        "across tile sizes"
    )

    if not FAST or os.environ.get("REPRO_BENCH_RECORD"):
        path = record_trend(
            {
                "benchmark": "dse_accuracy",
                "mode": "fast" if FAST else "full",
                "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
                "network": NETWORK,
                "device": DEVICE,
                "m_values": list(M_VALUES),
                "bit_widths": [w if w is None else int(w) for w in BIT_WIDTHS],
                "feasible_points": result.feasible,
                "cold_seconds": round(cold_seconds, 6),
                "warm_seconds": round(warm_seconds, 6),
                "calibration_overhead": round(cold_seconds / warm_seconds, 2),
                "float_max_rel_error": float_max_rel_error,
                "q16_anchor_max_rel_error": q16_anchor.max_rel,
                "q16_anchor_mean_rel_error": q16_anchor.mean_rel,
                "pareto_front_size": len(front),
                "quantized_front_size": len(quantized_front),
                "python": platform.python_version(),
                "platform": platform.platform(),
            },
            default_path=DEFAULT_RECORD_PATH,
            env_var="REPRO_BENCH_RECORD",
        )
        print(f"trend record appended to {path}")
