"""Vectorized batch engine benchmark — scalar vs NumPy cell evaluation.

Runs the paper's full Fig. 6-scale campaign — 3 networks x 2 devices x
(tile size ``m`` x multiplier budget x frequency) — through the same
``ExperimentSpec`` twice:

* the *scalar* path: ``ExecutorConfig(mode="serial")`` with a fresh
  :class:`~repro.dse.EvaluationCache` (memoised but cold, the strongest
  non-vectorized configuration);
* the *vectorized* path: ``ExecutorConfig(mode="vectorized")``, which
  evaluates each ``(network, device)`` cell as stacked NumPy array
  operations (:mod:`repro.dse.vectorized`).

Asserts the two paths return byte-identical design points, and (in full
mode) that the vectorized engine is at least ``MIN_SPEEDUP`` times faster.
Every full-mode run appends a machine-readable trend record to
``BENCH_dse.json`` at the repository root (override the path with
``REPRO_BENCH_RECORD``, or set it in fast mode to record smoke runs too);
``benchmarks/check_regression.py`` gates CI on the recorded speedup.

Set ``REPRO_BENCH_FAST=1`` to shrink the grid for smoke runs; smoke mode
skips the wall-clock assertion and (by default) the trend record.
"""

import json
import os
import pickle
import platform
import time
from datetime import datetime, timezone
from pathlib import Path

from conftest import emit, record_trend

from repro.core.design_space import SweepSpec, frequency_range
from repro.dse import EvaluationCache, ExecutorConfig
from repro.experiments import ExperimentSpec, run_experiment
from repro.reporting import format_table

FAST = os.environ.get("REPRO_BENCH_FAST") == "1"

NETWORK_NAMES = ("vgg16-d", "alexnet", "resnet18")
DEVICE_NAMES = ("xc7vx485t", "xc7vx690t")

#: Single source of truth for the speedup floor — the same bounds
#: ``check_regression.py`` enforces against the recorded trend.
BASELINES_PATH = Path(__file__).resolve().parent / "baselines.json"

if FAST:
    SPEC = SweepSpec(
        m_values=(2, 3, 4),
        multiplier_budgets=(256, 512, None),
        frequencies_mhz=(150.0, 200.0),
    )
    MIN_SPEEDUP = None
else:
    # The Fig. 6 plane: every tile size the paper plots, a dense multiplier-
    # budget axis, the full frequency ladder, plus the whole-device budget.
    SPEC = SweepSpec(
        m_values=(2, 3, 4, 5, 6, 7),
        multiplier_budgets=tuple(range(100, 3001, 100)) + (None,),
        frequencies_mhz=frequency_range(100.0, 300.0, 50.0),
    )
    MIN_SPEEDUP = json.loads(BASELINES_PATH.read_text())["dse_vectorized"]["metrics"][
        "speedup"
    ]["min"]

#: Where the trend record lands (repo root) unless REPRO_BENCH_RECORD is set.
DEFAULT_RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_dse.json"


def _timed_runs(spec, repeats, run_once):
    """Best-of-N wall clock plus the result of the last run."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = run_once(spec)
        best = min(best, time.perf_counter() - started)
    return best, result


def test_vectorized_speedup_over_scalar(benchmark):
    spec = ExperimentSpec(networks=NETWORK_NAMES, devices=DEVICE_NAMES, sweeps=(SPEC,))

    # Scalar reference: serial executor, memoised but cold cache per run.
    scalar_seconds, scalar_result = _timed_runs(
        spec,
        repeats=1 if FAST else 2,
        run_once=lambda s: run_experiment(
            s, cache=EvaluationCache(), executor=ExecutorConfig(mode="serial")
        ),
    )

    vectorized = ExecutorConfig(mode="vectorized")
    vectorized_seconds, vectorized_result = _timed_runs(
        spec,
        repeats=2 if FAST else 3,
        run_once=lambda s: run_experiment(s, cache=False, executor=vectorized),
    )
    benchmark(lambda: run_experiment(spec, cache=False, executor=vectorized))

    speedup = scalar_seconds / vectorized_seconds
    grid = spec.grid_size
    emit(
        "Vectorized batch engine vs scalar serial path "
        f"({len(NETWORK_NAMES)} networks x {len(DEVICE_NAMES)} devices, {grid} configs)",
        format_table(
            [
                {
                    "path": "scalar (serial, cold cache)",
                    "time_ms": scalar_seconds * 1e3,
                    "points": scalar_result.feasible,
                    "us_per_eval": scalar_seconds / grid * 1e6,
                    "speedup": 1.0,
                },
                {
                    "path": "vectorized (numpy batch)",
                    "time_ms": vectorized_seconds * 1e3,
                    "points": vectorized_result.feasible,
                    "us_per_eval": vectorized_seconds / grid * 1e6,
                    "speedup": speedup,
                },
            ],
            precision=2,
        ),
    )

    assert [pickle.dumps(point) for point in vectorized_result.points] == [
        pickle.dumps(point) for point in scalar_result.points
    ], "vectorized engine must reproduce the scalar path bit-for-bit"

    if not FAST or os.environ.get("REPRO_BENCH_RECORD"):
        path = record_trend(
            {
                "benchmark": "dse_vectorized",
                "mode": "fast" if FAST else "full",
                "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
                "networks": list(NETWORK_NAMES),
                "devices": list(DEVICE_NAMES),
                "grid": grid,
                "feasible_points": vectorized_result.feasible,
                "scalar_seconds": round(scalar_seconds, 6),
                "vectorized_seconds": round(vectorized_seconds, 6),
                "speedup": round(speedup, 2),
                "python": platform.python_version(),
                "platform": platform.platform(),
            },
            default_path=DEFAULT_RECORD_PATH,
            env_var="REPRO_BENCH_RECORD",
        )
        print(f"trend record appended to {path}")

    if MIN_SPEEDUP is not None:
        assert speedup >= MIN_SPEEDUP, (
            f"vectorized {vectorized_seconds * 1e3:.1f} ms vs scalar "
            f"{scalar_seconds * 1e3:.1f} ms — only {speedup:.2f}x "
            f"(need >= {MIN_SPEEDUP}x)"
        )


def test_vectorized_matches_serial_without_cache():
    """Equality must not depend on cache state: uncached serial vs batch."""
    spec = SweepSpec(
        m_values=(2, 4, 6),
        multiplier_budgets=(300, 900, None),
        frequencies_mhz=(100.0, 250.0),
        shared_data_transform=(True, False),
    )
    experiment = ExperimentSpec(
        networks=("vgg16-d", "alexnet"), devices=DEVICE_NAMES, sweeps=(spec,)
    )
    serial = run_experiment(experiment, cache=False, executor=ExecutorConfig(mode="serial"))
    vectorized = run_experiment(
        experiment, cache=False, executor=ExecutorConfig(mode="vectorized")
    )
    assert [pickle.dumps(point) for point in serial.points] == [
        pickle.dumps(point) for point in vectorized.points
    ]
