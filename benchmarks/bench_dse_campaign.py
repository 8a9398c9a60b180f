"""Campaign engine benchmark — cached DSE vs the seed nested loop.

Runs the same 3-network x 2-device x (m, budget, frequency) campaign two
ways:

* the *seed loop*: the original scalar 4-deep nested loop, one
  ``evaluate_design`` call per configuration, recomputing the ``(m, r)``
  transform/complexity work for every budget x frequency combination;
* the *campaign engine*: ``repro.dse`` with a fresh
  :class:`~repro.dse.EvaluationCache` on the serial executor — the
  measured speedup is therefore pure memoisation, with no parallelism
  credit.

Asserts the engine returns exactly the seed loop's points at >= 3x the
speed, and (separately) that the serial and vectorized executors produce
byte-identical design points.  Set
``REPRO_BENCH_FAST=1`` to shrink the grid for smoke runs; smoke mode skips
the wall-clock assertion.
"""

import os
import pickle
import time

from conftest import emit

from repro.core.design_point import evaluate_design
from repro.core.design_space import SweepSpec, frequency_range
from repro.hw.calibration import DEFAULT_CALIBRATION
from repro.dse import EvaluationCache, ExecutorConfig, iter_explore
from repro.experiments import ExperimentSpec, run_experiment
from repro.hw.device import get_device
from repro.nn import get_network
from repro.reporting import campaign_summary_table, format_table

FAST = os.environ.get("REPRO_BENCH_FAST") == "1"

NETWORK_NAMES = ("vgg16-d", "alexnet", "resnet18")
DEVICE_NAMES = ("xc7vx485t", "xc7vx690t")

if FAST:
    SPEC = SweepSpec(
        m_values=(2, 3, 4),
        multiplier_budgets=(256, 512),
        frequencies_mhz=(200.0,),
    )
    # Smoke mode runs inside the default test suite, possibly on loaded CI
    # machines: execute both paths and check equivalence, but skip the
    # wall-clock ratio assertion (tiny grids amortise little anyway).
    MIN_SPEEDUP = None
else:
    SPEC = SweepSpec(
        m_values=(2, 3, 4, 5, 6),
        multiplier_budgets=(256, 512, 1024),
        frequencies_mhz=frequency_range(150.0, 250.0, 50.0),
    )
    MIN_SPEEDUP = 3.0


def _seed_nested_loop(networks, devices, spec):
    """The pre-``repro.dse`` exploration: uncached scalar nested loops."""
    points = []
    for network in networks:
        for device in devices:
            for m in spec.m_values:
                for budget in spec.multiplier_budgets:
                    for frequency in spec.frequencies_mhz:
                        for shared in spec.shared_data_transform:
                            try:
                                point = evaluate_design(
                                    network,
                                    m=m,
                                    r=spec.r,
                                    multiplier_budget=budget,
                                    frequency_mhz=frequency,
                                    shared_data_transform=shared,
                                    device=device,
                                    calibration=DEFAULT_CALIBRATION,
                                )
                            except ValueError:
                                continue
                            if not point.resources.fits(device):
                                continue
                            points.append(point)
    return points


def test_campaign_speedup_over_seed_loop(benchmark):
    networks = [get_network(name) for name in NETWORK_NAMES]
    devices = [get_device(name) for name in DEVICE_NAMES]

    started = time.perf_counter()
    seed_points = _seed_nested_loop(networks, devices, SPEC)
    seed_seconds = time.perf_counter() - started

    spec = ExperimentSpec(networks=NETWORK_NAMES, devices=DEVICE_NAMES, sweeps=(SPEC,))
    cache = EvaluationCache()

    started = time.perf_counter()
    result = run_experiment(spec, cache=cache)
    engine_seconds = time.perf_counter() - started
    speedup = seed_seconds / engine_seconds

    # Steady-state: re-running the campaign against the now-warm cache.
    warm_result = benchmark(lambda: run_experiment(spec, cache=cache))

    emit(
        "DSE campaign engine vs seed nested loop "
        f"({len(networks)} networks x {len(devices)} devices, {spec.grid_size} configs)",
        format_table(
            [
                {
                    "path": "seed nested loop",
                    "time_ms": seed_seconds * 1e3,
                    "points": len(seed_points),
                    "speedup": 1.0,
                },
                {
                    "path": "campaign engine (cold cache)",
                    "time_ms": engine_seconds * 1e3,
                    "points": result.feasible,
                    "speedup": speedup,
                },
                {
                    "path": "campaign engine (warm cache)",
                    "time_ms": warm_result.elapsed_seconds * 1e3,
                    "points": warm_result.feasible,
                    "speedup": seed_seconds / warm_result.elapsed_seconds,
                },
            ],
            precision=2,
        )
        + "\n\n"
        + campaign_summary_table(result),
    )

    assert result.points == seed_points, "campaign engine must reproduce the seed loop exactly"
    assert warm_result.points == seed_points
    if MIN_SPEEDUP is not None:
        assert speedup >= MIN_SPEEDUP, (
            f"campaign engine {engine_seconds * 1e3:.1f} ms vs seed "
            f"{seed_seconds * 1e3:.1f} ms — only {speedup:.2f}x (need >= {MIN_SPEEDUP}x)"
        )


def test_serial_and_vectorized_paths_byte_identical():
    serial = list(
        iter_explore(
            NETWORK_NAMES,
            SPEC,
            devices=DEVICE_NAMES,
            cache=EvaluationCache(),
            executor=ExecutorConfig(mode="serial"),
        )
    )
    vectorized = list(
        iter_explore(
            NETWORK_NAMES,
            SPEC,
            devices=DEVICE_NAMES,
            cache=False,
            executor=ExecutorConfig(mode="vectorized"),
        )
    )
    assert len(serial) == len(vectorized)
    assert [pickle.dumps(a) for a in serial] == [pickle.dumps(b) for b in vectorized]
