"""The vectorized batch engine must be bit-identical to the serial path.

``ExecutorConfig(mode="vectorized")`` promises *exactly* the serial
results — same floats, same ordering, same skips, same errors on the same
entries — so these tests compare pickled bytes rather than approximate
values: a single ULP of drift anywhere in the latency, power or complexity
math fails the suite.  Coverage spans seeded random sweeps, the edge grids
called out in the issue (single-point grids, explicit ``r_values=()``,
degenerate frequency ranges) and the ``"auto"`` executor's mode selection.
"""

import pickle
import random

import pytest

from repro.core.design_point import evaluate_design
from repro.core.design_space import GridEntry, SweepSpec, frequency_range
from repro.dse import (
    EvaluationCache,
    ExecutorConfig,
    evaluate_cell_batch,
    iter_explore,
)
from repro.dse.engine import MIN_GRID_FOR_VECTORIZED
from repro.hw.calibration import DEFAULT_CALIBRATION
from repro.hw.device import get_device
from repro.nn import get_network

NETWORKS = ("vgg16-d", "alexnet", "resnet18")
DEVICES = ("xc7vx485t", "xc7vx690t")

SERIAL = ExecutorConfig(mode="serial")
VECTORIZED = ExecutorConfig(mode="vectorized")


def run_mode(executor, networks, spec, devices, skip_infeasible=True):
    """(pickled points, error repr) of one iter_explore run."""
    blobs = []
    try:
        for point in iter_explore(
            networks,
            spec,
            devices=devices,
            skip_infeasible=skip_infeasible,
            cache=False,
            executor=executor,
        ):
            blobs.append(pickle.dumps(point))
    except (ValueError, ZeroDivisionError) as error:
        return blobs, (type(error).__name__, str(error))
    return blobs, None


def assert_modes_identical(networks, spec, devices, skip_infeasible=True):
    serial = run_mode(SERIAL, networks, spec, devices, skip_infeasible)
    vectorized = run_mode(VECTORIZED, networks, spec, devices, skip_infeasible)
    assert serial[1] == vectorized[1], "paths must fail identically"
    assert serial[0] == vectorized[0], "points must be bit-identical and same-order"
    return len(serial[0])


class TestSeededRandomSweeps:
    def random_spec(self, rng: random.Random) -> SweepSpec:
        m_values = tuple(rng.sample(range(1, 8), rng.randint(1, 3)))
        budgets = tuple(
            rng.sample([None, 4, 16, 64, 144, 256, 400, 576, 1024, 2048], rng.randint(1, 4))
        )
        frequencies = tuple(
            float(rng.choice((50, 100, 150, 200, 250, 300))) for _ in range(rng.randint(1, 3))
        )
        shared = tuple(rng.sample((True, False), rng.randint(1, 2)))
        return SweepSpec(
            m_values=m_values,
            multiplier_budgets=budgets,
            frequencies_mhz=frequencies,
            shared_data_transform=shared,
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_random_sweep_bit_identical(self, seed):
        rng = random.Random(2019 + seed)
        spec = self.random_spec(rng)
        networks = rng.sample(NETWORKS, rng.randint(1, 2))
        devices = rng.sample(DEVICES, rng.randint(1, 2))
        skip = rng.random() < 0.7
        assert_modes_identical(networks, spec, devices, skip_infeasible=skip)

    def test_fig6_scale_sweep_bit_identical(self):
        spec = SweepSpec(
            m_values=(2, 3, 4, 5, 6),
            multiplier_budgets=(100, 400, 900, 1600, None),
            frequencies_mhz=frequency_range(100.0, 300.0, 100.0),
            shared_data_transform=(True, False),
        )
        produced = assert_modes_identical(NETWORKS, spec, DEVICES)
        assert produced > 100  # the sweep must actually exercise the table


class TestEdgeGrids:
    def test_single_point_grid(self):
        spec = SweepSpec(m_values=(4,), multiplier_budgets=(512,), frequencies_mhz=(200.0,))
        produced = assert_modes_identical("alexnet", spec, "xc7vx485t")
        assert produced == 1

    def test_explicit_empty_r_values_sweeps_nothing(self):
        spec = SweepSpec(r_values=())
        assert spec.size == 0
        produced = assert_modes_identical("vgg16-d", spec, None)
        assert produced == 0

    def test_r_values_sweep(self):
        spec = SweepSpec(
            m_values=(2, 3, 4), r_values=(2, 3), multiplier_budgets=(256, None)
        )
        assert_modes_identical(("vgg16-d", "alexnet"), spec, DEVICES)

    def test_infeasible_budget_raises_identically_mid_stream(self):
        spec = SweepSpec(
            m_values=(2, 6), multiplier_budgets=(256, 4), frequencies_mhz=(200.0,)
        )
        serial = run_mode(SERIAL, "vgg16-d", spec, "xc7vx485t", skip_infeasible=False)
        vectorized = run_mode(VECTORIZED, "vgg16-d", spec, "xc7vx485t", skip_infeasible=False)
        assert serial[1] == ("ValueError", "multiplier budget 4 cannot host one F(2,3) PE")
        assert vectorized == serial  # same prefix of yielded points, same error

    def test_device_too_small_raises_identically(self):
        spec = SweepSpec(m_values=(40,), multiplier_budgets=(None,))
        serial = run_mode(SERIAL, "alexnet", spec, "xc7vx485t", skip_infeasible=False)
        vectorized = run_mode(VECTORIZED, "alexnet", spec, "xc7vx485t", skip_infeasible=False)
        assert serial == vectorized
        assert "cannot host a single F(40x40, 3x3) PE" in serial[1][1]

    def test_infeasible_entries_skipped_identically(self):
        spec = SweepSpec(m_values=(2, 6, 40), multiplier_budgets=(4, 256, None))
        assert_modes_identical("vgg16-d", spec, DEVICES, skip_infeasible=True)

    @pytest.mark.parametrize("bad", (float("nan"), float("inf"), 0.0, -50.0))
    def test_degenerate_frequencies_rejected_identically(self, bad):
        # Degenerate frequency axes are rejected by SweepSpec validation —
        # before either executor can run, so both modes fail identically.
        with pytest.raises(ValueError):
            SweepSpec(frequencies_mhz=(bad,))
        with pytest.raises(ValueError):
            frequency_range(100.0, bad)

    def test_handmade_degenerate_entries_match_scalar(self):
        """Entries bypassing SweepSpec validation still mirror the scalar path."""
        network = get_network("alexnet")
        device = get_device("xc7vx485t")
        entries = [
            GridEntry(4, 3, 512, float("nan"), True),  # NaN propagates, like serial
            GridEntry(4, 3, 512, 0.0, True),  # "frequency must be positive"
            GridEntry(2, 3, 4, 200.0, True),  # budget too small
            GridEntry(4, 3, 800, 250.0, True),  # feasible
        ]
        scalar = []
        for entry in entries:
            try:
                point = evaluate_design(
                    network,
                    m=entry.m,
                    r=entry.r,
                    multiplier_budget=entry.multiplier_budget,
                    frequency_mhz=entry.frequency_mhz,
                    shared_data_transform=entry.shared_data_transform,
                    device=device,
                    calibration=DEFAULT_CALIBRATION,
                )
            except ValueError:
                scalar.append(None)
                continue
            scalar.append(point if point.resources.fits(device) else None)
        batch = evaluate_cell_batch(network, device, DEFAULT_CALIBRATION, entries)
        assert batch.pending_error is None
        assert len(batch.points) == len(scalar)
        for scalar_point, batch_point in zip(scalar, batch.points):
            assert (scalar_point is None) == (batch_point is None)
            if scalar_point is not None:
                assert pickle.dumps(scalar_point) == pickle.dumps(batch_point)


class TestBatchModelTwins:
    """The standalone batch twins must track their scalar counterparts."""

    def test_batch_max_parallel_pes_matches_scalar(self):
        from repro.hw.engine import batch_max_parallel_pes, max_parallel_pes

        budgets = list(range(0, 3000, 97))
        for m in (1, 2, 4, 7):
            batch = batch_max_parallel_pes(m, 3, budgets).tolist()
            assert batch == [max_parallel_pes(m, 3, budget) for budget in budgets]
        with pytest.raises(ValueError):
            batch_max_parallel_pes(2, 3, [256, -1])

    def test_batch_estimate_fmax_matches_scalar(self):
        from repro.hw.frequency import batch_estimate_fmax, estimate_fmax

        levels = list(range(-1, 20))
        batch = batch_estimate_fmax(levels).tolist()
        assert batch == [estimate_fmax(level).fmax_mhz for level in levels]


class TestAutoModeSelection:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            ExecutorConfig(mode="gpu")

    def test_forced_modes_win(self):
        assert ExecutorConfig(mode="serial").choose_mode(10**6) == "serial"
        assert ExecutorConfig(mode="vectorized").choose_mode(1) == "vectorized"
        # A forced mode also wins over the explicit-cache preference.
        vectorized = ExecutorConfig(mode="vectorized")
        assert vectorized.choose_mode(1, explicit_cache=True) == "vectorized"
        with pytest.raises(ValueError, match="unknown executor mode"):
            ExecutorConfig(mode="process")

    def test_auto_picks_vectorized_for_large_grids(self):
        config = ExecutorConfig(mode="auto")
        assert config.choose_mode(MIN_GRID_FOR_VECTORIZED) == "vectorized"
        assert config.choose_mode(10**6) == "vectorized"

    def test_auto_stays_serial_below_thresholds(self):
        config = ExecutorConfig(mode="auto")
        for total in (0, 1, MIN_GRID_FOR_VECTORIZED - 1):
            assert config.choose_mode(total) == "serial"

    def test_auto_prefers_serial_for_explicit_cache(self):
        config = ExecutorConfig(mode="auto")
        assert config.choose_mode(10**6, explicit_cache=True) == "serial"
        # ...and the cache really does serve the evaluation.
        cache = EvaluationCache()
        spec = SweepSpec(
            m_values=(2, 3, 4),
            multiplier_budgets=(256, 512, 1024, 2048),
            frequencies_mhz=(150.0, 200.0, 250.0),
        )
        assert spec.size >= MIN_GRID_FOR_VECTORIZED
        points = list(iter_explore("alexnet", spec, cache=cache, executor=config))
        assert points
        assert cache.stats["points"].misses == spec.size

    def test_auto_routes_through_batch_engine(self, monkeypatch):
        import repro.dse.vectorized as vectorized_mod

        calls = []
        original = vectorized_mod.evaluate_cell_batch

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(vectorized_mod, "evaluate_cell_batch", spy)
        spec = SweepSpec(
            m_values=(2, 3, 4),
            multiplier_budgets=(256, 512, 1024, 2048),
            frequencies_mhz=(150.0, 200.0, 250.0),
        )
        assert spec.size >= MIN_GRID_FOR_VECTORIZED
        vectorized = list(
            iter_explore("alexnet", spec, cache=False, executor=ExecutorConfig(mode="auto"))
        )
        assert len(calls) == 1  # one (network, device) cell
        serial = list(iter_explore("alexnet", spec, cache=False, executor=SERIAL))
        assert [pickle.dumps(p) for p in vectorized] == [pickle.dumps(p) for p in serial]

    def test_executor_round_trips_through_spec_serialization(self):
        from repro.experiments.spec import executor_from_dict, executor_to_dict

        for mode in ("auto", "serial", "vectorized"):
            config = ExecutorConfig(mode=mode)
            assert executor_to_dict(config) == {"mode": mode}
            assert executor_from_dict(executor_to_dict(config)) == config
        # Mappings earlier versions wrote still load: the retired sizing
        # and threshold fields are dropped, "process" reads as "auto".
        legacy = {
            "mode": "serial",
            "max_workers": None,
            "chunk_size": None,
            "min_grid_for_processes": 64,
        }
        assert executor_from_dict(legacy) == ExecutorConfig(mode="serial")
        assert executor_from_dict(
            {"mode": "process", "max_workers": 2, "min_grid_for_vectorized": 7}
        ) == ExecutorConfig(mode="auto")
        with pytest.raises(ValueError, match="unknown executor mode"):
            executor_from_dict({"mode": "gpu"})
        with pytest.raises(ValueError, match="invalid executor config"):
            executor_from_dict({"mode": "auto", "threads": 4})
