"""Property-based invariants for Pareto analysis, best-by and the DSE engine.

Uses seeded ``random.Random`` generators (no extra dependencies) to sample
synthetic design-point populations — including deliberate metric ties — and
checks the structural properties the campaign engine's aggregation relies
on:

* ``pareto_front`` returns a subset of its input containing only mutually
  non-dominated points, every excluded point is dominated by a front member,
  and the front is invariant under input permutation;
* ``best_by`` agrees with the single-objective Pareto front;
* cached vs uncached ``explore`` return identical (byte-identical) design
  points (serial vs vectorized identity lives in ``test_vectorized.py``).
"""

import pickle
import random

import pytest

from repro.core.design_point import DesignPoint
from repro.core.design_space import SweepSpec, best_by, explore
from repro.core.pareto import dominates, pareto_front
from repro.core.throughput import LatencyReport
from repro.dse import EvaluationCache
from repro.hw.resources import ResourceEstimate


def make_point(
    name: str,
    throughput_gops: float = 100.0,
    power_efficiency: float = 10.0,
    total_latency_ms: float = 10.0,
    multiplier_efficiency: float = 1.0,
) -> DesignPoint:
    """A synthetic design point with directly controlled metrics."""
    latency = LatencyReport(
        m=2,
        r=3,
        parallel_pes=4,
        frequency_mhz=200.0,
        pipeline_depth=0,
        group_latency_ms={"Conv1": total_latency_ms},
        total_latency_ms=total_latency_ms,
        spatial_ops=10**9,
    )
    return DesignPoint(
        name=name,
        m=2,
        r=3,
        parallel_pes=4,
        multipliers=64,
        frequency_mhz=200.0,
        shared_data_transform=True,
        device_name="synthetic",
        precision="float32",
        latency=latency,
        throughput_gops=throughput_gops,
        multiplier_efficiency=multiplier_efficiency,
        resources=ResourceEstimate(),
        power_watts=throughput_gops / power_efficiency,
        power_efficiency=power_efficiency,
        spatial_multiplications=1.0,
        winograd_multiplications=1.0,
        implementation_transform_ops=1.0,
    )


def random_population(rng: random.Random, size: int):
    """Random points whose metrics are drawn from small value sets, so ties
    and duplicated metric pairs occur with high probability."""
    throughputs = [rng.choice((50.0, 100.0, 200.0, 400.0)) for _ in range(size)]
    efficiencies = [rng.choice((5.0, 10.0, 20.0, 40.0)) for _ in range(size)]
    return [
        make_point(
            f"p{index}",
            throughput_gops=throughputs[index],
            power_efficiency=efficiencies[index],
            total_latency_ms=rng.choice((5.0, 10.0, 20.0)),
        )
        for index in range(size)
    ]


OBJECTIVES = (("throughput_gops", True), ("power_efficiency", True))


class TestParetoFrontProperties:
    @pytest.mark.parametrize("seed", range(12))
    def test_front_is_subset_only_nondominated_and_order_invariant(self, seed):
        rng = random.Random(seed)
        points = random_population(rng, rng.randint(1, 24))
        front = pareto_front(points, OBJECTIVES)

        assert front, "a finite non-empty population always has a Pareto front"

        # Subset of the input, in input order.
        input_ids = [id(point) for point in points]
        front_ids = [id(point) for point in front]
        assert set(front_ids) <= set(input_ids)
        assert front_ids == sorted(front_ids, key=input_ids.index)

        # Mutually non-dominated.
        for a in front:
            for b in front:
                if a is not b:
                    assert not dominates(a, b, OBJECTIVES)

        # Every excluded point is dominated by some front member.
        excluded = [point for point in points if id(point) not in set(front_ids)]
        for point in excluded:
            assert any(dominates(winner, point, OBJECTIVES) for winner in front)

        # Order invariance: shuffling the input does not change the front.
        shuffled = points[:]
        rng.shuffle(shuffled)
        assert {point.name for point in pareto_front(shuffled, OBJECTIVES)} == {
            point.name for point in front
        }

    @pytest.mark.parametrize("seed", range(6))
    def test_single_objective_front_is_the_max_set(self, seed):
        rng = random.Random(1000 + seed)
        points = random_population(rng, rng.randint(1, 20))
        front = pareto_front(points, [("throughput_gops", True)])
        maximum = max(point.throughput_gops for point in points)
        assert {point.name for point in front} == {
            point.name for point in points if point.throughput_gops == maximum
        }


class TestBestByAgreesWithPareto:
    @pytest.mark.parametrize("seed", range(8))
    def test_maximization(self, seed):
        rng = random.Random(2000 + seed)
        points = random_population(rng, rng.randint(1, 20))
        best = best_by(points, "throughput_gops")
        front = pareto_front(points, [("throughput_gops", True)])
        assert any(best is member for member in front)
        assert best.throughput_gops == max(point.throughput_gops for point in points)
        # Deterministic tie-break: the first point attaining the maximum.
        first = next(
            point for point in points if point.throughput_gops == best.throughput_gops
        )
        assert best is first

    @pytest.mark.parametrize("seed", range(8))
    def test_minimization(self, seed):
        rng = random.Random(3000 + seed)
        points = random_population(rng, rng.randint(1, 20))
        best = best_by(points, "total_latency_ms", maximize=False)
        front = pareto_front(points, [("total_latency_ms", False)])
        assert any(best is member for member in front)
        assert best.total_latency_ms == min(point.total_latency_ms for point in points)


class TestExploreEquivalence:
    SPEC = SweepSpec(
        m_values=(2, 3, 4),
        multiplier_budgets=(64, 128, 256),
        frequencies_mhz=(150.0, 200.0),
    )

    def test_cached_identical_to_uncached(self, tiny_network):
        cached = explore(tiny_network, self.SPEC, cache=EvaluationCache())
        uncached = explore(tiny_network, self.SPEC, cache=False)
        assert cached == uncached
        assert [pickle.dumps(point) for point in cached] == [
            pickle.dumps(point) for point in uncached
        ]

    def test_cache_reuse_identical_across_runs(self, tiny_network):
        cache = EvaluationCache()
        first = explore(tiny_network, self.SPEC, cache=cache)
        second = explore(tiny_network, self.SPEC, cache=cache)
        assert first == second
        assert cache.stats["points"].hits >= len(first)
