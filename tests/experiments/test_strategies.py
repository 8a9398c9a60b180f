"""Search strategies: registry, grid equivalence, seeded-bound properties."""

import random

import pytest

from repro.core.design_space import SweepSpec
from repro.dse import EvaluationCache
from repro.experiments import (
    ExperimentSpec,
    GridStrategy,
    ParetoRefineStrategy,
    RandomStrategy,
    SearchStrategy,
    StrategySpec,
    get_strategy,
    known_strategies,
    register_strategy,
    resolve_strategy,
    run_experiment,
)
from repro.experiments.strategies import STRATEGIES

SWEEP = SweepSpec(
    m_values=(2, 3, 4, 5),
    multiplier_budgets=(256, 512),
    frequencies_mhz=(150.0, 200.0, 250.0),
)

SPEC = ExperimentSpec(
    name="strategies-unit",
    networks=("vgg16-d", "alexnet"),
    devices=("xc7vx485t",),
    sweeps=(SWEEP,),
)


def _entry_key(point):
    return (point.m, point.r, point.frequency_mhz, point.shared_data_transform)


class TestRegistry:
    def test_builtins_known(self):
        assert {"grid", "random", "pareto-refine"} <= set(known_strategies())

    def test_get_strategy_with_params(self):
        strategy = get_strategy("random", samples=5, seed=1)
        assert strategy == RandomStrategy(samples=5, seed=1)
        with pytest.raises(KeyError, match="unknown strategy"):
            get_strategy("simulated-annealing")
        with pytest.raises(ValueError, match="invalid parameters"):
            get_strategy("random", temperature=3.5)

    def test_resolve_strategy_forms(self):
        assert resolve_strategy("grid") == GridStrategy()
        assert resolve_strategy(StrategySpec("random", {"samples": 3})) == RandomStrategy(samples=3)
        concrete = ParetoRefineStrategy(coarse=3)
        assert resolve_strategy(concrete) is concrete
        with pytest.raises(TypeError):
            resolve_strategy(42)

    def test_register_guard_and_custom_strategy(self):
        class FirstTwoStrategy:
            def search(self, spec, evaluate):
                for entry in evaluate.grid_entries()[:2]:
                    point = evaluate(evaluate.networks[0], evaluate.devices[0], entry)
                    if point is not None:
                        yield point

        register_strategy("first-two-test", FirstTwoStrategy)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_strategy("first-two-test", FirstTwoStrategy)
            register_strategy("first-two-test", FirstTwoStrategy, overwrite=True)
            assert isinstance(FirstTwoStrategy(), SearchStrategy)
            result = run_experiment(
                SPEC.with_strategy("first-two-test"), cache=EvaluationCache()
            )
            assert result.evaluations == 2
        finally:
            STRATEGIES.pop("first-two-test")
        with pytest.raises(TypeError):
            register_strategy("bad", 42)

    def test_invalid_strategy_params_raise(self):
        with pytest.raises(ValueError):
            RandomStrategy(samples=0)
        with pytest.raises(ValueError):
            ParetoRefineStrategy(coarse=0)
        with pytest.raises(ValueError):
            ParetoRefineStrategy(neighborhood=-1)


class TestGridEquivalence:
    def test_grid_strategy_counts_cache_stats(self):
        cache = EvaluationCache()
        first = run_experiment(SPEC, cache=cache)
        second = run_experiment(SPEC, cache=cache)
        assert first.cache_stats.misses > 0
        assert second.cache_stats.misses == 0
        assert second.cache_stats.hits == second.evaluations


class TestSeededStrategies:
    @pytest.mark.parametrize("seed", [0, 7, 2019])
    def test_random_points_are_grid_entries_within_bounds(self, seed):
        result = run_experiment(
            SPEC.with_strategy("random", samples=6, seed=seed), cache=EvaluationCache()
        )
        assert result.evaluations == 6 * len(SPEC.networks) * len(SPEC.devices)
        entries = {
            (entry.m, entry.r, entry.frequency_mhz, entry.shared_data_transform)
            for entry in SWEEP.configurations()
        }
        for point in result.points:
            assert _entry_key(point) in entries
            assert point.m in SWEEP.m_values
            assert point.frequency_mhz in SWEEP.frequencies_mhz

    def test_random_is_deterministic_per_seed(self):
        spec = SPEC.with_strategy("random", samples=6, seed=11)
        first = run_experiment(spec, cache=EvaluationCache())
        second = run_experiment(spec, cache=EvaluationCache())
        assert first.points == second.points
        other = run_experiment(
            SPEC.with_strategy("random", samples=6, seed=12), cache=EvaluationCache()
        )
        assert [_entry_key(p) for p in other.points] != [
            _entry_key(p) for p in first.points
        ]

    def test_random_larger_than_grid_degenerates_to_grid(self):
        sampled = run_experiment(
            SPEC.with_strategy("random", samples=10_000), cache=EvaluationCache()
        )
        grid = run_experiment(SPEC, cache=EvaluationCache())
        assert sampled.points == grid.points

    @pytest.mark.parametrize("seed", [3, 41])
    def test_pareto_refine_points_are_grid_entries(self, seed):
        rng = random.Random(seed)
        sweep = SweepSpec(
            m_values=tuple(sorted(rng.sample(range(2, 8), 3))),
            multiplier_budgets=tuple(sorted(rng.sample((128, 256, 384, 512, 1024), 2))),
            frequencies_mhz=tuple(float(f) for f in sorted(rng.sample(range(100, 350, 25), 3))),
        )
        spec = ExperimentSpec(
            networks=("alexnet",),
            sweeps=(sweep,),
            strategy=StrategySpec("pareto-refine", {"coarse": 2, "neighborhood": 1}),
        )
        result = run_experiment(spec, cache=EvaluationCache())
        assert 0 < result.evaluations <= spec.grid_size
        entries = {
            (entry.m, entry.r, entry.frequency_mhz, entry.shared_data_transform)
            for entry in sweep.configurations()
        }
        for point in result.points:
            assert _entry_key(point) in entries

    def test_pareto_refine_front_matches_grid_front(self):
        grid = run_experiment(SPEC, cache=EvaluationCache())
        refined = run_experiment(
            SPEC.with_strategy("pareto-refine", coarse=2, neighborhood=1),
            cache=EvaluationCache(),
        )
        assert refined.evaluations <= grid.evaluations
        grid_fronts = grid.pareto_fronts()
        refined_fronts = refined.pareto_fronts()
        for network, front in grid_fronts.items():
            assert {_entry_key(p) for p in front} == {
                _entry_key(p) for p in refined_fronts[network]
            }

    def test_pareto_refine_with_coarse_one_covers_the_grid(self):
        refined = run_experiment(
            SPEC.with_strategy("pareto-refine", coarse=1), cache=EvaluationCache()
        )
        grid = run_experiment(SPEC, cache=EvaluationCache())
        assert refined.evaluations == grid.evaluations
        assert sorted(p.name for p in refined.points) == sorted(p.name for p in grid.points)
