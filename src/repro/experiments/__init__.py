"""Declarative experiments: specs, pluggable search strategies, persistence.

This subsystem makes an exploration *experiment* a first-class artifact,
separate from the solver that executes it:

* :mod:`repro.experiments.spec` — :class:`ExperimentSpec`, the frozen,
  validated, fully declarative description of an experiment (networks and
  devices by registry name, sweep grids, strategy, objectives/metrics,
  calibration, executor/cache settings) with a lossless JSON round-trip;
* :mod:`repro.experiments.strategies` — the :class:`SearchStrategy`
  protocol and the built-in solvers: exhaustive :class:`GridStrategy`
  (byte-identical across executor modes), seeded
  :class:`RandomStrategy` subsampling, and :class:`ParetoRefineStrategy`
  (coarse pass + front-neighbourhood refinement — near-identical Pareto
  fronts for materially fewer evaluations);
* :mod:`repro.experiments.runner` — :func:`run_experiment` and the
  :class:`Evaluator` strategies probe through (caching, feasibility,
  executors, bookkeeping);
* :mod:`repro.experiments.persistence` — versioned JSON save/load of
  evaluated results with the spec embedded (``CampaignResult.save`` /
  ``load``), enabling resume and re-analysis without re-evaluation;
* :mod:`repro.experiments.cli` — the ``python -m repro`` command line
  (``run`` / ``report`` / ``list``).

Quickstart — describe, run, persist, reload:

>>> from repro.experiments import ExperimentSpec, run_experiment
>>> spec = ExperimentSpec(
...     networks=("vgg16-d", "alexnet"),
...     devices=("xc7vx485t",),
...     strategy="pareto-refine",
... )
>>> result = run_experiment(spec)
>>> saved = result.save("result.json")            # doctest: +SKIP
>>> fronts = result.pareto_fronts()
"""

from .persistence import (
    RESULT_SCHEMA,
    load_result,
    point_from_dict,
    point_to_dict,
    result_from_dict,
    result_to_dict,
    save_result,
)
from .runner import Evaluator, run_experiment
from .spec import EXPERIMENT_SCHEMA, ExperimentSpec, StrategySpec
from .strategies import (
    STRATEGIES,
    GridStrategy,
    ParetoRefineStrategy,
    RandomStrategy,
    SearchStrategy,
    get_strategy,
    known_strategies,
    register_strategy,
    resolve_strategy,
)

__all__ = [
    "EXPERIMENT_SCHEMA",
    "RESULT_SCHEMA",
    "ExperimentSpec",
    "StrategySpec",
    "SearchStrategy",
    "GridStrategy",
    "RandomStrategy",
    "ParetoRefineStrategy",
    "STRATEGIES",
    "register_strategy",
    "known_strategies",
    "get_strategy",
    "resolve_strategy",
    "Evaluator",
    "run_experiment",
    "point_to_dict",
    "point_from_dict",
    "result_to_dict",
    "result_from_dict",
    "save_result",
    "load_result",
]
