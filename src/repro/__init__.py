"""repro — Design space exploration and optimization of Winograd fast
convolution engines for CNNs on FPGAs.

A complete Python reproduction of Ahmad & Pasha, "Towards Design Space
Exploration and Optimization of Fast Algorithms for Convolutional Neural
Networks (CNNs) on FPGAs", DATE 2019.

Subpackages
-----------
``repro.winograd``
    Winograd minimal-filtering algorithms: exact transform generation,
    canonical matrices, tiled fast convolution, operator counting.
``repro.nn``
    CNN workload substrate: layer/network descriptors (VGG-16, AlexNet,
    ResNet), a named network registry, reference convolutions, functional
    forward passes.
``repro.hw``
    FPGA hardware models: devices, PE/engine resource estimation, power,
    frequency, buffers.
``repro.sim``
    Cycle-level behavioural simulator of the proposed engine.
``repro.core``
    The paper's contribution: complexity/throughput models (Eqs. 4-10),
    design-space exploration, Pareto/roofline analysis, proposed designs and
    comparison tables.
``repro.dse``
    Campaign-scale evaluation engine: a memoised evaluation layer, a
    serial oracle and a bit-identical vectorized NumPy batch executor, and
    ``CampaignResult`` aggregation (per-network Pareto fronts,
    best-by-metric picks, comparison tables).
``repro.experiments``
    The declarative experiment layer: ``ExperimentSpec`` (a frozen,
    JSON-round-trippable description of an exploration), pluggable
    ``SearchStrategy`` solvers (exhaustive grid, seeded random subsampling,
    Pareto-front refinement), result persistence
    (``CampaignResult.save``/``load``) and the ``python -m repro`` CLI.
``repro.baselines``
    Podili et al. [3], Qiu et al. [12] and spatial-convolution baselines,
    plus the paper's published table/figure values.
``repro.reporting``
    Text tables, CSV export, campaign summaries and ASCII figures used by
    the benchmark harness.

Quickstart
----------
>>> from repro import vgg16_d, proposed_designs
>>> designs = proposed_designs(vgg16_d())
>>> round(designs[-1].throughput_gops, 1)
1094.4

Experiment quickstart — experiments are declarative artifacts: describe
the search as data, pick a solver by name, run it, persist the result:

>>> from repro import ExperimentSpec, SweepSpec, frequency_range, run_experiment
>>> spec = ExperimentSpec(
...     networks=("vgg16-d", "alexnet", "resnet18"),
...     devices=("xc7vx485t", "xc7vx690t"),
...     sweeps=(SweepSpec(m_values=(2, 3, 4, 5, 6),
...                       multiplier_budgets=(512, 1024),
...                       frequencies_mhz=frequency_range(150, 250, 50)),),
...     strategy="pareto-refine",            # or "grid", "random", ...
... )
>>> spec == ExperimentSpec.from_dict(spec.to_dict())   # lossless artifact
True
>>> result = run_experiment(spec)
>>> fronts = result.pareto_fronts()          # per-network Pareto fronts
>>> best = result.best("power_efficiency")   # best-by-metric pick
>>> path = result.save("result.json")        # doctest: +SKIP

The same spec runs from a file via the CLI: ``python -m repro run
spec.json -o result.json`` (see ``python -m repro --help``).
"""

from .core import (
    DesignPoint,
    GridEntry,
    HeadlineClaims,
    SweepSpec,
    best_by,
    complexity_breakdown,
    evaluate_design,
    explore,
    frequency_range,
    headline_claims,
    ideal_throughput_gops,
    multiplication_complexity,
    network_latency,
    optimize,
    pareto_front,
    performance_table,
    proposed_designs,
    resource_table,
    roofline_report,
    sweep_multiplier_budgets,
    sweep_tile_sizes,
    transform_complexity,
)
from .dse import (
    CampaignResult,
    EvaluationCache,
    ExecutorConfig,
    evaluate_design_cached,
    iter_explore,
)
from .experiments import (
    ExperimentSpec,
    GridStrategy,
    ParetoRefineStrategy,
    RandomStrategy,
    SearchStrategy,
    StrategySpec,
    get_strategy,
    known_strategies,
    load_result,
    register_strategy,
    run_experiment,
)
from .hw import (
    EngineConfig,
    FpgaDevice,
    PowerModel,
    build_engine,
    get_device,
    known_devices,
    register_device,
    virtex7_485t,
)
from .nn import (
    Network,
    alexnet,
    get_network,
    known_networks,
    register_network,
    resnet18,
    vgg,
    vgg16_d,
)
from .sim import EngineSimConfig, WinogradEngineSim
from .winograd import WinogradConv2D, get_transform, winograd_conv2d

__version__ = "1.2.0"

__all__ = [
    "__version__",
    # winograd
    "get_transform",
    "WinogradConv2D",
    "winograd_conv2d",
    # nn
    "Network",
    "vgg",
    "vgg16_d",
    "alexnet",
    "resnet18",
    "get_network",
    "known_networks",
    "register_network",
    # hw
    "FpgaDevice",
    "virtex7_485t",
    "get_device",
    "known_devices",
    "register_device",
    "EngineConfig",
    "build_engine",
    "PowerModel",
    # sim
    "EngineSimConfig",
    "WinogradEngineSim",
    # core
    "multiplication_complexity",
    "transform_complexity",
    "complexity_breakdown",
    "network_latency",
    "ideal_throughput_gops",
    "DesignPoint",
    "evaluate_design",
    "SweepSpec",
    "GridEntry",
    "frequency_range",
    "explore",
    "sweep_tile_sizes",
    "sweep_multiplier_budgets",
    "best_by",
    "pareto_front",
    "roofline_report",
    "optimize",
    "proposed_designs",
    "performance_table",
    "resource_table",
    "headline_claims",
    "HeadlineClaims",
    # dse
    "CampaignResult",
    "EvaluationCache",
    "ExecutorConfig",
    "evaluate_design_cached",
    "iter_explore",
    # experiments
    "ExperimentSpec",
    "StrategySpec",
    "SearchStrategy",
    "GridStrategy",
    "RandomStrategy",
    "ParetoRefineStrategy",
    "register_strategy",
    "known_strategies",
    "get_strategy",
    "run_experiment",
    "load_result",
]
