"""Campaign-scale design-space exploration: caching, batching, aggregation.

The seed :func:`repro.core.explore` evaluated one network on one device with
a scalar nested loop, recomputing identical ``(m, r)`` transform and
complexity work for every budget x frequency combination.  This subsystem
turns that into a campaign engine:

* :mod:`repro.dse.cache` — :class:`EvaluationCache`, a layered memo keyed on
  ``(network, device, calibration, m, r, budget, frequency, shared)`` that
  makes repeated sweeps and overlapping grids near-free;
* :mod:`repro.dse.engine` — :func:`iter_explore`, a streaming evaluator over
  networks x devices x sweep specs; its serial path is the bit-identity
  oracle and honours an explicit cache, and ``ExecutorConfig`` routes
  larger grids to the vectorized engine, which returns identical points in
  identical order;
* :mod:`repro.dse.vectorized` — :func:`evaluate_cell_batch`, the NumPy
  batch engine behind ``ExecutorConfig(mode="vectorized")``: one
  ``(network, device)`` cell's whole ``m x r x budget x frequency`` grid as
  stacked array operations, bit-identical to the scalar path and an order
  of magnitude faster on Fig. 6-scale sweeps;
* :mod:`repro.dse.batch` — :func:`evaluate_requests`, the heterogeneous
  batch entry point: a mixed list of (network, device, entry) requests
  grouped by cell and dispatched through the vectorized engine, one
  outcome per request — what the :mod:`repro.service` micro-batcher
  feeds;
* :mod:`repro.dse.campaign` — :class:`CampaignResult`, the aggregated
  outcome of an exploration (per-network Pareto fronts, best-by-metric
  picks, comparison tables, JSON ``save``/``load``).

This package is the *evaluation engine*; the declarative layer on top of it
lives in :mod:`repro.experiments` (``ExperimentSpec`` + pluggable search
strategies + ``run_experiment`` + the ``python -m repro`` CLI), the one way
to describe and run an exploration.

Quickstart — a 3-network x 2-device campaign:

>>> from repro.experiments import ExperimentSpec, run_experiment
>>> result = run_experiment(ExperimentSpec(
...     networks=("vgg16-d", "alexnet", "resnet18"),
...     devices=("xc7vx485t", "xc7vx690t"),
... ))
>>> result.best("throughput_gops").name
'F(7x7,3x3)-P11'
"""

from .batch import BatchOutcome, EvalRequest, evaluate_requests
from .cache import CacheStats, EvaluationCache, global_cache, network_fingerprint
from .campaign import CampaignResult, DEFAULT_OBJECTIVES, METRIC_DIRECTIONS
from .engine import ExecutorConfig, evaluate_design_cached, iter_explore
from .vectorized import (
    BatchResult,
    DOES_NOT_FIT,
    EXCEEDS_ERROR_BUDGET,
    evaluate_cell_batch,
)

__all__ = [
    "BatchOutcome",
    "EvalRequest",
    "evaluate_requests",
    "BatchResult",
    "DOES_NOT_FIT",
    "EXCEEDS_ERROR_BUDGET",
    "evaluate_cell_batch",
    "CacheStats",
    "EvaluationCache",
    "global_cache",
    "network_fingerprint",
    "CampaignResult",
    "DEFAULT_OBJECTIVES",
    "METRIC_DIRECTIONS",
    "ExecutorConfig",
    "evaluate_design_cached",
    "iter_explore",
]
