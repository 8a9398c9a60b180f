"""Campaign-scale design-space exploration.

A :class:`Campaign` is the declarative description of a full exploration —
the cross-product of networks x devices x sweep specifications — and a
:class:`CampaignResult` is the evaluated outcome, with the aggregate views a
DSE report needs: per-network Pareto fronts, best-by-metric picks and
cross-network comparison rows.

>>> from repro.dse import Campaign
>>> result = Campaign(
...     networks=("vgg16-d", "alexnet"),
...     devices=("xc7vx485t", "xc7vx690t"),
... ).run()
>>> best = result.best("throughput_gops")
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from ..core.design_point import DesignPoint
from ..core.design_space import SweepSpec, best_by
from ..core.pareto import Objective, ObjectiveLike, pareto_front
from ..hw.calibration import Calibration, DEFAULT_CALIBRATION
from ..hw.device import FpgaDevice
from ..nn.model import Network
from .cache import CacheStats
from .engine import (
    CacheLike,
    ExecutorConfig,
    _ensure_tuple,
    _normalize_devices,
    _normalize_networks,
    _normalize_specs,
)

if TYPE_CHECKING:  # pragma: no cover - typing only; runtime import would cycle
    from ..experiments.spec import ExperimentSpec

__all__ = ["Campaign", "CampaignResult", "run_campaign", "METRIC_DIRECTIONS"]

#: Whether a named DesignPoint metric improves upward (True) or downward.
METRIC_DIRECTIONS: Dict[str, bool] = {
    "throughput_gops": True,
    "power_efficiency": True,
    "multiplier_efficiency": True,
    "total_latency_ms": False,
    "power_watts": False,
    "max_rel_error": False,
    "mean_rel_error": False,
}

#: Default campaign objectives: the paper's throughput / power-efficiency
#: trade-off of Section V.
DEFAULT_OBJECTIVES: Tuple[Tuple[str, bool], ...] = (
    ("throughput_gops", True),
    ("power_efficiency", True),
)


def metric_direction(metric: str) -> bool:
    """Default optimisation direction for a metric (maximize unless known cost)."""
    return METRIC_DIRECTIONS.get(metric, True)


@dataclass(frozen=True)
class Campaign:
    """Declarative description of one exploration campaign.

    ``networks`` and ``devices`` accept registry names as well as concrete
    objects; ``sweeps`` is one or more :class:`SweepSpec` whose grids are
    concatenated per (network, device) cell.
    """

    networks: Sequence[Union[Network, str]]
    devices: Sequence[Union[FpgaDevice, str]] = ("xc7vx485t",)
    sweeps: Sequence[SweepSpec] = (SweepSpec(),)
    calibration: Calibration = DEFAULT_CALIBRATION
    skip_infeasible: bool = True
    objectives: Sequence[ObjectiveLike] = DEFAULT_OBJECTIVES
    name: str = "campaign"

    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        # Normalize the inputs exactly once (shared scalar-wrapping rules
        # with iter_explore): one-shot iterables such as generators must
        # survive being read by both grid_size and run().
        object.__setattr__(self, "networks", _ensure_tuple(self.networks, (Network, str)))
        object.__setattr__(self, "devices", _ensure_tuple(self.devices, (FpgaDevice, str)))
        object.__setattr__(self, "sweeps", _ensure_tuple(self.sweeps, (SweepSpec,)))
        objectives = _ensure_tuple(self.objectives, (str, Objective))
        if (
            len(objectives) == 2
            and isinstance(objectives[0], str)
            and isinstance(objectives[1], bool)
        ):
            # A single ("metric", maximize) pair, not two objectives.
            objectives = (tuple(objectives),)
        object.__setattr__(self, "objectives", objectives)

    def resolved_networks(self) -> List[Network]:
        """Concrete :class:`Network` objects (registry names resolved)."""
        return _normalize_networks(self.networks)

    def resolved_devices(self) -> List[FpgaDevice]:
        """Concrete :class:`FpgaDevice` objects (registry names resolved)."""
        return _normalize_devices(self.devices)

    def resolved_sweeps(self) -> Tuple[SweepSpec, ...]:
        """The campaign's sweeps as a validated tuple."""
        return _normalize_specs(self.sweeps)

    @property
    def grid_size(self) -> int:
        """Total number of configurations the campaign will evaluate."""
        per_cell = sum(spec.size for spec in self.resolved_sweeps())
        return len(self.networks) * len(self.devices) * per_cell

    def run(
        self,
        cache: CacheLike = None,
        executor: Optional[ExecutorConfig] = None,
    ) -> "CampaignResult":
        """Evaluate the campaign; see :func:`run_campaign`."""
        return run_campaign(self, cache=cache, executor=executor)


@dataclass
class CampaignResult:
    """Evaluated campaign: every feasible design point plus aggregate views.

    ``spec`` carries the declarative :class:`~repro.experiments.ExperimentSpec`
    the run came from (set by :func:`repro.experiments.run_experiment`;
    ``None`` for legacy ``Campaign.run()`` calls, where an equivalent spec is
    derived on save), making every saved result a re-runnable artifact.
    """

    campaign: Campaign
    points: List[DesignPoint]
    evaluations: int
    elapsed_seconds: float
    cache_stats: CacheStats = field(default_factory=CacheStats)
    spec: Optional["ExperimentSpec"] = field(default=None, repr=False)

    # ------------------------------------------------------------------ #
    @property
    def feasible(self) -> int:
        """Number of feasible (kept) design points."""
        return len(self.points)

    @property
    def skipped(self) -> int:
        """Grid configurations dropped as infeasible."""
        return self.evaluations - self.feasible

    def network_names(self) -> List[str]:
        """Workload names in first-appearance order."""
        seen: Dict[str, None] = {}
        for point in self.points:
            seen.setdefault(point.workload_name)
        return list(seen)

    def device_names(self) -> List[str]:
        """Device names in first-appearance order."""
        seen: Dict[str, None] = {}
        for point in self.points:
            seen.setdefault(point.device_name)
        return list(seen)

    # ------------------------------------------------------------------ #
    def by_network(self) -> Dict[str, List[DesignPoint]]:
        """Design points grouped by workload name (insertion order kept)."""
        groups: Dict[str, List[DesignPoint]] = {}
        for point in self.points:
            groups.setdefault(point.workload_name, []).append(point)
        return groups

    def by_cell(self) -> Dict[Tuple[str, str], List[DesignPoint]]:
        """Design points grouped by (workload, device) cell."""
        groups: Dict[Tuple[str, str], List[DesignPoint]] = {}
        for point in self.points:
            groups.setdefault((point.workload_name, point.device_name), []).append(point)
        return groups

    def select(
        self, network: Optional[str] = None, device: Optional[str] = None
    ) -> List[DesignPoint]:
        """Points filtered by workload and/or device name."""
        return [
            point
            for point in self.points
            if (network is None or point.workload_name == network)
            and (device is None or point.device_name == device)
        ]

    # ------------------------------------------------------------------ #
    def pareto_fronts(
        self, objectives: Optional[Sequence[ObjectiveLike]] = None
    ) -> Dict[str, List[DesignPoint]]:
        """Per-network Pareto fronts on the campaign objectives."""
        objectives = tuple(objectives or self.campaign.objectives)
        return {
            name: pareto_front(points, objectives)
            for name, points in self.by_network().items()
        }

    def best(
        self,
        metric: str,
        maximize: Optional[bool] = None,
        network: Optional[str] = None,
        device: Optional[str] = None,
    ) -> DesignPoint:
        """Best point by a metric, optionally within one network/device."""
        if maximize is None:
            maximize = metric_direction(metric)
        return best_by(self.select(network, device), metric, maximize=maximize)

    def best_by_metric(
        self, metrics: Sequence[str] = ("throughput_gops", "power_efficiency", "total_latency_ms")
    ) -> Dict[str, Dict[str, DesignPoint]]:
        """Per-network best picks for each named metric."""
        return {
            name: {
                metric: best_by(points, metric, maximize=metric_direction(metric))
                for metric in metrics
            }
            for name, points in self.by_network().items()
        }

    # ------------------------------------------------------------------ #
    def summary_rows(self) -> List[Dict[str, Union[str, float, int]]]:
        """One row per (network, device) cell for the campaign summary table."""
        fronts = self.pareto_fronts()
        rows: List[Dict[str, Union[str, float, int]]] = []
        for (network, device), points in self.by_cell().items():
            front_ids = {id(point) for point in fronts.get(network, [])}
            best_throughput = best_by(points, "throughput_gops")
            best_power = best_by(points, "power_efficiency")
            fastest = best_by(points, "total_latency_ms", maximize=False)
            rows.append(
                {
                    "network": network,
                    "device": device,
                    "points": len(points),
                    "pareto": sum(1 for point in points if id(point) in front_ids),
                    "best_gops": best_throughput.throughput_gops,
                    "best_gops_design": best_throughput.name,
                    "best_gops_per_w": best_power.power_efficiency,
                    "min_latency_ms": fastest.total_latency_ms,
                }
            )
        return rows

    def comparison_rows(
        self, metric: str = "throughput_gops"
    ) -> List[Dict[str, Union[str, float]]]:
        """Networks x devices comparison of the best value of ``metric``."""
        maximize = metric_direction(metric)
        devices = self.device_names()
        cells = self.by_cell()
        rows: List[Dict[str, Union[str, float]]] = []
        for network in self.network_names():
            row: Dict[str, Union[str, float]] = {"network": network}
            for device in devices:
                cell = cells.get((network, device))
                if cell:
                    best = best_by(cell, metric, maximize=maximize)
                    row[device] = float(getattr(best, metric))
                else:
                    row[device] = float("nan")
            rows.append(row)
        return rows

    def point_rows(self) -> List[Dict[str, Union[str, float, int]]]:
        """Flat per-point rows (network/device plus the Table II columns)."""
        rows = []
        for point in self.points:
            row: Dict[str, Union[str, float, int]] = {
                "network": point.workload_name,
                "device": point.device_name,
                "design": point.name,
            }
            row.update(point.summary_row())
            rows.append(row)
        return rows

    # ------------------------------------------------------------------ #
    def save(self, path: Union[str, "Path"]) -> "Path":
        """Persist the result (points, bookkeeping and the embedded spec) as
        versioned JSON, so it can be reloaded and re-analysed — or the spec
        re-run — without re-evaluating anything.  Returns the path written.
        """
        from ..experiments.persistence import save_result  # deferred: avoids cycle

        return save_result(self, path)

    @classmethod
    def load(cls, path: Union[str, "Path"]) -> "CampaignResult":
        """Reload a result previously written by :meth:`save`."""
        from ..experiments.persistence import load_result  # deferred: avoids cycle

        return load_result(path)


def run_campaign(
    campaign: Campaign,
    cache: CacheLike = None,
    executor: Optional[ExecutorConfig] = None,
) -> CampaignResult:
    """Evaluate every cell of ``campaign`` and aggregate the results.

    A thin shim over the :mod:`repro.experiments` runner with the exhaustive
    :class:`~repro.experiments.GridStrategy` — signatures, point ordering
    and results are unchanged from the historical campaign engine (the
    strategy streams through the same :func:`~repro.dse.engine.iter_explore`
    core).  Uses the shared memoising evaluator (so overlapping grids across
    sweeps and repeated campaigns are near-free).  Runs serially unless an
    ``executor`` opting into the vectorized batch engine is given
    (``ExecutorConfig(mode="auto")`` or ``"vectorized"``; the vectorized
    engine evaluates whole cells as NumPy array operations with
    bit-identical results).  ``cache_stats`` on the result counts this
    run's cache traffic (approximate if other threads share the same cache
    concurrently); it stays zero when ``cache=False``.
    """
    from ..experiments.runner import Evaluator  # deferred: avoids import cycle
    from ..experiments.strategies import GridStrategy

    evaluator = Evaluator(
        networks=campaign.resolved_networks(),
        devices=campaign.resolved_devices(),
        sweeps=campaign.resolved_sweeps(),
        calibration=campaign.calibration,
        skip_infeasible=campaign.skip_infeasible,
        objectives=campaign.objectives,
        cache=cache,
        executor=executor,
    )
    started = time.perf_counter()
    points = list(GridStrategy().search(None, evaluator))
    elapsed = time.perf_counter() - started
    return CampaignResult(
        campaign=campaign,
        points=points,
        evaluations=campaign.grid_size,
        elapsed_seconds=elapsed,
        cache_stats=evaluator.stats,
    )
