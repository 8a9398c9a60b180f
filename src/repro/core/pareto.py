"""Pareto-frontier extraction over design points.

The paper's Section III discussion is, in essence, a two-objective trade-off
(multiplication savings vs. transform overhead; throughput vs. resources /
power).  This module provides a small generic multi-objective Pareto filter
over :class:`~repro.core.design_point.DesignPoint` collections so the DSE can
report the non-dominated configurations for any metric combination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple, Union

from .design_point import DesignPoint

__all__ = ["Objective", "dominates", "normalize_objectives", "pareto_front", "pareto_rank"]


@dataclass(frozen=True)
class Objective:
    """One optimisation objective: a design-point metric and a direction."""

    metric: str
    maximize: bool = True

    def value(self, point: DesignPoint) -> float:
        """The objective's metric read off ``point`` (ValueError if unknown)."""
        try:
            return float(getattr(point, self.metric))
        except AttributeError as error:
            raise ValueError(f"unknown metric {self.metric!r}") from error

    def better(self, a: float, b: float) -> bool:
        """Whether value ``a`` is strictly better than ``b``."""
        return a > b if self.maximize else a < b

    def no_worse(self, a: float, b: float) -> bool:
        """Whether value ``a`` is at least as good as ``b``."""
        return a >= b if self.maximize else a <= b


ObjectiveLike = Union[Objective, str, Tuple[str, bool]]


def normalize_objectives(
    objectives: Union[ObjectiveLike, Sequence[ObjectiveLike]],
) -> Tuple[Tuple[str, bool], ...]:
    """Canonicalize objectives to ``(metric, maximize)`` pairs.

    Accepts one objective or a sequence of them: :class:`Objective`
    instances, bare metric names (maximized) and ``(metric, maximize)``
    pairs.  A bare two-item ``("metric", maximize)`` pair is a single
    objective, not two.  Raises ``ValueError`` on a malformed pair or an
    empty sequence.
    """
    if isinstance(objectives, (str, Objective)):
        objectives = (objectives,)
    objectives = tuple(objectives)
    if (
        len(objectives) == 2
        and isinstance(objectives[0], str)
        and isinstance(objectives[1], bool)
    ):
        objectives = (objectives,)
    normalized = []
    for objective in objectives:
        if isinstance(objective, Objective):
            normalized.append((objective.metric, objective.maximize))
        elif isinstance(objective, str):
            normalized.append((objective, True))
        else:
            metric, maximize = objective
            if not isinstance(metric, str) or not isinstance(maximize, bool):
                raise ValueError(
                    f"objectives must be (metric, maximize) pairs, got {objective!r}"
                )
            normalized.append((metric, maximize))
    if not normalized:
        raise ValueError("at least one objective is required")
    return tuple(normalized)


def _objectives(objectives: Sequence[ObjectiveLike]) -> List[Objective]:
    return [Objective(metric, maximize) for metric, maximize in normalize_objectives(objectives)]


def dominates(
    a: DesignPoint, b: DesignPoint, objectives: Sequence[ObjectiveLike]
) -> bool:
    """Whether design ``a`` Pareto-dominates design ``b``.

    ``a`` dominates ``b`` when it is no worse in every objective and strictly
    better in at least one.
    """
    return _dominates(a, b, _objectives(objectives))


def _dominates(a: DesignPoint, b: DesignPoint, objectives: List[Objective]) -> bool:
    strictly_better = False
    for objective in objectives:
        value_a = objective.value(a)
        value_b = objective.value(b)
        if not objective.no_worse(value_a, value_b):
            return False
        if objective.better(value_a, value_b):
            strictly_better = True
    return strictly_better


def pareto_front(
    points: Iterable[DesignPoint], objectives: Sequence[ObjectiveLike]
) -> List[DesignPoint]:
    """Return the non-dominated subset of ``points`` for the given objectives.

    The result preserves the input ordering of the surviving points.
    """
    points = list(points)
    objs = _objectives(objectives)
    front: List[DesignPoint] = []
    for candidate in points:
        if any(_dominates(other, candidate, objs) for other in points if other is not candidate):
            continue
        front.append(candidate)
    return front


def pareto_rank(
    points: Iterable[DesignPoint], objectives: Sequence[ObjectiveLike]
) -> Dict[str, int]:
    """Assign a Pareto rank (0 = frontier) to every design point by name.

    Iteratively peels fronts, as in NSGA-style non-dominated sorting.  Useful
    for ordering a large sweep for presentation.
    """
    remaining = list(points)
    ranks: Dict[str, int] = {}
    rank = 0
    while remaining:
        front = pareto_front(remaining, objectives)
        if not front:  # safety: should not happen with a finite set
            for point in remaining:
                ranks[point.name] = rank
            break
        for point in front:
            ranks[point.name] = rank
        remaining = [point for point in remaining if point not in front]
        rank += 1
    return ranks
