"""Design-space exploration driver.

The paper explores the space spanned by the output tile size ``m``, the
multiplier budget ``mT`` (equivalently the PE count ``P``) and the clock
frequency, looking for the configurations with the best throughput, resource
efficiency and power efficiency (Section III plus the Fig. 6 sweep).  This
module owns the *specification* side of those sweeps — :class:`SweepSpec` and
its cartesian-product expansion — plus the classic single-network entry
points (:func:`explore`, :func:`sweep_tile_sizes`,
:func:`sweep_multiplier_budgets`, :func:`best_by`).

The evaluation itself is delegated to :mod:`repro.dse`, the campaign-scale
engine that memoises repeated ``(m, r)`` transform/complexity work and can
evaluate whole grids as NumPy batches; ``explore`` keeps its historical
signature and ordering, so existing callers see the same points — just
faster.  :class:`SweepSpec` is also the grid vocabulary of the declarative
:mod:`repro.experiments` layer: its ``to_dict``/``from_dict`` round-trip is
what lets an :class:`~repro.experiments.ExperimentSpec` describe sweeps in a
JSON file and hand them to any registered search strategy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..hw.calibration import Calibration, DEFAULT_CALIBRATION
from ..hw.device import FpgaDevice, virtex7_485t
from ..nn.model import Network
from .design_point import DesignPoint

if TYPE_CHECKING:  # pragma: no cover - typing only; runtime import would cycle
    from ..dse.engine import CacheLike, ExecutorConfig

__all__ = [
    "GridEntry",
    "SweepSpec",
    "frequency_range",
    "explore",
    "sweep_tile_sizes",
    "sweep_multiplier_budgets",
    "best_by",
]


class GridEntry(NamedTuple):
    """One fully specified configuration of a design-space grid.

    ``bit_width`` selects the fixed-point numeric backend
    (:mod:`repro.winograd.quantized`); ``None`` is the paper's float
    datapath.  ``error_budget`` carries the sweep-level accuracy
    constraint down to the per-entry feasibility check.
    """

    m: int
    r: int
    multiplier_budget: Optional[int]
    frequency_mhz: float
    shared_data_transform: bool
    bit_width: Optional[int] = None
    error_budget: Optional[float] = None


def frequency_range(
    start_mhz: float, stop_mhz: float, step_mhz: float = 50.0
) -> Tuple[float, ...]:
    """Inclusive frequency ladder from ``start_mhz`` to ``stop_mhz``.

    ``frequency_range(100, 300, 50)`` yields ``(100.0, 150.0, 200.0, 250.0,
    300.0)``.  The stop point is included whenever it lands within a small
    tolerance of a step, so fractional steps behave intuitively.
    """
    for label, value in (("start", start_mhz), ("stop", stop_mhz), ("step", step_mhz)):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"{label} frequency must be a number, got {value!r}")
        if not math.isfinite(value):
            raise ValueError(f"{label} frequency must be finite, got {value!r}")
    if start_mhz <= 0 or stop_mhz <= 0:
        raise ValueError("frequencies must be positive")
    if step_mhz <= 0:
        raise ValueError(f"step must be positive, got {step_mhz!r}")
    if stop_mhz < start_mhz:
        raise ValueError(
            f"stop frequency {stop_mhz!r} must be >= start frequency {start_mhz!r}"
        )
    count = int(math.floor((stop_mhz - start_mhz) / step_mhz + 1e-9)) + 1
    return tuple(float(start_mhz + index * step_mhz) for index in range(count))


def _field_tuple(value) -> tuple:
    """Materialize a sweep field: iterables become tuples, scalars wrap."""
    if hasattr(value, "__iter__") and not isinstance(value, str):
        return tuple(value)
    return (value,)


@dataclass(frozen=True)
class SweepSpec:
    """Specification of a design-space sweep.

    Attributes
    ----------
    m_values:
        Output tile sizes to evaluate.
    multiplier_budgets:
        Multiplier budgets ``mT``; ``None`` entries mean "use the whole
        device's DSP budget".
    frequencies_mhz:
        Clock frequencies to evaluate.
    shared_data_transform:
        Architecture variant(s) to include.
    r:
        Kernel size (3 throughout the paper).
    r_values:
        Optional sequence of kernel sizes to sweep; when given it overrides
        ``r`` and the grid becomes ``m x r x budget x frequency x shared``.
    bit_widths:
        Numeric backends to sweep: ``None`` entries are the paper's float
        datapath, integers select the fixed-point pipeline of
        :mod:`repro.winograd.quantized` at that width.  The default sweeps
        only the float path, so existing specs expand identically.
    error_budget:
        Optional accuracy constraint: designs whose calibrated
        ``max_rel_error`` exceeds this are infeasible (dropped under
        ``skip_infeasible``, like designs that do not fit the device).
    """

    m_values: Sequence[int] = (2, 3, 4, 5, 6, 7)
    multiplier_budgets: Sequence[Optional[int]] = (None,)
    frequencies_mhz: Sequence[float] = (200.0,)
    shared_data_transform: Sequence[bool] = (True,)
    r: int = 3
    r_values: Optional[Sequence[int]] = None
    bit_widths: Sequence[Optional[int]] = (None,)
    error_budget: Optional[float] = None

    def __post_init__(self) -> None:
        # Materialize every sequence field once: one-shot iterables (e.g.
        # generators) must survive being read by both ``size`` and
        # ``configurations()``, tuples keep the frozen spec hashable, and a
        # bare scalar (``m_values=4``, ``shared_data_transform=False``)
        # means a one-value sweep rather than a TypeError.
        for field_name in (
            "m_values", "multiplier_budgets", "frequencies_mhz",
            "shared_data_transform", "bit_widths",
        ):
            object.__setattr__(self, field_name, _field_tuple(getattr(self, field_name)))
        if self.r_values is not None:
            object.__setattr__(self, "r_values", _field_tuple(self.r_values))
        self._validate()

    def _validate(self) -> None:
        """Reject empty axes and out-of-domain values with clear errors.

        An accidentally empty axis (``m_values=()``) used to expand to a
        silent zero-point sweep; every axis except ``r_values`` now raises
        instead (an explicitly empty ``r_values`` keeps its documented
        "sweep nothing" meaning, since ``None`` — not ``()`` — is its
        neutral value).
        """
        for field_name in (
            "m_values", "multiplier_budgets", "frequencies_mhz",
            "shared_data_transform", "bit_widths",
        ):
            if not getattr(self, field_name):
                raise ValueError(
                    f"SweepSpec.{field_name} is empty — an empty axis would "
                    "silently sweep nothing; list at least one value"
                )
        for m in self.m_values:
            if not isinstance(m, int) or isinstance(m, bool) or m < 1:
                raise ValueError(f"m_values entries must be integers >= 1, got {m!r}")
        for r in self.effective_r_values:
            if not isinstance(r, int) or isinstance(r, bool) or r < 1:
                raise ValueError(f"kernel sizes must be integers >= 1, got {r!r}")
        for budget in self.multiplier_budgets:
            if budget is None:
                continue
            if not isinstance(budget, int) or isinstance(budget, bool) or budget < 1:
                raise ValueError(
                    f"multiplier_budgets entries must be None or integers >= 1, got {budget!r}"
                )
        for frequency in self.frequencies_mhz:
            if (
                not isinstance(frequency, (int, float))
                or isinstance(frequency, bool)
                or not math.isfinite(frequency)
                or frequency <= 0
            ):
                raise ValueError(
                    f"frequencies_mhz entries must be positive finite numbers, got {frequency!r}"
                )
        for shared in self.shared_data_transform:
            if not isinstance(shared, bool):
                raise ValueError(
                    f"shared_data_transform entries must be booleans, got {shared!r}"
                )
        from ..winograd.quantized import validate_bit_width

        for bit_width in self.bit_widths:
            validate_bit_width(bit_width)
        if self.error_budget is not None:
            if (
                not isinstance(self.error_budget, (int, float))
                or isinstance(self.error_budget, bool)
                or not math.isfinite(self.error_budget)
                or self.error_budget <= 0
            ):
                raise ValueError(
                    f"error_budget must be None or a positive finite number, "
                    f"got {self.error_budget!r}"
                )

    # ------------------------------------------------------------------ #
    @property
    def effective_r_values(self) -> Tuple[int, ...]:
        """Kernel sizes actually swept: ``r_values`` when given, else ``(r,)``.

        An explicitly empty ``r_values`` sequence means "sweep nothing",
        exactly like an empty ``m_values``; only ``None`` falls back to
        ``r``.
        """
        if self.r_values is not None:
            return tuple(self.r_values)
        return (self.r,)

    @property
    def size(self) -> int:
        """Number of grid configurations this spec expands to."""
        return (
            len(self.m_values)
            * len(self.effective_r_values)
            * len(self.multiplier_budgets)
            * len(self.frequencies_mhz)
            * len(self.shared_data_transform)
            * len(self.bit_widths)
        )

    def configurations(self) -> Iterator[GridEntry]:
        """Expand the spec into grid entries in canonical nesting order.

        The nesting (``m`` -> ``r`` -> budget -> frequency -> shared ->
        bit-width) matches the historical ``explore`` loop with the new
        axis innermost, so pre-existing specs keep their ordering.
        """
        for m in self.m_values:
            for r in self.effective_r_values:
                for budget in self.multiplier_budgets:
                    for frequency in self.frequencies_mhz:
                        for shared in self.shared_data_transform:
                            for bit_width in self.bit_widths:
                                yield GridEntry(
                                    m, r, budget, frequency, shared,
                                    bit_width, self.error_budget,
                                )

    # ------------------------------------------------------------------ #
    def with_frequencies(self, frequencies_mhz: Sequence[float]) -> "SweepSpec":
        """Copy of the spec with a different frequency list."""
        return replace(self, frequencies_mhz=tuple(frequencies_mhz))

    def with_frequency_range(
        self, start_mhz: float, stop_mhz: float, step_mhz: float = 50.0
    ) -> "SweepSpec":
        """Copy of the spec sweeping an inclusive frequency ladder."""
        return self.with_frequencies(frequency_range(start_mhz, stop_mhz, step_mhz))

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """JSON-ready representation; inverse of :meth:`from_dict`.

        The accuracy axes are emitted only when set off their defaults:
        a float-only spec serializes exactly as it did before the axes
        existed, keeping :meth:`ExperimentSpec.fingerprint` (and with it
        every stored-result index key) stable.
        """
        data = {
            "m_values": list(self.m_values),
            "multiplier_budgets": list(self.multiplier_budgets),
            "frequencies_mhz": [float(f) for f in self.frequencies_mhz],
            "shared_data_transform": list(self.shared_data_transform),
            "r": self.r,
            "r_values": None if self.r_values is None else list(self.r_values),
        }
        if tuple(self.bit_widths) != (None,):
            data["bit_widths"] = list(self.bit_widths)
        if self.error_budget is not None:
            data["error_budget"] = float(self.error_budget)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        """Rebuild a spec from :meth:`to_dict` output (unknown keys raise)."""
        if not isinstance(data, dict):
            raise ValueError(f"sweep spec must be a mapping, got {type(data).__name__}")
        known = {
            "m_values", "multiplier_budgets", "frequencies_mhz",
            "shared_data_transform", "r", "r_values", "bit_widths", "error_budget",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown SweepSpec fields {sorted(unknown)}; known fields: {sorted(known)}"
            )
        return cls(**data)


def explore(
    network: Network,
    spec: SweepSpec = SweepSpec(),
    device: Optional[FpgaDevice] = None,
    calibration: Calibration = DEFAULT_CALIBRATION,
    skip_infeasible: bool = True,
    *,
    cache: "CacheLike" = None,
    executor: "Optional[ExecutorConfig]" = None,
) -> List[DesignPoint]:
    """Evaluate every configuration of ``spec`` on ``network``.

    Parameters
    ----------
    skip_infeasible:
        Drop configurations that cannot host a single PE within the given
        multiplier budget or that exceed the device's DSP capacity; when
        ``False`` such configurations raise instead.
    cache:
        A :class:`repro.dse.EvaluationCache` to memoise repeated work in, the
        shared global cache when ``None``, or ``False`` to disable caching
        entirely (every point is re-evaluated from scratch).  The cache
        serves the serial path; the vectorized engine memoises nothing.
    executor:
        A :class:`repro.dse.ExecutorConfig` selecting serial or vectorized
        (NumPy batch, bit-identical results) execution; ``None`` uses the
        serial path.
    """
    from ..dse.engine import iter_explore  # deferred: repro.dse builds on this module

    return list(
        iter_explore(
            network,
            spec,
            devices=device or virtex7_485t(),
            calibration=calibration,
            skip_infeasible=skip_infeasible,
            cache=cache,
            executor=executor,
        )
    )


def sweep_tile_sizes(
    network: Network,
    m_values: Sequence[int] = (2, 3, 4, 5, 6, 7),
    device: Optional[FpgaDevice] = None,
    frequency_mhz: float = 200.0,
    r: int = 3,
) -> List[DesignPoint]:
    """Sweep the output tile size with the full device multiplier budget."""
    spec = SweepSpec(m_values=m_values, frequencies_mhz=(frequency_mhz,), r=r)
    return explore(network, spec, device=device)


def sweep_multiplier_budgets(
    network: Network,
    m: int,
    budgets: Sequence[int],
    device: Optional[FpgaDevice] = None,
    frequency_mhz: float = 200.0,
    r: int = 3,
) -> List[DesignPoint]:
    """Sweep multiplier budgets for a fixed tile size (one Fig. 6 series)."""
    spec = SweepSpec(
        m_values=(m,),
        multiplier_budgets=tuple(budgets),
        frequencies_mhz=(frequency_mhz,),
        r=r,
    )
    return explore(network, spec, device=device)


def best_by(points: Iterable[DesignPoint], metric: str, maximize: bool = True) -> DesignPoint:
    """Pick the best design point by a named metric.

    ``metric`` is any numeric attribute of :class:`DesignPoint`, e.g.
    ``"throughput_gops"``, ``"power_efficiency"``, ``"multiplier_efficiency"``
    or ``"total_latency_ms"`` (use ``maximize=False`` for latency).

    Ties are broken by insertion order (the first of the tied points wins),
    so the choice is deterministic for any input ordering of equal-metric
    points.  A NaN metric value raises ``ValueError`` rather than silently
    poisoning the comparison.
    """
    best: Optional[DesignPoint] = None
    best_value = 0.0
    for point in points:
        try:
            value = float(getattr(point, metric))
        except AttributeError as error:
            raise ValueError(f"unknown metric {metric!r}") from error
        if math.isnan(value):
            raise ValueError(
                f"metric {metric!r} is NaN for design point {point.name!r}"
            )
        if best is None or (value > best_value if maximize else value < best_value):
            best = point
            best_value = value
    if best is None:
        raise ValueError("no design points to choose from")
    return best
