"""NumPy batch evaluation of whole design-space grid cells.

The paper's Fig. 6 sweep — tile size ``m`` x multiplier budget x clock
frequency — is embarrassingly data-parallel: within one ``(network,
device)`` cell every design shares the workload, the device and the
calibration, and designs with the same ``(m, r, shared_data_transform)``
share the entire engine structure (transform op counts, PE build, shared
stage, pipeline depth).  The scalar path nevertheless re-walks the
per-layer latency model and the power model once per grid entry in Python.

This module evaluates a whole cell at once instead:

1. entries are grouped by ``(m, r, shared_data_transform)``;
2. each group's engine skeleton is built (and memoised) once through
   :func:`repro.hw.engine.engine_cell_model`;
3. the per-design quantities — PE counts, resources, latency, throughput,
   power, efficiency and complexity metrics — are computed as stacked
   float64 array operations over the group's ``budget x frequency`` plane,
   using the ``batch_*`` twins that live next to each scalar model
   (:mod:`repro.core.throughput`, :mod:`repro.core.complexity`,
   :mod:`repro.hw.resources`, :mod:`repro.hw.power`);
4. the resulting :class:`BatchResult` table materializes back into the
   ordinary :class:`~repro.core.design_point.DesignPoint` list.

Because every batch operation is the elementwise IEEE-754 twin of the
scalar expression (same operations, same association order), the
materialized points are **bit-identical** to the serial path — same
floats, same ordering, same infeasibility skips and the same ``ValueError``
on the same entry when ``skip_infeasible=False``.  The property suite in
``tests/dse/test_vectorized.py`` and ``benchmarks/bench_vectorized.py``
both enforce this with pickled-bytes comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.complexity import (
    batch_implementation_transform_complexity,
    multiplication_complexity,
    spatial_multiplications,
)
from ..core.design_point import DesignPoint
from ..core.design_space import GridEntry
from ..core.throughput import LatencyReport, batch_network_latency
from ..hw.calibration import Calibration
from ..hw.device import FpgaDevice
from ..hw.engine import EngineCellModel, EngineConfig, EngineModel, engine_cell_model
from ..hw.power import PowerModel
from ..hw.resources import ResourceEstimate, batch_fits, batch_linear_resources
from ..nn.model import Network
from ..winograd.quantized import calibrated_error, validate_bit_width

__all__ = [
    "BatchResult",
    "evaluate_cell_batch",
    "DOES_NOT_FIT",
    "EXCEEDS_ERROR_BUDGET",
]

#: Skip reason for designs that evaluate but exceed the device budget
#: (the scalar path has no message for this case — it silently drops the
#: point — so batch consumers share this one).
DOES_NOT_FIT = "design does not fit device {device!r}"

#: Skip reason for designs whose calibrated error exceeds the sweep's
#: ``error_budget`` — the accuracy twin of :data:`DOES_NOT_FIT`, shared
#: verbatim by the scalar request path and the vectorized engine.
EXCEEDS_ERROR_BUDGET = (
    "design max_rel_error {error:.6g} exceeds error budget {budget:.6g}"
)


@dataclass
class _Group:
    """Entries of one cell sharing ``(m, r, shared_data_transform)``."""

    m: int
    r: int
    shared: bool
    model: EngineCellModel
    indexes: List[int] = field(default_factory=list)
    pes: List[int] = field(default_factory=list)
    frequencies: List[float] = field(default_factory=list)
    budget_given: List[bool] = field(default_factory=list)
    bit_widths: List[Optional[int]] = field(default_factory=list)
    error_budgets: List[Optional[float]] = field(default_factory=list)


@dataclass
class BatchResult:
    """Evaluated cell: per-entry design points plus a deferred error.

    ``points`` is aligned with the input entries — ``None`` marks an entry
    skipped as infeasible.  ``pending_error`` carries the ``ValueError`` the
    scalar path would have raised mid-stream when ``skip_infeasible=False``:
    entries before the failing one are evaluated (so a streaming caller can
    yield them first, exactly like the serial generator), entries at and
    after it are left ``None``, and the caller re-raises after draining.

    ``errors`` (populated only when ``collect_errors=True``) is aligned
    with the entries too: the scalar path's ``ValueError`` message for
    each skipped entry, or the :data:`DOES_NOT_FIT` reason for designs
    that evaluate but exceed the device budget — what a serving layer
    reports back instead of a point, with no re-evaluation.
    """

    points: List[Optional[DesignPoint]]
    pending_error: Optional[ValueError] = None
    errors: Optional[List[Optional[str]]] = None

    def feasible(self) -> List[DesignPoint]:
        """The evaluated points in entry order, infeasible entries dropped."""
        return [point for point in self.points if point is not None]


def _entry_pes(
    entry: GridEntry, get_model, device: FpgaDevice
) -> Tuple[Optional[int], Optional[ValueError]]:
    """PE count for one entry, or the ValueError the scalar path raises.

    ``get_model`` lazily returns the entry's :class:`EngineCellModel` (or
    the ``ValueError`` its build raised).  Mirrors the scalar check order
    exactly: the ``bit_width`` domain check comes first (the first thing
    ``evaluate_design`` does), then an explicit multiplier budget (still
    before the engine config exists), then the ``EngineConfig`` field
    validations, then the engine build (transform generation), and only
    then the whole-device budget of Eq. (8).  Entries from a validated
    ``SweepSpec`` can only hit the budget checks, but hand-made entries
    fail identically to the scalar path too.
    """
    try:
        validate_bit_width(entry.bit_width)
    except ValueError as error:
        return None, error
    pes: Optional[int] = None
    if entry.multiplier_budget is not None:
        per_pe = (entry.m + entry.r - 1) ** 2
        pes = entry.multiplier_budget // per_pe
        if pes < 1:
            return None, ValueError(
                f"multiplier budget {entry.multiplier_budget} cannot host one "
                f"F({entry.m},{entry.r}) PE"
            )
    # EngineConfig.__post_init__ twins (NaN frequencies pass, as there).
    if entry.m < 1 or entry.r < 1:
        return None, ValueError("m and r must be >= 1")
    if entry.frequency_mhz <= 0:
        return None, ValueError("frequency must be positive")
    model_or_error = get_model()
    if isinstance(model_or_error, ValueError):
        return None, model_or_error
    if pes is not None:
        return pes, None
    pes = model_or_error.device_parallel_pes
    if pes < 1:
        return None, ValueError(
            f"device {device.name} cannot host a single F({entry.m}x{entry.m}, "
            f"{entry.r}x{entry.r}) PE"
        )
    return pes, None


def evaluate_cell_batch(
    network: Network,
    device: FpgaDevice,
    calibration: Calibration,
    entries: Sequence[GridEntry],
    skip_infeasible: bool = True,
    collect_errors: bool = False,
) -> BatchResult:
    """Evaluate every grid entry of one ``(network, device)`` cell at once.

    Entries may mix tile sizes, kernel sizes, budgets (including ``None``
    for "whole device"), frequencies and architecture variants in any
    order; results come back aligned with the input.  Bit-identical to
    evaluating each entry through
    :func:`repro.core.design_point.evaluate_design` with the same
    feasibility rules — see the module docstring for why.

    Entries are assumed to come from a validated
    :class:`~repro.core.design_space.SweepSpec` (positive finite
    frequencies, integral ``m``/``r``/budgets), which is what every caller
    in :mod:`repro.dse` guarantees.

    ``collect_errors=True`` additionally records *why* each skipped entry
    was skipped on ``BatchResult.errors`` (only meaningful with
    ``skip_infeasible=True``) — the request-batching service uses this to
    answer infeasible queries without a second evaluation.
    """
    import numpy as np

    entries = list(entries)
    results: List[Optional[DesignPoint]] = [None] * len(entries)
    errors: Optional[List[Optional[str]]] = [None] * len(entries) if collect_errors else None

    # ---- pass 1: resolve PE counts, engine skeletons and scalar errors --- #
    models: Dict[Tuple[int, int, bool], object] = {}
    groups: Dict[Tuple[int, int, bool], _Group] = {}
    pending_error: Optional[ValueError] = None
    for index, entry in enumerate(entries):
        key = (entry.m, entry.r, entry.shared_data_transform)

        def get_model(key=key, entry=entry):
            """The memoised engine cell model, or None when infeasible."""
            model = models.get(key)
            if model is None:
                try:
                    model = engine_cell_model(
                        entry.m, entry.r, entry.shared_data_transform, device, calibration
                    )
                except ValueError as error:
                    model = error
                models[key] = model
            return model

        pes, error = _entry_pes(entry, get_model, device)
        if error is None:
            # The scalar path measures the calibration-table entry inside
            # ``evaluate_design`` (after the engine build, before the fit
            # check); an unsupported quantized transform raises the same
            # ``ValueError`` here, in the same relative order.
            try:
                calibrated_error(entry.m, entry.r, entry.bit_width)
            except ValueError as stats_error:
                error = stats_error
        if error is not None:
            if skip_infeasible:
                if errors is not None:
                    errors[index] = str(error)
                continue
            pending_error = error
            break
        group = groups.get(key)
        if group is None:
            group = groups[key] = _Group(
                m=entry.m, r=entry.r, shared=entry.shared_data_transform, model=models[key]
            )
        group.indexes.append(index)
        group.pes.append(pes)
        group.frequencies.append(entry.frequency_mhz)
        group.budget_given.append(entry.multiplier_budget is not None)
        group.bit_widths.append(entry.bit_width)
        group.error_budgets.append(entry.error_budget)

    # ---- pass 2: stacked array evaluation per group ---------------------- #
    power_model = PowerModel(calibration.power)
    spatial_mults = float(spatial_multiplications(network))
    winograd_by_m: Dict[int, float] = {}
    for group in groups.values():
        model = group.model
        pes = np.asarray(group.pes, dtype=np.int64)
        frequencies = np.asarray(group.frequencies, dtype=np.float64)

        table = batch_network_latency(
            network,
            group.m,
            pes,
            frequencies,
            r=group.r,
            pipeline_depth=model.pipeline_depth,
        )
        resources = batch_linear_resources(model.base_resources, model.pe.resources, pes)
        keep = batch_fits(resources, device) if skip_infeasible else np.ones(len(pes), bool)
        if errors is not None:
            for j, index in enumerate(group.indexes):
                if not keep[j]:
                    errors[index] = DOES_NOT_FIT.format(device=device.name)
        if skip_infeasible:
            # Accuracy twin of the fit check, in the same scalar order:
            # a design that fits but misses its error budget is skipped.
            for j, index in enumerate(group.indexes):
                budget = group.error_budgets[j]
                if not keep[j] or budget is None:
                    continue
                stats = calibrated_error(group.m, group.r, group.bit_widths[j])
                if stats.max_rel > budget:
                    keep[j] = False
                    if errors is not None:
                        errors[index] = EXCEEDS_ERROR_BUDGET.format(
                            error=stats.max_rel, budget=budget
                        )
        if not keep.any():
            continue

        throughput = table.throughput_gops
        power_watts = power_model.batch_total_watts(resources, frequencies)
        total_multipliers = pes * model.pe.multipliers
        multiplier_eff = throughput / total_multipliers
        power_eff = throughput / power_watts
        winograd = winograd_by_m.get(group.m)
        if winograd is None:
            winograd = winograd_by_m[group.m] = multiplication_complexity(network, group.m)
        transform_ops = batch_implementation_transform_complexity(network, group.m, pes)

        # ---- materialize the table back into DesignPoints --------------- #
        group_names = list(table.group_latency_ms)
        group_columns = [column.tolist() for column in table.group_latency_ms.values()]
        totals = table.total_latency_ms.tolist()
        throughputs = throughput.tolist()
        powers = power_watts.tolist()
        multiplier_effs = multiplier_eff.tolist()
        power_effs = power_eff.tolist()
        transform_ops_list = transform_ops.tolist()
        luts = resources["luts"].tolist()
        registers = resources["registers"].tolist()
        dsps = resources["dsp_slices"].tolist()
        brams = resources["bram_kbits"].tolist()
        multipliers = resources["multipliers"].tolist()
        totals_mult = total_multipliers.tolist()

        m, r, shared = group.m, group.r, group.shared
        for j, index in enumerate(group.indexes):
            if not keep[j]:
                continue
            point_pes = group.pes[j]
            frequency = group.frequencies[j]
            bit_width = group.bit_widths[j]
            error_stats = calibrated_error(m, r, bit_width)
            latency = LatencyReport(
                m=m,
                r=r,
                parallel_pes=point_pes,
                frequency_mhz=frequency,
                pipeline_depth=model.pipeline_depth,
                group_latency_ms={
                    name: column[j] for name, column in zip(group_names, group_columns)
                },
                total_latency_ms=totals[j],
                spatial_ops=table.spatial_ops,
            )
            estimate = ResourceEstimate(
                luts=luts[j],
                registers=registers[j],
                dsp_slices=dsps[j],
                bram_kbits=brams[j],
                multipliers=multipliers[j],
            )
            config = EngineConfig(
                m=m,
                r=r,
                parallel_pes=point_pes if group.budget_given[j] else None,
                shared_data_transform=shared,
                frequency_mhz=frequency,
            )
            engine = EngineModel(
                config=config,
                device=device,
                pe=model.pe,
                parallel_pes=point_pes,
                shared_stage=model.shared_stage,
                resources=estimate,
                pipeline_depth=model.pipeline_depth,
                op_counts=model.op_counts,
            )
            point_name = f"F({m}x{m},{r}x{r})-P{point_pes}"
            if bit_width is not None:
                point_name = f"{point_name}-Q{bit_width}"
            results[index] = DesignPoint(
                name=point_name,
                m=m,
                r=r,
                parallel_pes=point_pes,
                multipliers=totals_mult[j],
                frequency_mhz=frequency,
                shared_data_transform=shared,
                device_name=device.name,
                precision=config.precision.name,
                latency=latency,
                throughput_gops=throughputs[j],
                multiplier_efficiency=multiplier_effs[j],
                resources=estimate,
                power_watts=powers[j],
                power_efficiency=power_effs[j],
                spatial_multiplications=spatial_mults,
                winograd_multiplications=winograd,
                implementation_transform_ops=transform_ops_list[j],
                engine=engine,
                workload_name=network.name,
                bit_width=bit_width,
                max_rel_error=error_stats.max_rel,
                mean_rel_error=error_stats.mean_rel,
            )

    return BatchResult(points=results, pending_error=pending_error, errors=errors)
