"""Engine-level hardware model: data transform + P parallel PEs + buffers.

This is the resource side of the paper's proposed system (Fig. 7): a single
data-transform stage feeding ``P`` parallel PEs, each of which convolves the
shared transformed tile ``U`` with its own transformed kernel ``V`` and
accumulates across channels.  The same class also models the reference
architecture of Podili et al. [3] (data transform replicated per PE) so the
Table I comparison and the shared-transform ablation come from one code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from ..winograd.op_count import TransformOpCounts, cached_transform_ops, count_transform_ops
from .arithmetic import Precision
from .calibration import Calibration, DEFAULT_CALIBRATION
from .datapath import StageDatapath, adder_tree_depth, datapath_from_op_count
from .device import FpgaDevice, virtex7_485t
from .pe import PEModel, build_pe, cached_pe
from .resources import ResourceEstimate, Utilization, utilization

__all__ = [
    "EngineConfig",
    "EngineModel",
    "EngineCellModel",
    "build_engine",
    "engine_cell_model",
    "max_parallel_pes",
    "batch_max_parallel_pes",
]


@dataclass(frozen=True)
class EngineConfig:
    """Configuration of one Winograd convolution engine instance.

    Attributes
    ----------
    m, r:
        Minimal-algorithm parameters ``F(m x m, r x r)``.
    parallel_pes:
        Number of parallel PEs ``P``.  When ``None`` the maximum that fits
        the device's multiplier budget is used (Eq. (8)).
    shared_data_transform:
        ``True`` for the paper's proposed architecture (single data transform
        shared by all PEs), ``False`` for the per-PE reference architecture.
    frequency_mhz:
        Target clock frequency (200 MHz in the paper).
    precision:
        Datapath precision.
    buffer_kbits:
        On-chip buffer allocation accounted to the engine (image + kernel +
        accumulation buffers).
    """

    m: int
    r: int = 3
    parallel_pes: Optional[int] = None
    shared_data_transform: bool = True
    frequency_mhz: float = 200.0
    precision: Precision = field(default_factory=Precision.float32)
    buffer_kbits: float = 4096.0

    def __post_init__(self) -> None:
        if self.m < 1 or self.r < 1:
            raise ValueError("m and r must be >= 1")
        if self.parallel_pes is not None and self.parallel_pes < 1:
            raise ValueError("parallel_pes must be >= 1 when given")
        if self.frequency_mhz <= 0:
            raise ValueError("frequency must be positive")

    @property
    def multipliers_per_pe(self) -> int:
        """Multipliers per PE: ``(m + r - 1)^2``."""
        return (self.m + self.r - 1) ** 2


def max_parallel_pes(m: int, r: int, multiplier_budget: int) -> int:
    """Eq. (8): ``P = floor(mT / (m + r - 1)^2)``."""
    if multiplier_budget < 0:
        raise ValueError("multiplier budget must be non-negative")
    per_pe = (m + r - 1) ** 2
    return multiplier_budget // per_pe


def batch_max_parallel_pes(m: int, r: int, multiplier_budgets):
    """Vector twin of :func:`max_parallel_pes` over an array of budgets.

    Returns an integer array of PE counts; floor division on non-negative
    integers matches the scalar ``budget // per_pe`` exactly.
    """
    budgets = np.asarray(multiplier_budgets)
    if np.any(budgets < 0):
        raise ValueError("multiplier budget must be non-negative")
    per_pe = (m + r - 1) ** 2
    return budgets // per_pe


@dataclass(frozen=True)
class EngineModel:
    """Complete resource/timing model of one engine instance."""

    config: EngineConfig
    device: FpgaDevice
    pe: PEModel
    parallel_pes: int
    shared_stage: Optional[StageDatapath]
    resources: ResourceEstimate
    pipeline_depth: int
    op_counts: TransformOpCounts

    # ------------------------------------------------------------------ #
    @property
    def total_multipliers(self) -> int:
        """General multipliers instantiated across all PEs."""
        return self.parallel_pes * self.pe.multipliers

    @property
    def outputs_per_cycle(self) -> int:
        """Output pixels produced per clock cycle: ``P * m^2``."""
        return self.parallel_pes * self.config.m ** 2

    @property
    def luts_per_pe(self) -> float:
        """Incremental LUT cost of adding one PE (the paper's per-PE slope)."""
        return self.pe.resources.luts

    def device_utilization(self) -> Utilization:
        """Utilisation of the engine on its target device (Table I style)."""
        return utilization(self.resources, self.device)

    def fits_device(self) -> bool:
        """Whether the engine fits its device."""
        return self.resources.fits(self.device)


def build_engine(
    config: EngineConfig,
    device: Optional[FpgaDevice] = None,
    calibration: Calibration = DEFAULT_CALIBRATION,
    op_counts: Optional[TransformOpCounts] = None,
    prefer_canonical: bool = True,
) -> EngineModel:
    """Build the engine model for a configuration on a device.

    When ``config.parallel_pes`` is ``None`` the PE count is derived from the
    device's DSP budget through Eq. (8): the number of fp32 multipliers the
    DSP fabric can host divided by the multipliers each PE needs.
    """
    device = device or virtex7_485t()
    resources_cal = calibration.resources
    if op_counts is None:
        op_counts = count_transform_ops(config.m, config.r, prefer_canonical)

    pe = build_pe(
        m=config.m,
        r=config.r,
        include_data_transform=not config.shared_data_transform,
        precision=config.precision,
        calibration=resources_cal,
        op_counts=op_counts,
        prefer_canonical=prefer_canonical,
    )

    if config.parallel_pes is not None:
        parallel_pes = config.parallel_pes
    else:
        multiplier_budget = device.dsp_slices // max(1, resources_cal.dsps_per_multiplier)
        parallel_pes = max_parallel_pes(config.m, config.r, multiplier_budget)
        if parallel_pes < 1:
            raise ValueError(
                f"device {device.name} cannot host a single F({config.m}x{config.m}, "
                f"{config.r}x{config.r}) PE"
            )

    shared_stage: Optional[StageDatapath] = None
    total = ResourceEstimate(
        luts=resources_cal.luts_engine_overhead,
        registers=resources_cal.registers_engine_overhead,
        bram_kbits=config.buffer_kbits,
    )
    pipeline_depth = 0
    if config.shared_data_transform:
        shared_stage = datapath_from_op_count(
            "data_transform",
            op_counts.data,
            config.precision,
            resources_cal,
            depth_hint=2 * adder_tree_depth(config.m + config.r - 1),
        )
        total = total + shared_stage.resources
        pipeline_depth += shared_stage.pipeline_depth + resources_cal.register_stages_per_transform

    total = total + pe.resources.scaled(parallel_pes)
    pipeline_depth += pe.pipeline_depth

    return EngineModel(
        config=config,
        device=device,
        pe=pe,
        parallel_pes=parallel_pes,
        shared_stage=shared_stage,
        resources=total,
        pipeline_depth=pipeline_depth,
        op_counts=op_counts,
    )


@dataclass(frozen=True)
class EngineCellModel:
    """Engine structure shared by every design of one ``(m, r, shared)`` group.

    The engine model factors cleanly into pieces that depend only on the
    tile parameters and architecture variant — the PE build, the shared
    transform stage, the fixed overheads, the pipeline depth — and pieces
    that scale with the PE count ``P``.  The batch evaluator computes the
    former once per grid group through this skeleton and applies the
    ``base + slope * P`` closure per design point, reproducing
    :func:`build_engine` exactly.

    Attributes
    ----------
    pe:
        The per-PE model; ``pe.resources`` is the resource slope per PE.
    shared_stage:
        The shared data-transform datapath (``None`` for the per-PE
        reference architecture).
    base_resources:
        Engine overhead plus the shared stage — the ``P``-independent
        resource intercept, summed in :func:`build_engine`'s order.
    pipeline_depth:
        Total pipeline depth ``Dp`` (independent of ``P`` and frequency).
    device_parallel_pes:
        Eq. (8) applied to the whole device DSP budget — the PE count used
        when a design leaves ``multiplier_budget`` unset.  May be < 1 for
        tiles too large for the device; callers decide how to fail.
    """

    m: int
    r: int
    shared_data_transform: bool
    device: FpgaDevice
    pe: PEModel
    shared_stage: Optional[StageDatapath]
    op_counts: TransformOpCounts
    base_resources: ResourceEstimate
    pipeline_depth: int
    device_parallel_pes: int


@lru_cache(maxsize=None)
def engine_cell_model(
    m: int,
    r: int,
    shared_data_transform: bool,
    device: FpgaDevice,
    calibration: Calibration = DEFAULT_CALIBRATION,
    prefer_canonical: bool = True,
    buffer_kbits: float = 4096.0,
) -> EngineCellModel:
    """Build (and memoise) the :class:`EngineCellModel` for one grid group.

    Mirrors :func:`build_engine` piece for piece — same op counts, same PE
    build, same overhead/shared-stage addition order — so completing the
    model with ``base + pe.resources.scaled(P)`` yields bit-identical
    resources to a direct scalar build.
    """
    resources_cal = calibration.resources
    precision = Precision.float32()
    op_counts = cached_transform_ops(m, r, prefer_canonical)
    pe = cached_pe(
        m=m,
        r=r,
        include_data_transform=not shared_data_transform,
        precision=precision,
        calibration=resources_cal,
        prefer_canonical=prefer_canonical,
    )

    device_budget = device.dsp_slices // max(1, resources_cal.dsps_per_multiplier)
    device_parallel_pes = max_parallel_pes(m, r, device_budget)

    shared_stage: Optional[StageDatapath] = None
    base = ResourceEstimate(
        luts=resources_cal.luts_engine_overhead,
        registers=resources_cal.registers_engine_overhead,
        bram_kbits=buffer_kbits,
    )
    pipeline_depth = 0
    if shared_data_transform:
        shared_stage = datapath_from_op_count(
            "data_transform",
            op_counts.data,
            precision,
            resources_cal,
            depth_hint=2 * adder_tree_depth(m + r - 1),
        )
        base = base + shared_stage.resources
        pipeline_depth += shared_stage.pipeline_depth + resources_cal.register_stages_per_transform
    pipeline_depth += pe.pipeline_depth

    return EngineCellModel(
        m=m,
        r=r,
        shared_data_transform=shared_data_transform,
        device=device,
        pe=pe,
        shared_stage=shared_stage,
        op_counts=op_counts,
        base_resources=base,
        pipeline_depth=pipeline_depth,
        device_parallel_pes=device_parallel_pes,
    )
