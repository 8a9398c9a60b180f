"""Latency and throughput models of Section IV-D (Eqs. 8-10).

The paper's performance numbers all derive from three expressions:

* Eq. (8): the number of parallel PEs a multiplier budget supports,
  ``P = floor(mT / (m + r - 1)^2)``;
* Eq. (9): the total time to produce an output feature map,
  ``Tt = (NHWCK / (m^2 P) + Dp - 1) * tc``;
* Eq. (10): throughput as spatial-equivalent operations per second,
  ``Throughput = OS / Tt``.

This module evaluates them per layer, per group and per network, both in the
"floored" form used for the implementable designs of Table II and in the
"ideal" fractional-PE form the paper uses for the design-space plot of
Fig. 6 (where throughput scales exactly linearly with the multiplier budget).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..nn.layers import ConvLayer
from ..nn.model import Network

__all__ = [
    "parallel_pes",
    "layer_cycles",
    "layer_latency_seconds",
    "LatencyReport",
    "BatchLatencyTable",
    "network_latency",
    "batch_network_latency",
    "throughput_gops",
    "ideal_throughput_gops",
    "multiplier_efficiency",
]


def parallel_pes(m: int, r: int, multiplier_budget: int, fractional: bool = False) -> float:
    """Eq. (8): number of parallel PEs supported by ``multiplier_budget``.

    ``fractional=True`` returns the unfloored ratio used by the Fig. 6 sweep.
    """
    if m < 1 or r < 1:
        raise ValueError("m and r must be >= 1")
    if multiplier_budget < 0:
        raise ValueError("multiplier budget must be non-negative")
    per_pe = (m + r - 1) ** 2
    ratio = multiplier_budget / per_pe
    return ratio if fractional else float(int(ratio))


def layer_cycles(layer: ConvLayer, m: int, pes: float, pipeline_depth: int = 0) -> float:
    """Eq. (9) numerator: clock cycles to compute one layer.

    ``NHWCK / (m^2 P) + Dp - 1`` cycles; the pipeline-fill term matters only
    for tiny layers but is kept for fidelity with the paper.
    """
    if pes <= 0:
        raise ValueError("number of PEs must be positive")
    if m < 1:
        raise ValueError("m must be >= 1")
    cycles = layer.nhwck / (m * m * pes)
    if pipeline_depth > 0:
        cycles += pipeline_depth - 1
    return cycles


def layer_latency_seconds(
    layer: ConvLayer,
    m: int,
    pes: float,
    frequency_mhz: float,
    pipeline_depth: int = 0,
) -> float:
    """Eq. (9): latency of one layer in seconds at ``frequency_mhz``."""
    if frequency_mhz <= 0:
        raise ValueError("frequency must be positive")
    cycle_time = 1.0 / (frequency_mhz * 1e6)
    return layer_cycles(layer, m, pes, pipeline_depth) * cycle_time


@dataclass(frozen=True)
class LatencyReport:
    """Per-group and total latency of a network on one engine configuration."""

    m: int
    r: int
    parallel_pes: float
    frequency_mhz: float
    pipeline_depth: int
    group_latency_ms: Dict[str, float]
    total_latency_ms: float
    spatial_ops: int

    @property
    def throughput_gops(self) -> float:
        """Eq. (10): spatial-equivalent GOPS."""
        return self.spatial_ops / (self.total_latency_ms * 1e-3) / 1e9

    def multiplier_efficiency(self, multipliers: int) -> float:
        """GOPS per multiplier — the paper's multiplier-efficiency metric."""
        if multipliers <= 0:
            raise ValueError("multiplier count must be positive")
        return self.throughput_gops / multipliers


def network_latency(
    network: Network,
    m: int,
    pes: float,
    frequency_mhz: float = 200.0,
    r: int = 3,
    pipeline_depth: int = 0,
    only_kernel_size: Optional[int] = 3,
) -> LatencyReport:
    """Latency of a whole network on one engine configuration (Table II rows).

    Parameters
    ----------
    network:
        The workload (e.g. :func:`repro.nn.vgg.vgg16_d`).
    m, r:
        Engine minimal-filtering parameters.
    pes:
        Number of parallel PEs (may be fractional for ideal-scaling studies).
    frequency_mhz:
        Clock frequency (200 MHz in the paper).
    pipeline_depth:
        Pipeline depth ``Dp`` of Eq. (9); adds ``Dp - 1`` cycles per layer.
    only_kernel_size:
        When set, only conv layers with this kernel size are timed (VGG16-D is
        all-3x3 so every layer qualifies); other layers are skipped, matching
        the paper's focus on the Winograd-eligible convolutions.
    """
    group_cycles: Dict[str, float] = {}
    spatial_ops = 0
    for layer in network.conv_layers:
        if only_kernel_size is not None and layer.kernel_size != only_kernel_size:
            continue
        group = layer.group or layer.name
        group_cycles[group] = group_cycles.get(group, 0.0) + layer_cycles(
            layer, m, pes, pipeline_depth
        )
        spatial_ops += layer.flops
    cycle_time_ms = 1e3 / (frequency_mhz * 1e6)
    group_latency = {group: cycles * cycle_time_ms for group, cycles in group_cycles.items()}
    total = sum(group_latency.values())
    return LatencyReport(
        m=m,
        r=r,
        parallel_pes=pes,
        frequency_mhz=frequency_mhz,
        pipeline_depth=pipeline_depth,
        group_latency_ms=group_latency,
        total_latency_ms=total,
        spatial_ops=spatial_ops,
    )


@dataclass(frozen=True)
class BatchLatencyTable:
    """Per-group and total latency of one network over a plane of designs.

    The array twin of :class:`LatencyReport`: each mapping value (and the
    total) is an array aligned with the evaluated design plane.  Produced by
    :func:`batch_network_latency`; consumed by the vectorized DSE engine,
    which slices per-design :class:`LatencyReport` objects out of it.
    """

    m: int
    r: int
    pipeline_depth: int
    group_latency_ms: Dict[str, "object"]
    total_latency_ms: "object"
    spatial_ops: int

    @property
    def throughput_gops(self):
        """Eq. (10) per design — identical op order to the scalar property."""
        return self.spatial_ops / (self.total_latency_ms * 1e-3) / 1e9


def batch_network_latency(
    network: Network,
    m: int,
    pes,
    frequencies_mhz,
    r: int = 3,
    pipeline_depth: int = 0,
    only_kernel_size: Optional[int] = 3,
) -> BatchLatencyTable:
    """Vector twin of :func:`network_latency` over aligned design arrays.

    ``pes`` (integer PE counts) and ``frequencies_mhz`` are aligned arrays —
    one entry per design sharing this ``(m, r, pipeline_depth)`` group.  The
    per-layer walk, the group accumulation order and every float operation
    mirror the scalar path, so each slice of the result is bit-identical to
    the :class:`LatencyReport` the scalar evaluator would produce.
    """
    pes = np.asarray(pes)
    if m < 1:
        raise ValueError("m must be >= 1")
    if np.any(pes <= 0):
        raise ValueError("number of PEs must be positive")
    frequencies_mhz = np.asarray(frequencies_mhz)
    if np.any(frequencies_mhz <= 0):
        raise ValueError("frequency must be positive")
    from ..hw.frequency import batch_cycle_time_ms  # deferred: keeps core free of hw at import

    denominator = (m * m) * pes
    group_cycles: Dict[str, "object"] = {}
    spatial_ops = 0
    for layer in network.conv_layers:
        if only_kernel_size is not None and layer.kernel_size != only_kernel_size:
            continue
        group = layer.group or layer.name
        cycles = layer.nhwck / denominator
        if pipeline_depth > 0:
            cycles = cycles + (pipeline_depth - 1)
        previous = group_cycles.get(group)
        group_cycles[group] = cycles if previous is None else previous + cycles
        spatial_ops += layer.flops
    cycle_time_ms = batch_cycle_time_ms(frequencies_mhz)
    group_latency = {
        group: cycles * cycle_time_ms for group, cycles in group_cycles.items()
    }
    total = sum(group_latency.values())
    if not group_latency:
        # The scalar path divides by a zero total latency in this case.
        raise ZeroDivisionError("float division by zero")
    return BatchLatencyTable(
        m=m,
        r=r,
        pipeline_depth=pipeline_depth,
        group_latency_ms=group_latency,
        total_latency_ms=total,
        spatial_ops=spatial_ops,
    )


def throughput_gops(
    network: Network,
    m: int,
    multiplier_budget: int,
    frequency_mhz: float = 200.0,
    r: int = 3,
    fractional_pes: bool = False,
    pipeline_depth: int = 0,
) -> float:
    """Eq. (10) evaluated for a multiplier budget (Fig. 6 / Table II)."""
    pes = parallel_pes(m, r, multiplier_budget, fractional=fractional_pes)
    if pes <= 0:
        raise ValueError(
            f"multiplier budget {multiplier_budget} cannot host one F({m},{r}) PE"
        )
    report = network_latency(
        network, m, pes, frequency_mhz, r=r, pipeline_depth=pipeline_depth
    )
    return report.throughput_gops


def ideal_throughput_gops(
    m: int,
    r: int,
    multiplier_budget: int,
    frequency_mhz: float = 200.0,
    fractional_pes: bool = True,
) -> float:
    """Closed-form peak throughput used by the Fig. 6 design-space plot.

    With the pipeline-fill term neglected, Eq. (10) reduces to
    ``2 r^2 m^2 P f`` spatial-equivalent ops/s — independent of the workload.
    ``m = 1`` (spatial convolution) gives ``2 mT f`` with the PE granularity
    of ``r^2`` multipliers, matching the paper's "Spatial Conv" series.
    """
    pes = parallel_pes(m, r, multiplier_budget, fractional=fractional_pes)
    ops_per_cycle = 2.0 * r * r * m * m * pes
    return ops_per_cycle * frequency_mhz * 1e6 / 1e9


def multiplier_efficiency(throughput: float, multipliers: int) -> float:
    """GOPS per multiplier (Table II's last performance row)."""
    if multipliers <= 0:
        raise ValueError("multiplier count must be positive")
    return throughput / multipliers
