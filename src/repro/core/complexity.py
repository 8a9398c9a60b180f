"""Arithmetic-complexity models of Section III (Eqs. 4-7).

These are the analytical expressions behind Figs. 1-3 of the paper:

* :func:`multiplication_complexity` — Eq. (4), the element-wise-stage
  multiplication count ``Om = NHWCK (m + r - 1)^2 / m^2`` (with ``m = 1``
  recovering spatial convolution's ``NHWCK r^2``);
* :func:`transform_complexity` — Eq. (5)/(6), the data/filter/inverse
  transform FLOPs ``Ot = T(D) + T(F) + T(I)``;
* :func:`implementation_transform_complexity` — Eq. (7), the transform
  complexity actually incurred by the proposed implementation, where filter
  transforms are pre-computed offline and the data transform is amortised
  over ``P`` parallel PEs.

All functions accept either a single :class:`~repro.nn.layers.ConvLayer` or a
whole :class:`~repro.nn.model.Network` (in which case layers are summed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..nn.layers import ConvLayer
from ..nn.model import Network
from ..winograd.op_count import TransformOpCounts, count_transform_ops

LayerOrNetwork = Union[ConvLayer, Network, Sequence[ConvLayer]]

__all__ = [
    "ComplexityBreakdown",
    "conv_layers_of",
    "spatial_multiplications",
    "multiplication_complexity",
    "transform_complexity",
    "implementation_transform_complexity",
    "batch_implementation_transform_complexity",
    "complexity_breakdown",
    "multiplication_reduction",
]


def conv_layers_of(workload: LayerOrNetwork) -> List[ConvLayer]:
    """Normalise a layer / list of layers / network into a list of conv layers."""
    if isinstance(workload, ConvLayer):
        return [workload]
    if isinstance(workload, Network):
        return workload.conv_layers
    layers = list(workload)
    if not all(isinstance(layer, ConvLayer) for layer in layers):
        raise TypeError("workload must be ConvLayer(s) or a Network")
    return layers


def spatial_multiplications(workload: LayerOrNetwork) -> int:
    """Multiplications of direct spatial convolution: ``NHWCK * r^2``."""
    return sum(layer.nhwck * layer.kernel_size ** 2 for layer in conv_layers_of(workload))


def multiplication_complexity(workload: LayerOrNetwork, m: int) -> float:
    """Eq. (4): element-wise-stage multiplications of ``F(m x m, r x r)``.

    ``m = 1`` degenerates to spatial convolution (``(1 + r - 1)^2 / 1 = r^2``).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    total = 0.0
    for layer in conv_layers_of(workload):
        r = layer.kernel_size
        total += layer.nhwck * (m + r - 1) ** 2 / (m * m)
    return total


def transform_complexity(
    workload: LayerOrNetwork,
    m: int,
    op_counts: Optional[TransformOpCounts] = None,
    include_filter: bool = True,
    prefer_canonical: bool = True,
) -> float:
    """Eqs. (5)-(6): net transform FLOPs ``Ot = T(D) + T(F) + T(I)``.

    Parameters
    ----------
    workload:
        Layer(s) or network.
    m:
        Output tile size.
    op_counts:
        Pre-computed per-tile ``beta``/``gamma``/``delta``; derived from the
        registered ``F(m, r)`` transform per kernel size otherwise.
    include_filter:
        Include ``T(F) = gamma * C * K``.  The paper includes it in the
        Section III analysis (Fig. 2) but excludes it from the implementation
        complexity (Eq. (7)) because filter transforms are pre-computed.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    total = 0.0
    cache: Dict[int, TransformOpCounts] = {}
    for layer in conv_layers_of(workload):
        r = layer.kernel_size
        counts = op_counts
        if counts is None:
            if r not in cache:
                cache[r] = count_transform_ops(m, r, prefer_canonical)
            counts = cache[r]
        pixels = layer.output_pixels  # N * H * W
        data = counts.beta / (m * m) * pixels * layer.in_channels
        inverse = counts.delta / (m * m) * pixels * layer.out_channels
        filter_ops = counts.gamma * layer.in_channels * layer.out_channels if include_filter else 0.0
        total += data + inverse + filter_ops
    return total


def implementation_transform_complexity(
    workload: LayerOrNetwork,
    m: int,
    parallel_pes: int,
    op_counts: Optional[TransformOpCounts] = None,
    prefer_canonical: bool = True,
) -> float:
    """Eq. (7): transform complexity of the proposed implementation.

    ``OT = NHWCK / m^2 * (beta / P + delta)`` — filter transforms are
    pre-computed, and the shared data transform's cost is amortised over the
    ``P`` PEs that consume its output.
    """
    if parallel_pes < 1:
        raise ValueError("parallel_pes must be >= 1")
    total = 0.0
    cache: Dict[int, TransformOpCounts] = {}
    for layer in conv_layers_of(workload):
        r = layer.kernel_size
        counts = op_counts
        if counts is None:
            if r not in cache:
                cache[r] = count_transform_ops(m, r, prefer_canonical)
            counts = cache[r]
        total += (
            layer.nhwck / (m * m) * (counts.beta / parallel_pes + counts.delta)
        )
    return total


def batch_implementation_transform_complexity(
    workload: LayerOrNetwork,
    m: int,
    parallel_pes,
    prefer_canonical: bool = True,
):
    """Vector twin of :func:`implementation_transform_complexity` over ``P``.

    ``parallel_pes`` is an integer array (one PE count per design of the
    grid group); the per-layer walk and accumulation order mirror the
    scalar path so every element is bit-identical to a scalar call with the
    same ``P``.
    """
    from ..winograd.op_count import cached_transform_ops

    parallel_pes = np.asarray(parallel_pes)
    if np.any(parallel_pes < 1):
        raise ValueError("parallel_pes must be >= 1")
    total = 0.0
    for layer in conv_layers_of(workload):
        counts = cached_transform_ops(m, layer.kernel_size, prefer_canonical)
        total = total + layer.nhwck / (m * m) * (counts.beta / parallel_pes + counts.delta)
    return total


@dataclass(frozen=True)
class ComplexityBreakdown:
    """All Section III quantities for one workload and output tile size."""

    m: int
    spatial_multiplications: float
    winograd_multiplications: float
    data_transform_ops: float
    filter_transform_ops: float
    inverse_transform_ops: float

    @property
    def transform_ops(self) -> float:
        """``Ot`` of Eq. (6)."""
        return self.data_transform_ops + self.filter_transform_ops + self.inverse_transform_ops

    @property
    def multiplication_reduction_pct(self) -> float:
        """Percentage decrease in multiplications relative to spatial conv."""
        return 100.0 * (1.0 - self.winograd_multiplications / self.spatial_multiplications)

    @property
    def multiplication_saving_factor(self) -> float:
        """Spatial-to-Winograd multiplication ratio (the 2.25x, 4x, ... factors)."""
        return self.spatial_multiplications / self.winograd_multiplications


def complexity_breakdown(
    workload: LayerOrNetwork,
    m: int,
    prefer_canonical: bool = True,
) -> ComplexityBreakdown:
    """Compute the full complexity breakdown used by Figs. 1-3."""
    layers = conv_layers_of(workload)
    cache: Dict[int, TransformOpCounts] = {}
    data_ops = 0.0
    filter_ops = 0.0
    inverse_ops = 0.0
    for layer in layers:
        r = layer.kernel_size
        if r not in cache:
            cache[r] = count_transform_ops(m, r, prefer_canonical)
        counts = cache[r]
        pixels = layer.output_pixels
        data_ops += counts.beta / (m * m) * pixels * layer.in_channels
        inverse_ops += counts.delta / (m * m) * pixels * layer.out_channels
        filter_ops += counts.gamma * layer.in_channels * layer.out_channels
    return ComplexityBreakdown(
        m=m,
        spatial_multiplications=float(spatial_multiplications(layers)),
        winograd_multiplications=multiplication_complexity(layers, m),
        data_transform_ops=data_ops,
        filter_transform_ops=filter_ops,
        inverse_transform_ops=inverse_ops,
    )


def multiplication_reduction(
    workload: LayerOrNetwork, m_from: int, m_to: int
) -> float:
    """Relative multiplication-complexity decrease going from ``m_from`` to ``m_to``.

    This is the quantity plotted in Fig. 3 (expressed there in percent against
    the next-smaller ``m``).
    """
    before = multiplication_complexity(workload, m_from)
    after = multiplication_complexity(workload, m_to)
    return (before - after) / before
