"""Clock-frequency model.

The paper runs every design at a flat 200 MHz; this module provides a simple
critical-path model so the design-space exploration can check that a target
frequency is actually plausible for a given pipeline structure and flag
configurations whose combinational stages have grown too deep (large ``m``
transforms have wide adder trees which, if not further pipelined, lower the
achievable clock).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .calibration import DEFAULT_CALIBRATION, ResourceCalibration
from .datapath import StageDatapath

__all__ = [
    "TimingEstimate",
    "estimate_fmax",
    "achievable_frequency",
    "batch_cycle_time_ms",
    "batch_estimate_fmax",
]

#: Approximate propagation delay of one LUT level plus local routing (ns).
_LUT_LEVEL_DELAY_NS = 0.9
#: Levels of logic of one pipelined floating-point add stage.
_FP_ADD_LEVELS = 4
#: Levels of logic of one pipelined floating-point multiply stage.
_FP_MUL_LEVELS = 3
#: Fixed clocking overhead (clock-to-out, setup, skew) in ns.
_CLOCK_OVERHEAD_NS = 0.8


@dataclass(frozen=True)
class TimingEstimate:
    """Result of the critical-path estimate."""

    critical_path_ns: float
    fmax_mhz: float

    def supports(self, frequency_mhz: float) -> bool:
        """Whether the design closes timing at ``frequency_mhz``."""
        return frequency_mhz <= self.fmax_mhz


def estimate_fmax(levels_of_logic: int) -> TimingEstimate:
    """Estimate the maximum clock frequency for a path with N LUT levels."""
    if levels_of_logic < 1:
        levels_of_logic = 1
    path_ns = _CLOCK_OVERHEAD_NS + levels_of_logic * _LUT_LEVEL_DELAY_NS
    return TimingEstimate(critical_path_ns=path_ns, fmax_mhz=1e3 / path_ns)


def batch_cycle_time_ms(frequencies_mhz):
    """Clock-cycle time in milliseconds for an array of clock frequencies.

    Vector twin of the ``1e3 / (frequency_mhz * 1e6)`` expression of the
    latency model (Eq. (9)); identical operation order keeps every element
    bit-identical to the scalar path.
    """
    return 1e3 / (np.asarray(frequencies_mhz) * 1e6)


def batch_estimate_fmax(levels_of_logic):
    """Vector twin of :func:`estimate_fmax` (fmax in MHz per path depth)."""
    levels = np.maximum(np.asarray(levels_of_logic), 1)
    return 1e3 / (_CLOCK_OVERHEAD_NS + levels * _LUT_LEVEL_DELAY_NS)


def achievable_frequency(
    stages: Iterable[StageDatapath],
    calibration: ResourceCalibration = DEFAULT_CALIBRATION.resources,
) -> TimingEstimate:
    """Estimate fmax of an engine from its pipeline stages.

    Every stage is internally pipelined at operator granularity (each adder or
    multiplier registers its result — that is what the stage's pipeline depth
    counts), so the combinational critical path per clock is one floating-point
    operator plus its fan-out/fan-in routing.  Stages with very wide fan-out
    (the shared data transform broadcasting to many PEs) incur one extra level
    of routing per factor-of-8 fan-out, which is approximated by the operator
    count heuristic below.
    """
    worst_levels = _FP_ADD_LEVELS
    for stage in stages:
        if stage.operator_count == 0:
            continue
        levels = _FP_MUL_LEVELS if stage.name == "ewise_mult" else _FP_ADD_LEVELS
        if stage.operator_count > 512:
            levels += 2  # very wide stages pay extra routing delay
        elif stage.operator_count > 128:
            levels += 1
        worst_levels = max(worst_levels, levels)
    return estimate_fmax(worst_levels)
