"""Power model for FPGA accelerator designs.

Total power is modelled as a static term plus dynamic terms proportional to
the amount of active logic of each resource class, scaled linearly with clock
frequency relative to the calibration point:

.. math::

    P = P_{static} + \\frac{f}{f_{cal}} \\alpha
        (k_{LUT} N_{LUT} + k_{DSP} N_{DSP} + k_{REG} N_{REG} + k_{BRAM} N_{BRAM})

This is the standard first-order FPGA power decomposition used by vendor
estimation tools; the coefficients in :mod:`repro.hw.calibration` are fitted
to the wattages reported in Table II so that the reproduced power-efficiency
comparisons land in the right regime.  EXPERIMENTS.md records the residual
paper-vs-model differences per design point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import DEFAULT_CALIBRATION, PowerCalibration
from .resources import ResourceEstimate

__all__ = ["PowerBreakdown", "PowerModel"]


@dataclass(frozen=True)
class PowerBreakdown:
    """Per-component power of one design, in watts."""

    static_watts: float
    logic_watts: float
    dsp_watts: float
    register_watts: float
    bram_watts: float

    @property
    def dynamic_watts(self) -> float:
        """Dynamic power: logic + DSP + register + BRAM contributions."""
        return self.logic_watts + self.dsp_watts + self.register_watts + self.bram_watts

    @property
    def total_watts(self) -> float:
        """Total power: static plus dynamic."""
        return self.static_watts + self.dynamic_watts


class PowerModel:
    """Evaluate the first-order power model for resource estimates."""

    def __init__(self, calibration: PowerCalibration = DEFAULT_CALIBRATION.power) -> None:
        self.calibration = calibration

    def breakdown(
        self, resources: ResourceEstimate, frequency_mhz: float
    ) -> PowerBreakdown:
        """Compute the per-component power breakdown of a design."""
        if frequency_mhz <= 0:
            raise ValueError("frequency must be positive")
        cal = self.calibration
        scale = (frequency_mhz / cal.calibration_frequency_mhz) * cal.activity_factor
        return PowerBreakdown(
            static_watts=cal.static_watts,
            logic_watts=scale * cal.watts_per_kilo_lut * resources.luts / 1e3,
            dsp_watts=scale * cal.watts_per_dsp * resources.dsp_slices,
            register_watts=scale * cal.watts_per_kilo_register * resources.registers / 1e3,
            bram_watts=scale * cal.watts_per_megabit_bram * resources.bram_kbits / 1e3,
        )

    def total_watts(self, resources: ResourceEstimate, frequency_mhz: float) -> float:
        """Total power in watts."""
        return self.breakdown(resources, frequency_mhz).total_watts

    def batch_total_watts(self, resources, frequency_mhz):
        """Vector twin of :meth:`total_watts` over arrays of designs.

        ``resources`` is a mapping of resource-class arrays (as produced by
        :func:`repro.hw.resources.batch_linear_resources`) and
        ``frequency_mhz`` an aligned array.  Every element is computed with
        the same float operations, in the same order, as the scalar
        :meth:`breakdown` path, so results are bit-identical per design.
        """
        frequency_mhz = np.asarray(frequency_mhz)
        if np.any(frequency_mhz <= 0):
            raise ValueError("frequency must be positive")
        cal = self.calibration
        scale = (frequency_mhz / cal.calibration_frequency_mhz) * cal.activity_factor
        logic = scale * cal.watts_per_kilo_lut * resources["luts"] / 1e3
        dsp = scale * cal.watts_per_dsp * resources["dsp_slices"]
        register = scale * cal.watts_per_kilo_register * resources["registers"] / 1e3
        bram = scale * cal.watts_per_megabit_bram * resources["bram_kbits"] / 1e3
        # Same association as PowerBreakdown.total_watts:
        # static + (((logic + dsp) + register) + bram).
        return cal.static_watts + (logic + dsp + register + bram)

    def power_efficiency(
        self, throughput_gops: float, resources: ResourceEstimate, frequency_mhz: float
    ) -> float:
        """GOPS per watt — the paper's power-efficiency metric."""
        watts = self.total_watts(resources, frequency_mhz)
        if watts <= 0:
            raise ValueError("modelled power must be positive")
        return throughput_gops / watts
