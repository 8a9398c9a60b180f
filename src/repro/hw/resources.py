"""FPGA resource estimates and utilisation accounting.

:class:`ResourceEstimate` is the common currency of the hardware models: the
PE model, the engine model and the baselines all produce one, and the
reporting layer turns them into utilisation percentages against a
:class:`~repro.hw.device.FpgaDevice` exactly like the paper's Table I.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .device import FpgaDevice

__all__ = [
    "ResourceEstimate",
    "Utilization",
    "utilization",
    "batch_linear_resources",
    "batch_fits",
]


@dataclass(frozen=True)
class ResourceEstimate:
    """A bundle of FPGA resource counts.

    ``multipliers`` tracks logical (fp32) multipliers separately from the DSP
    slices that implement them, mirroring the two columns of Table I.
    """

    luts: float = 0.0
    registers: float = 0.0
    dsp_slices: int = 0
    bram_kbits: float = 0.0
    multipliers: int = 0

    def __add__(self, other: "ResourceEstimate") -> "ResourceEstimate":
        return ResourceEstimate(
            luts=self.luts + other.luts,
            registers=self.registers + other.registers,
            dsp_slices=self.dsp_slices + other.dsp_slices,
            bram_kbits=self.bram_kbits + other.bram_kbits,
            multipliers=self.multipliers + other.multipliers,
        )

    def scaled(self, factor: int) -> "ResourceEstimate":
        """Replicate the estimate ``factor`` times (e.g. per-PE -> P PEs)."""
        if factor < 0:
            raise ValueError("factor must be non-negative")
        return ResourceEstimate(
            luts=self.luts * factor,
            registers=self.registers * factor,
            dsp_slices=self.dsp_slices * factor,
            bram_kbits=self.bram_kbits * factor,
            multipliers=self.multipliers * factor,
        )

    def fits(self, device: FpgaDevice) -> bool:
        """Whether the estimate fits within a device's resources."""
        return (
            self.luts <= device.luts
            and self.registers <= device.registers
            and self.dsp_slices <= device.dsp_slices
            and self.bram_kbits <= device.bram_kbits
        )

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view used by the reporting layer."""
        return {
            "luts": self.luts,
            "registers": self.registers,
            "dsp_slices": self.dsp_slices,
            "bram_kbits": self.bram_kbits,
            "multipliers": self.multipliers,
        }


@dataclass(frozen=True)
class Utilization:
    """Resource utilisation of an estimate against a device, in percent."""

    device: FpgaDevice
    luts_pct: float
    registers_pct: float
    dsp_pct: float
    bram_pct: float

    @property
    def bottleneck(self) -> str:
        """Name of the most utilised resource class."""
        usage = {
            "luts": self.luts_pct,
            "registers": self.registers_pct,
            "dsp_slices": self.dsp_pct,
            "bram": self.bram_pct,
        }
        return max(usage, key=usage.get)

    @property
    def feasible(self) -> bool:
        """Whether every resource class stays at or below 100 %."""
        return max(self.luts_pct, self.registers_pct, self.dsp_pct, self.bram_pct) <= 100.0


def batch_linear_resources(
    base: ResourceEstimate, slope: ResourceEstimate, factors
) -> Dict[str, "object"]:
    """Vector twin of ``base + slope.scaled(P)`` over an array of ``P`` values.

    ``factors`` is an integer array (one replication count per design); the
    result maps each resource class to an array computed with exactly the
    float operations — and operation order — of the scalar
    ``base + slope.scaled(P)`` path, so every element is bit-identical to
    its scalar counterpart.  LUT/register/BRAM arrays are float64,
    DSP/multiplier arrays stay integral.
    """
    factors = np.asarray(factors)
    return {
        "luts": base.luts + slope.luts * factors,
        "registers": base.registers + slope.registers * factors,
        "dsp_slices": base.dsp_slices + slope.dsp_slices * factors,
        "bram_kbits": base.bram_kbits + slope.bram_kbits * factors,
        "multipliers": base.multipliers + slope.multipliers * factors,
    }


def batch_fits(resources: Dict[str, "object"], device: FpgaDevice):
    """Vector twin of :meth:`ResourceEstimate.fits` over resource arrays.

    Takes the mapping produced by :func:`batch_linear_resources` and returns
    a boolean array; elementwise comparisons mirror the scalar conjunction.
    """
    return (
        (resources["luts"] <= device.luts)
        & (resources["registers"] <= device.registers)
        & (resources["dsp_slices"] <= device.dsp_slices)
        & (resources["bram_kbits"] <= device.bram_kbits)
    )


def utilization(estimate: ResourceEstimate, device: FpgaDevice) -> Utilization:
    """Compute percentage utilisation of ``estimate`` on ``device``."""
    return Utilization(
        device=device,
        luts_pct=100.0 * estimate.luts / device.luts,
        registers_pct=100.0 * estimate.registers / device.registers,
        dsp_pct=100.0 * estimate.dsp_slices / device.dsp_slices,
        bram_pct=100.0 * estimate.bram_kbits / device.bram_kbits,
    )
