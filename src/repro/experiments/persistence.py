"""Versioned JSON persistence for evaluated campaign results.

A saved result embeds the declarative :class:`ExperimentSpec` it came from,
every feasible :class:`DesignPoint` and the run bookkeeping — enough to
reload, re-analyse and re-report without re-evaluating anything, or to diff
two runs of the same spec.

Round-trip fidelity: JSON serializes Python floats via their shortest
``repr``, which parses back to the exact same double, so a loaded result's
points compare equal to the in-memory originals (the provenance-only
``engine`` model is not persisted; it is excluded from equality).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from ..core.design_point import DesignPoint
from ..core.throughput import LatencyReport
from ..dse.cache import CacheStats
from ..dse.campaign import CampaignResult
from ..hw.resources import ResourceEstimate
from .spec import ExperimentSpec

__all__ = [
    "RESULT_SCHEMA",
    "point_to_dict",
    "point_from_dict",
    "result_to_dict",
    "result_from_dict",
    "save_result",
    "load_result",
]

#: Versioned schema tag embedded in every serialized result.
RESULT_SCHEMA = "repro.campaign-result/1"


def point_to_dict(point: DesignPoint) -> dict:
    """JSON-ready representation of one design point (engine omitted)."""
    return {
        "name": point.name,
        "m": point.m,
        "r": point.r,
        "parallel_pes": point.parallel_pes,
        "multipliers": point.multipliers,
        "frequency_mhz": point.frequency_mhz,
        "shared_data_transform": point.shared_data_transform,
        "device_name": point.device_name,
        "precision": point.precision,
        "latency": {
            "m": point.latency.m,
            "r": point.latency.r,
            "parallel_pes": point.latency.parallel_pes,
            "frequency_mhz": point.latency.frequency_mhz,
            "pipeline_depth": point.latency.pipeline_depth,
            "group_latency_ms": dict(point.latency.group_latency_ms),
            "total_latency_ms": point.latency.total_latency_ms,
            "spatial_ops": point.latency.spatial_ops,
        },
        "throughput_gops": point.throughput_gops,
        "multiplier_efficiency": point.multiplier_efficiency,
        "resources": {
            "luts": point.resources.luts,
            "registers": point.resources.registers,
            "dsp_slices": point.resources.dsp_slices,
            "bram_kbits": point.resources.bram_kbits,
            "multipliers": point.resources.multipliers,
        },
        "power_watts": point.power_watts,
        "power_efficiency": point.power_efficiency,
        "spatial_multiplications": point.spatial_multiplications,
        "winograd_multiplications": point.winograd_multiplications,
        "implementation_transform_ops": point.implementation_transform_ops,
        "workload_name": point.workload_name,
        "bit_width": point.bit_width,
        "max_rel_error": point.max_rel_error,
        "mean_rel_error": point.mean_rel_error,
    }


def point_from_dict(data: dict) -> DesignPoint:
    """Rebuild a :class:`DesignPoint` from :func:`point_to_dict` output.

    The ``engine`` provenance model is not persisted and comes back as
    ``None``; it is excluded from design-point equality, so loaded points
    compare equal to their in-memory originals.
    """
    if not isinstance(data, dict):
        raise ValueError(f"design point must be a mapping, got {type(data).__name__}")
    try:
        latency = LatencyReport(
            m=data["latency"]["m"],
            r=data["latency"]["r"],
            parallel_pes=data["latency"]["parallel_pes"],
            frequency_mhz=data["latency"]["frequency_mhz"],
            pipeline_depth=data["latency"]["pipeline_depth"],
            group_latency_ms=dict(data["latency"]["group_latency_ms"]),
            total_latency_ms=data["latency"]["total_latency_ms"],
            spatial_ops=data["latency"]["spatial_ops"],
        )
        resources = ResourceEstimate(**data["resources"])
        return DesignPoint(
            name=data["name"],
            m=data["m"],
            r=data["r"],
            parallel_pes=data["parallel_pes"],
            multipliers=data["multipliers"],
            frequency_mhz=data["frequency_mhz"],
            shared_data_transform=data["shared_data_transform"],
            device_name=data["device_name"],
            precision=data["precision"],
            latency=latency,
            throughput_gops=data["throughput_gops"],
            multiplier_efficiency=data["multiplier_efficiency"],
            resources=resources,
            power_watts=data["power_watts"],
            power_efficiency=data["power_efficiency"],
            spatial_multiplications=data["spatial_multiplications"],
            winograd_multiplications=data["winograd_multiplications"],
            implementation_transform_ops=data["implementation_transform_ops"],
            engine=None,
            workload_name=data["workload_name"],
            # Accuracy fields postdate the schema; absent in old payloads.
            bit_width=data.get("bit_width"),
            max_rel_error=data.get("max_rel_error", 0.0),
            mean_rel_error=data.get("mean_rel_error", 0.0),
        )
    except KeyError as error:
        raise ValueError(f"design point is missing field {error.args[0]!r}") from None
    except TypeError as error:
        raise ValueError(f"invalid design point: {error}") from None


def result_to_dict(result: CampaignResult) -> dict:
    """JSON-ready representation of a whole evaluated campaign."""
    return {
        "schema": RESULT_SCHEMA,
        "spec": result.spec.to_dict(),
        "evaluations": result.evaluations,
        "elapsed_seconds": result.elapsed_seconds,
        "cache_stats": {
            "hits": result.cache_stats.hits,
            "misses": result.cache_stats.misses,
        },
        "points": [point_to_dict(point) for point in result.points],
    }


def result_from_dict(data: dict) -> CampaignResult:
    """Rebuild a :class:`CampaignResult` from :func:`result_to_dict` output."""
    if not isinstance(data, dict):
        raise ValueError(f"campaign result must be a mapping, got {type(data).__name__}")
    if "schema" not in data:
        raise ValueError(
            f"campaign result has no 'schema' field (not a repro campaign-result "
            f"file, or written by a pre-versioning tool); this reader supports "
            f"schema {RESULT_SCHEMA!r}"
        )
    schema = data["schema"]
    if schema != RESULT_SCHEMA:
        raise ValueError(
            f"unsupported campaign-result schema: found {schema!r}, supported "
            f"{RESULT_SCHEMA!r} (the file was written by a newer or incompatible "
            f"version of repro)"
        )
    unknown = set(data) - {
        "schema", "spec", "evaluations", "elapsed_seconds", "cache_stats", "points",
    }
    if unknown:
        raise ValueError(f"unknown campaign-result fields {sorted(unknown)}")
    spec = ExperimentSpec.from_dict(data["spec"])
    stats = data.get("cache_stats") or {}
    return CampaignResult(
        spec=spec,
        points=[point_from_dict(point) for point in data.get("points", [])],
        evaluations=data.get("evaluations", 0),
        elapsed_seconds=data.get("elapsed_seconds", 0.0),
        cache_stats=CacheStats(
            hits=stats.get("hits", 0), misses=stats.get("misses", 0)
        ),
    )


def save_result(result: CampaignResult, path: Union[str, Path]) -> Path:
    """Write a result to a JSON file; returns the path written."""
    path = Path(path)
    path.write_text(json.dumps(result_to_dict(result), indent=2) + "\n")
    return path


def load_result(path: Union[str, Path]) -> CampaignResult:
    """Read a previously saved result back from a JSON file."""
    return result_from_dict(json.loads(Path(path).read_text()))
