"""Declarative experiment specifications.

An :class:`ExperimentSpec` is the fully declarative, validated description of
one exploration experiment: which networks and devices (by registry name),
which sweep grids, which search strategy walks them, which objectives and
metrics the report cares about, and how evaluation executes (cache /
executor).  Specs are frozen, picklable, diffable artifacts with a lossless
``to_dict``/``from_dict`` JSON round-trip, so an experiment can be saved to a
file, reviewed, versioned, resumed and re-run bit-identically — the search
*specification* is first-class data, separate from the solver that executes
it (see :mod:`repro.experiments.strategies`).

>>> from repro.experiments import ExperimentSpec
>>> spec = ExperimentSpec(networks=("vgg16-d", "alexnet"), strategy="grid")
>>> ExperimentSpec.from_dict(spec.to_dict()) == spec
True
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from ..core.design_space import SweepSpec
from ..core.pareto import ObjectiveLike, normalize_objectives
from ..dse.campaign import DEFAULT_OBJECTIVES
from ..dse.engine import ExecutorConfig
from ..hw.calibration import (
    Calibration,
    DEFAULT_CALIBRATION,
    PowerCalibration,
    ResourceCalibration,
)
from ..hw.device import FpgaDevice
from ..nn.model import Network

__all__ = [
    "EXPERIMENT_SCHEMA",
    "canonical_json_hash",
    "StrategySpec",
    "ExperimentSpec",
    "calibration_to_dict",
    "calibration_from_dict",
    "executor_to_dict",
    "executor_from_dict",
]

#: Versioned schema tag embedded in every serialized spec.
EXPERIMENT_SCHEMA = "repro.experiment/1"


def canonical_json_hash(data: dict) -> str:
    """sha256 over the canonical (sorted-key, whitespace-free) JSON form.

    The one canonicalization policy shared by spec fingerprints and the
    :mod:`repro.service` store's content keys — a single definition so the
    two can never drift apart.
    """
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()

_JSON_SCALARS = (str, int, float, bool, type(None))


def _freeze_param(value: Any) -> Any:
    """Normalize a strategy parameter to an immutable, JSON-safe value.

    Sequences become tuples (so a spec read back from JSON — where tuples
    decode as lists — compares equal to the original), scalars pass through,
    anything else is rejected.
    """
    if isinstance(value, bool) or isinstance(value, _JSON_SCALARS):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_param(item) for item in value)
    raise ValueError(
        f"strategy parameters must be JSON-serializable scalars or sequences, got {value!r}"
    )


def _thaw_param(value: Any) -> Any:
    """Inverse of :func:`_freeze_param` for JSON emission (tuples -> lists)."""
    if isinstance(value, tuple):
        return [_thaw_param(item) for item in value]
    return value


@dataclass(frozen=True)
class StrategySpec:
    """A search strategy referenced by registry name plus its parameters.

    ``params`` are keyword arguments for the strategy's constructor (see
    :func:`repro.experiments.get_strategy`); they are normalized to
    immutable JSON-safe values at construction so two specs describing the
    same strategy always compare equal.
    """

    name: str
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("strategy name must be a non-empty string")
        if not isinstance(self.params, dict):
            raise ValueError(
                f"strategy params must be a mapping, got {type(self.params).__name__}"
            )
        frozen = {}
        for key, value in self.params.items():
            if not isinstance(key, str):
                raise ValueError(f"strategy parameter names must be strings, got {key!r}")
            frozen[key] = _freeze_param(value)
        object.__setattr__(self, "params", frozen)

    def to_dict(self) -> dict:
        """JSON-ready form (tuples thawed back to lists)."""
        return {
            "name": self.name,
            "params": {key: _thaw_param(value) for key, value in self.params.items()},
        }

    @classmethod
    def from_dict(cls, data: Union[str, dict]) -> "StrategySpec":
        """Rebuild from :meth:`to_dict` output or a bare strategy name."""
        if isinstance(data, str):
            return cls(data)
        if not isinstance(data, dict):
            raise ValueError(f"strategy must be a name or mapping, got {type(data).__name__}")
        unknown = set(data) - {"name", "params"}
        if unknown:
            raise ValueError(f"unknown strategy fields {sorted(unknown)}")
        if "name" not in data:
            raise ValueError("strategy mapping requires a 'name'")
        return cls(data["name"], dict(data.get("params") or {}))


# --------------------------------------------------------------------- #
# Calibration / executor serialization helpers
# --------------------------------------------------------------------- #
def calibration_to_dict(calibration: Calibration) -> dict:
    """Flatten a :class:`Calibration` bundle into plain JSON-ready dicts."""
    return {
        "resources": dict(vars(calibration.resources)),
        "power": dict(vars(calibration.power)),
    }


def calibration_from_dict(data: Optional[dict]) -> Calibration:
    """Rebuild a :class:`Calibration`; ``None`` means the library default."""
    if data is None:
        return DEFAULT_CALIBRATION
    if not isinstance(data, dict):
        raise ValueError(f"calibration must be a mapping, got {type(data).__name__}")
    unknown = set(data) - {"resources", "power"}
    if unknown:
        raise ValueError(f"unknown calibration fields {sorted(unknown)}")
    try:
        return Calibration(
            resources=ResourceCalibration(**data.get("resources", {})),
            power=PowerCalibration(**data.get("power", {})),
        )
    except TypeError as error:
        raise ValueError(f"invalid calibration: {error}") from None


#: Executor fields earlier versions wrote (process-pool sizing and the
#: auto-mode thresholds, now fixed); loading drops them.
RETIRED_EXECUTOR_FIELDS = (
    "max_workers",
    "chunk_size",
    "min_grid_for_processes",
    "min_grid_for_vectorized",
)


def executor_to_dict(executor: Optional[ExecutorConfig]) -> Optional[dict]:
    """Flatten an :class:`ExecutorConfig` to JSON (``None`` passes through)."""
    if executor is None:
        return None
    return {"mode": executor.mode}


def executor_from_dict(data: Optional[dict]) -> Optional[ExecutorConfig]:
    """Inverse of :func:`executor_to_dict` (invalid mappings raise).

    Also reads every mapping earlier versions wrote: the
    :data:`RETIRED_EXECUTOR_FIELDS` are dropped and the retired
    ``"process"`` mode loads as ``"auto"``.  The executor never changes
    results, so a legacy spec keeps its fingerprint.
    """
    if data is None:
        return None
    if not isinstance(data, dict):
        raise ValueError(f"executor must be a mapping, got {type(data).__name__}")
    data = {key: value for key, value in data.items() if key not in RETIRED_EXECUTOR_FIELDS}
    if data.get("mode") == "process":
        data["mode"] = "auto"
    try:
        return ExecutorConfig(**data)
    except TypeError as error:
        raise ValueError(f"invalid executor config: {error}") from None


def _name_tuple(values: Any, what: str) -> Tuple[str, ...]:
    if isinstance(values, (str, Network, FpgaDevice)):
        values = (values,)
    values = tuple(values)
    if not values:
        raise ValueError(f"at least one {what} is required")
    names = []
    for value in values:
        if isinstance(value, (Network, FpgaDevice)):
            value = value.name
        if not isinstance(value, str) or not value:
            raise ValueError(
                f"{what} entries must be registry names (non-empty strings), got {value!r}"
            )
        names.append(value)
    return tuple(names)


@dataclass(frozen=True)
class ExperimentSpec:
    """Frozen, validated, fully declarative description of an experiment.

    Everything is referenced by value or by registry name — never by live
    object — so a spec can be serialized losslessly, diffed, pickled and
    executed later (or elsewhere) with identical results.

    Attributes
    ----------
    networks / devices:
        Registry names (see :func:`repro.nn.register_network` and
        :func:`repro.hw.register_device`).  Passing a concrete ``Network``
        or ``FpgaDevice`` records its ``name``.
    sweeps:
        One or more :class:`SweepSpec` grids, concatenated per cell.
    strategy:
        The :class:`StrategySpec` (or bare name) of the search strategy that
        walks the grid — ``"grid"``, ``"random"``, ``"pareto-refine"`` or
        any registered custom strategy.
    objectives:
        ``(metric, maximize)`` pairs used for Pareto analysis (and by
        front-guided strategies).
    metrics:
        Metric names the report/CLI highlights.
    calibration:
        Model calibration constants, embedded by value.
    executor:
        Optional :class:`ExecutorConfig`; ``None`` evaluates serially.
    cache:
        Whether evaluation may memoise through the process-wide cache.
    """

    networks: Sequence[Union[str, Network]]
    devices: Sequence[Union[str, FpgaDevice]] = ("xc7vx485t",)
    sweeps: Sequence[SweepSpec] = (SweepSpec(),)
    strategy: Union[StrategySpec, str] = StrategySpec("grid")
    objectives: Sequence[ObjectiveLike] = DEFAULT_OBJECTIVES
    metrics: Sequence[str] = ("throughput_gops", "power_efficiency", "total_latency_ms")
    skip_infeasible: bool = True
    calibration: Calibration = DEFAULT_CALIBRATION
    executor: Optional[ExecutorConfig] = None
    cache: bool = True
    name: str = "experiment"

    def __post_init__(self) -> None:
        object.__setattr__(self, "networks", _name_tuple(self.networks, "network"))
        object.__setattr__(self, "devices", _name_tuple(self.devices, "device"))
        sweeps = (self.sweeps,) if isinstance(self.sweeps, SweepSpec) else tuple(self.sweeps)
        if not sweeps or not all(isinstance(sweep, SweepSpec) for sweep in sweeps):
            raise ValueError("sweeps must be a SweepSpec or a non-empty sequence of SweepSpecs")
        object.__setattr__(self, "sweeps", sweeps)
        strategy = self.strategy
        if isinstance(strategy, str):
            strategy = StrategySpec(strategy)
        if not isinstance(strategy, StrategySpec):
            raise ValueError(
                f"strategy must be a StrategySpec or name, got {type(strategy).__name__}"
            )
        object.__setattr__(self, "strategy", strategy)
        object.__setattr__(self, "objectives", normalize_objectives(self.objectives))
        metrics = (self.metrics,) if isinstance(self.metrics, str) else tuple(self.metrics)
        if not metrics or not all(isinstance(metric, str) and metric for metric in metrics):
            raise ValueError("metrics must be a non-empty sequence of metric names")
        object.__setattr__(self, "metrics", metrics)
        if not isinstance(self.calibration, Calibration):
            raise ValueError(
                f"calibration must be a Calibration, got {type(self.calibration).__name__}"
            )
        if self.executor is not None and not isinstance(self.executor, ExecutorConfig):
            raise ValueError(
                f"executor must be an ExecutorConfig or None, got {type(self.executor).__name__}"
            )
        if not isinstance(self.skip_infeasible, bool) or not isinstance(self.cache, bool):
            raise ValueError("skip_infeasible and cache must be booleans")
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("experiment name must be a non-empty string")

    # ------------------------------------------------------------------ #
    @property
    def grid_size(self) -> int:
        """Total configurations in the full grid (strategies may probe fewer)."""
        per_cell = sum(sweep.size for sweep in self.sweeps)
        return len(self.networks) * len(self.devices) * per_cell

    def with_strategy(self, strategy: Union[StrategySpec, str], **params: Any) -> "ExperimentSpec":
        """Copy of the spec with a different search strategy."""
        if isinstance(strategy, str):
            strategy = StrategySpec(strategy, params)
        elif params:
            raise ValueError("pass params either in the StrategySpec or as kwargs, not both")
        return replace(self, strategy=strategy)

    #: ``to_dict`` keys that tune *how* evaluation executes without
    #: affecting *what* it computes (every executor mode is bit-identical
    #: and the cache only memoises): excluded from the fingerprint so
    #: results computed under any execution settings are interchangeable.
    EXECUTION_ONLY_FIELDS = ("executor", "cache")

    def fingerprint(self) -> str:
        """Stable content hash identifying this spec's search semantics.

        Computed over the canonical (sorted-key, whitespace-free) JSON
        form of :meth:`to_dict` minus the execution-tuning fields
        (:attr:`EXECUTION_ONLY_FIELDS`) — two specs that describe the same
        search share a fingerprint however they were constructed and
        however their evaluation is executed, while any semantic change
        (a sweep value, an objective, a network) produces a fresh one.
        This is the primary key the :class:`repro.service.ResultStore`
        indexes campaign results under.
        """
        data = {
            key: value
            for key, value in self.to_dict().items()
            if key not in self.EXECUTION_ONLY_FIELDS
        }
        return canonical_json_hash(data)

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """Lossless JSON-ready representation; inverse of :meth:`from_dict`."""
        return {
            "schema": EXPERIMENT_SCHEMA,
            "name": self.name,
            "networks": list(self.networks),
            "devices": list(self.devices),
            "sweeps": [sweep.to_dict() for sweep in self.sweeps],
            "strategy": self.strategy.to_dict(),
            "objectives": [[metric, maximize] for metric, maximize in self.objectives],
            "metrics": list(self.metrics),
            "skip_infeasible": self.skip_infeasible,
            "calibration": calibration_to_dict(self.calibration),
            "executor": executor_to_dict(self.executor),
            "cache": self.cache,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        Unknown keys and schema mismatches raise ``ValueError`` so a typo in
        a hand-written spec file fails loudly instead of being ignored.
        """
        if not isinstance(data, dict):
            raise ValueError(f"experiment spec must be a mapping, got {type(data).__name__}")
        schema = data.get("schema", EXPERIMENT_SCHEMA)
        if schema != EXPERIMENT_SCHEMA:
            raise ValueError(
                f"unsupported experiment schema {schema!r}; expected {EXPERIMENT_SCHEMA!r}"
            )
        known = {
            "schema", "name", "networks", "devices", "sweeps", "strategy",
            "objectives", "metrics", "skip_infeasible", "calibration",
            "executor", "cache",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown experiment fields {sorted(unknown)}; known fields: {sorted(known)}"
            )
        if "networks" not in data:
            raise ValueError("experiment spec requires 'networks'")
        kwargs: Dict[str, Any] = {"networks": data["networks"]}
        if "devices" in data:
            kwargs["devices"] = data["devices"]
        if "sweeps" in data:
            sweeps = data["sweeps"]
            if not isinstance(sweeps, (list, tuple)):
                raise ValueError("sweeps must be a list of sweep mappings")
            kwargs["sweeps"] = tuple(SweepSpec.from_dict(sweep) for sweep in sweeps)
        if "strategy" in data:
            kwargs["strategy"] = StrategySpec.from_dict(data["strategy"])
        if "objectives" in data:
            if not isinstance(data["objectives"], (list, tuple)):
                raise ValueError("objectives must be a list")
            # Keep scalar entries (bare metric names, the single-pair
            # shorthand) intact for the constructor's normalization; only
            # JSON lists become tuples.
            kwargs["objectives"] = tuple(
                tuple(pair) if isinstance(pair, (list, tuple)) else pair
                for pair in data["objectives"]
            )
        if "metrics" in data:
            kwargs["metrics"] = tuple(data["metrics"])
        if "skip_infeasible" in data:
            kwargs["skip_infeasible"] = data["skip_infeasible"]
        if "calibration" in data:
            kwargs["calibration"] = calibration_from_dict(data["calibration"])
        if "executor" in data:
            kwargs["executor"] = executor_from_dict(data["executor"])
        if "cache" in data:
            kwargs["cache"] = data["cache"]
        if "name" in data:
            kwargs["name"] = data["name"]
        return cls(**kwargs)

    # ------------------------------------------------------------------ #
    def to_json(self, indent: int = 2) -> str:
        """The spec as pretty-printed JSON text."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Rebuild a spec from its :meth:`to_json` text."""
        return cls.from_dict(json.loads(text))

    def save(self, path: Union[str, Path]) -> Path:
        """Write the spec to a JSON file; returns the path written."""
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ExperimentSpec":
        """Read a spec from a JSON file."""
        return cls.from_json(Path(path).read_text())
