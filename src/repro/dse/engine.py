"""Cached evaluation engine behind ``explore`` and campaigns.

Two pieces live here:

* :func:`evaluate_design_cached` — a drop-in for
  :func:`repro.core.design_point.evaluate_design` that routes every
  sub-computation through an :class:`~repro.dse.cache.EvaluationCache`.
  Results are bit-identical to the uncached path (the cache only memoises
  calls the uncached path would make with the same arguments).
* :func:`iter_explore` — a streaming iterator over the cross-product of
  networks x devices x sweep configurations, yielding fully evaluated
  design points in deterministic order.  :class:`ExecutorConfig` picks
  how: the serial path (the bit-identity oracle, and the only one that
  evaluates through a cache) or the vectorized batch engine of
  :mod:`repro.dse.vectorized`, which returns exactly the serial sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from ..core.design_point import DesignPoint, evaluate_design
from ..core.design_space import GridEntry, SweepSpec
from ..hw.calibration import Calibration, DEFAULT_CALIBRATION
from ..hw.device import FpgaDevice, resolve_device, virtex7_485t
from ..nn.model import Network
from ..nn.registry import resolve_network
from .cache import CacheStats, EvaluationCache, global_cache, network_fingerprint

__all__ = [
    "EXECUTOR_MODES",
    "ExecutorConfig",
    "MIN_GRID_FOR_VECTORIZED",
    "chunk_entries",
    "evaluate_design_cached",
    "iter_explore",
]

NetworkLike = Union[Network, str]
DeviceLike = Union[FpgaDevice, str]
SpecLike = Union[SweepSpec, Sequence[SweepSpec]]
CacheLike = Union[EvaluationCache, None, bool]


#: ``"auto"`` evaluates grids of at least this many entries with the
#: vectorized engine; tiny grids do not amortise the array set-up.
MIN_GRID_FOR_VECTORIZED = 32

#: Executor modes :class:`ExecutorConfig` accepts.
EXECUTOR_MODES = ("auto", "serial", "vectorized")


@dataclass(frozen=True)
class ExecutorConfig:
    """How a sweep's evaluations are executed.

    ``mode`` is ``"serial"`` (in-process, one entry at a time, through the
    evaluation cache — the bit-identity oracle), ``"vectorized"`` (each
    ``(network, device)`` cell as stacked NumPy array operations, see
    :mod:`repro.dse.vectorized`; bit-identical to serial) or ``"auto"``
    (vectorized for grids of at least :data:`MIN_GRID_FOR_VECTORIZED`
    entries, serial otherwise).
    """

    mode: str = "auto"

    def __post_init__(self) -> None:
        if self.mode not in EXECUTOR_MODES:
            raise ValueError(f"unknown executor mode {self.mode!r}")

    def choose_mode(self, total_evaluations: int, explicit_cache: bool = False) -> str:
        """Resolve the execution mode for a run of ``total_evaluations``.

        ``explicit_cache`` marks a caller-supplied
        :class:`~repro.dse.cache.EvaluationCache`: that is a request for
        evaluation *through* the cache, which only the serial path honours
        (the vectorized engine memoises nothing), so ``"auto"`` prefers
        serial then.  A forced mode wins over the cache preference.
        """
        if self.mode != "auto":
            return self.mode
        if explicit_cache or total_evaluations < MIN_GRID_FOR_VECTORIZED:
            return "serial"
        return "vectorized"


def chunk_entries(entries: Sequence[GridEntry], chunk_size: int) -> List[Tuple[GridEntry, ...]]:
    """Split ``entries`` into contiguous chunks of at most ``chunk_size``.

    Order-preserving: concatenating the chunks reproduces ``entries``
    exactly, which is what lets the service's job scheduler
    (:mod:`repro.service.jobs`) reassemble shard results into the serial
    evaluation order.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    entries = list(entries)
    return [
        tuple(entries[start : start + chunk_size])
        for start in range(0, len(entries), chunk_size)
    ]


# --------------------------------------------------------------------- #
# Cached single-point evaluation
# --------------------------------------------------------------------- #
def evaluate_design_cached(
    network: Network,
    m: int,
    r: int = 3,
    parallel_pes: Optional[int] = None,
    multiplier_budget: Optional[int] = None,
    frequency_mhz: float = 200.0,
    shared_data_transform: bool = True,
    device: Optional[FpgaDevice] = None,
    calibration: Calibration = DEFAULT_CALIBRATION,
    include_pipeline_depth: bool = True,
    name: Optional[str] = None,
    cache: CacheLike = None,
    fingerprint: Optional[str] = None,
    bit_width: Optional[int] = None,
) -> DesignPoint:
    """Memoised twin of :func:`repro.core.design_point.evaluate_design`.

    Identical semantics and results; repeated evaluations with overlapping
    ``(m, r)``, engine or workload sub-problems are served from ``cache``
    (the process-wide cache when ``None``; ``False`` falls through to the
    uncached evaluator).  Infeasible configurations raise the same
    ``ValueError`` as the uncached path — and the failure itself is
    memoised, so re-probing an infeasible corner of the grid is free.
    """
    if cache is False:
        return evaluate_design(
            network,
            m=m,
            r=r,
            parallel_pes=parallel_pes,
            multiplier_budget=multiplier_budget,
            frequency_mhz=frequency_mhz,
            shared_data_transform=shared_data_transform,
            device=device,
            calibration=calibration,
            include_pipeline_depth=include_pipeline_depth,
            name=name,
            bit_width=bit_width,
        )
    cache = cache if cache is not None else global_cache()
    device = device or virtex7_485t()
    fingerprint = fingerprint or network_fingerprint(network)
    key = (
        fingerprint,
        device,
        calibration,
        m,
        r,
        parallel_pes,
        multiplier_budget,
        frequency_mhz,
        shared_data_transform,
        include_pipeline_depth,
        name,
        bit_width,
    )
    entry = cache.lookup_point(key)
    if entry is not None:
        status, value = entry
        if status == "err":
            # Replay the original exception class and args so callers see
            # the same error whether the probe was cached or not.
            error_type, error_args = value
            raise error_type(*error_args)
        return _detached(value)

    try:
        point = evaluate_design(
            network,
            m=m,
            r=r,
            parallel_pes=parallel_pes,
            multiplier_budget=multiplier_budget,
            frequency_mhz=frequency_mhz,
            shared_data_transform=shared_data_transform,
            device=device,
            calibration=calibration,
            include_pipeline_depth=include_pipeline_depth,
            name=name,
            components=_CachedComponents(cache, fingerprint),
            bit_width=bit_width,
        )
    except ValueError as error:
        cache.store_point(key, ("err", (type(error), error.args)))
        raise
    cache.store_point(key, ("ok", point))
    return _detached(point)


def _detached(point: DesignPoint) -> DesignPoint:
    """Copy of a cached point whose mutable latency mapping is private.

    Cached points (and the latency reports they embed) are shared across
    callers and processes-lifetime; handing each caller its own
    ``group_latency_ms`` dict means mutating a result can never corrupt
    later cache hits.  Everything else on the point is immutable or
    provenance-only.
    """
    latency = point.latency
    return replace(
        point,
        latency=replace(latency, group_latency_ms=dict(latency.group_latency_ms)),
    )


class _CachedComponents:
    """Component provider backed by an :class:`EvaluationCache`.

    Plugged into :func:`repro.core.design_point.evaluate_design` so the
    cached and uncached evaluators share one body — the only difference is
    where each sub-model result comes from.
    """

    def __init__(self, cache: EvaluationCache, fingerprint: str) -> None:
        self._cache = cache
        self._fingerprint = fingerprint

    def engine(self, config, device, calibration):
        """Memoised engine resource/performance model for ``config``."""
        return self._cache.engine(config, device, calibration)

    def latency(self, network, m, pes, frequency_mhz, r, pipeline_depth):
        """Memoised per-network latency report."""
        return self._cache.latency(
            self._fingerprint, network, m, pes, frequency_mhz, r, pipeline_depth
        )

    def spatial_multiplications(self, network):
        """Memoised spatial multiplication count of ``network``."""
        return self._cache.spatial_multiplications(self._fingerprint, network)

    def multiplication_complexity(self, network, m):
        """Memoised Winograd multiplication complexity for tile ``m``."""
        return self._cache.multiplication_complexity(self._fingerprint, network, m)

    def implementation_transform_complexity(self, network, m, parallel_pes):
        """Memoised implementation transform operation count."""
        return self._cache.implementation_transform_complexity(
            self._fingerprint, network, m, parallel_pes
        )

    def tile_error_stats(self, m, r, bit_width):
        """Memoised calibration-table entry for ``(m, r, bit_width)``."""
        return self._cache.tile_error_stats(m, r, bit_width)


# --------------------------------------------------------------------- #
# Grid evaluation (serial oracle and vectorized batch)
# --------------------------------------------------------------------- #
def _evaluate_entry(
    network: Network,
    device: FpgaDevice,
    calibration: Calibration,
    entry: GridEntry,
    skip_infeasible: bool,
    cache: CacheLike,
    fingerprint: Optional[str],
) -> Optional[DesignPoint]:
    """Evaluate one grid entry with the seed ``explore`` feasibility rules."""
    try:
        point = evaluate_design_cached(
            network,
            m=entry.m,
            r=entry.r,
            multiplier_budget=entry.multiplier_budget,
            frequency_mhz=entry.frequency_mhz,
            shared_data_transform=entry.shared_data_transform,
            device=device,
            calibration=calibration,
            cache=cache,
            fingerprint=fingerprint,
            bit_width=entry.bit_width,
        )
    except ValueError:
        if skip_infeasible:
            return None
        raise
    if skip_infeasible and not point.resources.fits(device):
        return None
    if (
        skip_infeasible
        and entry.error_budget is not None
        and point.max_rel_error > entry.error_budget
    ):
        return None
    return point


def _ensure_tuple(value, scalar_types: tuple) -> tuple:
    """Wrap a bare scalar (a name would otherwise iterate per character)
    into a one-element tuple; materialize any other iterable."""
    if isinstance(value, scalar_types):
        return (value,)
    return tuple(value)


def _normalize_specs(spec: SpecLike) -> Tuple[SweepSpec, ...]:
    specs = _ensure_tuple(spec, (SweepSpec,))
    if not specs or not all(isinstance(item, SweepSpec) for item in specs):
        raise TypeError("spec must be a SweepSpec or a non-empty sequence of SweepSpecs")
    return specs


def _normalize_networks(networks: Union[NetworkLike, Sequence[NetworkLike]]) -> List[Network]:
    resolved = [
        resolve_network(network) for network in _ensure_tuple(networks, (Network, str))
    ]
    if not resolved:
        raise ValueError("at least one network is required")
    return resolved


def _normalize_devices(
    devices: Union[DeviceLike, Sequence[DeviceLike], None]
) -> List[FpgaDevice]:
    if devices is None:
        return [virtex7_485t()]
    resolved = [
        resolve_device(device) for device in _ensure_tuple(devices, (FpgaDevice, str))
    ]
    if not resolved:
        raise ValueError("at least one device is required")
    return resolved


def iter_explore(
    networks: Union[NetworkLike, Sequence[NetworkLike]],
    spec: SpecLike = SweepSpec(),
    devices: Union[DeviceLike, Sequence[DeviceLike], None] = None,
    calibration: Calibration = DEFAULT_CALIBRATION,
    skip_infeasible: bool = True,
    cache: CacheLike = None,
    executor: Optional[ExecutorConfig] = None,
    stats_out: Optional[CacheStats] = None,
) -> Iterator[DesignPoint]:
    """Stream design points for a networks x devices x sweeps cross-product.

    Points are yielded in deterministic order — network-major, then device,
    then sweep-spec, then the spec's canonical grid order — regardless of the
    execution mode, so serial and vectorized runs are interchangeable.

    ``networks`` and ``devices`` accept registry names (see
    :func:`repro.nn.registry.get_network` / :func:`repro.hw.device.get_device`)
    as well as concrete objects.  On the serial path ``cache=None`` uses the
    process-wide cache, ``cache=False`` disables memoisation and a
    caller-supplied :class:`EvaluationCache` serves every evaluation.

    ``stats_out``, when given, accumulates the cache hits/misses incurred by
    this call.  Attribution works by snapshotting the serving cache's
    counters around the run, so when several explorations share one cache
    *concurrently* (threads, or interleaved generators) the split between
    them is approximate.

    ``executor=None`` runs strictly serially — the safe library default.
    Pass ``ExecutorConfig(mode="vectorized")`` to evaluate each cell as
    stacked NumPy array operations (bit-identical results, an order of
    magnitude faster on Fig. 6-scale grids; no cache traffic, so
    ``stats_out`` stays untouched); ``mode="auto"`` picks the vectorized
    engine for grids of :data:`MIN_GRID_FOR_VECTORIZED` entries or more.
    """
    nets = _normalize_networks(networks)
    devs = _normalize_devices(devices)
    specs = _normalize_specs(spec)
    executor = executor or ExecutorConfig(mode="serial")

    entries: List[GridEntry] = [
        entry for one_spec in specs for entry in one_spec.configurations()
    ]
    total = len(nets) * len(devs) * len(entries)
    if total == 0:
        return

    use_cache = cache is not False
    explicit_cache = isinstance(cache, EvaluationCache)
    shared_cache = (cache if explicit_cache else global_cache()) if use_cache else False

    # A caller-supplied cache is a request for evaluation *through* that
    # cache, which only the serial path honours — the vectorized engine
    # memoises nothing — so auto mode prefers the serial path then.
    # Forcing mode="vectorized" overrides (the explicit mode wins over the
    # cache preference), but the supplied cache then goes unused — warn
    # rather than silently ignore it.
    mode = executor.choose_mode(total, explicit_cache=explicit_cache)
    if mode != "serial" and explicit_cache:
        import warnings

        warnings.warn(
            "iter_explore: the supplied EvaluationCache cannot serve the "
            "vectorized executor (it memoises nothing); use mode='auto' or "
            "'serial' to evaluate through it",
            RuntimeWarning,
            stacklevel=2,
        )

    if mode == "vectorized":
        from .vectorized import evaluate_cell_batch

        for network in nets:
            for device in devs:
                batch = evaluate_cell_batch(
                    network, device, calibration, entries, skip_infeasible
                )
                yield from batch.feasible()
                if batch.pending_error is not None:
                    raise batch.pending_error
        return

    before = shared_cache.total if use_cache else CacheStats()
    try:
        for network in nets:
            fingerprint = network_fingerprint(network) if use_cache else None
            for device in devs:
                for entry in entries:
                    point = _evaluate_entry(
                        network, device, calibration, entry, skip_infeasible,
                        shared_cache, fingerprint,
                    )
                    if point is not None:
                        yield point
    finally:
        if stats_out is not None and use_cache:
            delta = shared_cache.total.delta_since(before)
            stats_out.hits += delta.hits
            stats_out.misses += delta.misses
