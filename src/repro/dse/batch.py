"""Batch evaluation of heterogeneous request sets.

:func:`repro.dse.vectorized.evaluate_cell_batch` evaluates many grid
entries of *one* ``(network, device)`` cell at once.  An online service
sees the opposite shape: a micro-batch of independent requests that may
mix networks, devices and calibrations freely.  :func:`evaluate_requests`
bridges the two — it groups a request list by cell, dispatches each group
through the vectorized engine (or, on request, the scalar evaluator) and
returns one :class:`BatchOutcome` per request, aligned
with the input order.

Guarantees:

* **Bit-identical to serial.**  Every returned point is byte-for-byte the
  point :func:`repro.core.design_point.evaluate_design` produces for the
  same request, regardless of which other requests share the batch — the
  vectorized engine computes the elementwise IEEE-754 twin of the scalar
  expressions, and grouping never mixes state between cells.  This is what
  lets a request-batching server coalesce traffic without changing any
  response.
* **Total.**  Infeasible requests do not abort the batch: their outcome
  carries the scalar path's error message (or the device-fit reason)
  instead of a point.  The vectorized engine reports skip reasons from
  the same pass that skips them (``collect_errors=True``), so failures
  cost no second evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from ..core.design_point import DesignPoint
from ..core.design_space import GridEntry
from ..hw.calibration import Calibration, DEFAULT_CALIBRATION
from ..hw.device import FpgaDevice, resolve_device
from ..nn.model import Network
from ..nn.registry import resolve_network
from .cache import network_fingerprint
from .engine import CacheLike, _evaluate_entry
from .vectorized import DOES_NOT_FIT, EXCEEDS_ERROR_BUDGET

__all__ = ["EvalRequest", "BatchOutcome", "evaluate_requests"]


class EvalRequest(NamedTuple):
    """One ad-hoc design-point evaluation request.

    ``network`` and ``device`` accept registry names as well as concrete
    objects; ``entry`` is the fully specified grid configuration.
    """

    network: Union[Network, str]
    device: Union[FpgaDevice, str]
    entry: GridEntry
    calibration: Calibration = DEFAULT_CALIBRATION


@dataclass(frozen=True)
class BatchOutcome:
    """Result of one request: a design point, or why there is none.

    Exactly one of ``point``/``error`` is set.  ``error`` carries the
    scalar evaluator's ``ValueError`` message for infeasible
    configurations, or a device-fit message when the design evaluates but
    exceeds the device budget.
    """

    point: Optional[DesignPoint] = None
    error: Optional[str] = None

    @property
    def feasible(self) -> bool:
        """True when the request produced a design point."""
        return self.point is not None


def _serial_outcome(
    network: Network,
    device: FpgaDevice,
    calibration: Calibration,
    entry: GridEntry,
    cache: CacheLike,
    fingerprint: Optional[str],
) -> BatchOutcome:
    """One request through the scalar path — a single evaluation."""
    try:
        point = _evaluate_entry(
            network, device, calibration, entry,
            skip_infeasible=False, cache=cache, fingerprint=fingerprint,
        )
    except ValueError as error:
        return BatchOutcome(error=str(error))
    if not point.resources.fits(device):
        return BatchOutcome(error=DOES_NOT_FIT.format(device=device.name))
    if entry.error_budget is not None and point.max_rel_error > entry.error_budget:
        return BatchOutcome(
            error=EXCEEDS_ERROR_BUDGET.format(
                error=point.max_rel_error, budget=entry.error_budget
            )
        )
    return BatchOutcome(point=point)


def evaluate_requests(
    requests: Sequence[EvalRequest],
    cache: CacheLike = None,
    vectorized: bool = True,
) -> List[BatchOutcome]:
    """Evaluate a heterogeneous request batch; one outcome per request.

    Requests are grouped by ``(network, device, calibration)`` cell and
    each group is evaluated as one stacked NumPy batch
    (:func:`repro.dse.vectorized.evaluate_cell_batch`); results come back
    in request order and are bit-identical to evaluating every request
    alone through the scalar path.

    Parameters
    ----------
    cache:
        Serves the scalar path (``None`` = the process-wide cache,
        ``False`` = uncached).  The vectorized path never touches it.
    vectorized:
        ``False`` runs the scalar evaluator instead of the NumPy engine —
        the bit-identity oracle (identical results).
    """
    from .vectorized import evaluate_cell_batch

    requests = list(requests)
    outcomes: List[Optional[BatchOutcome]] = [None] * len(requests)

    # Group request indexes by cell.  Networks are unhashable, so the key
    # uses the content fingerprint; resolution and fingerprinting are
    # memoised across the batch (registry lookups rebuild the network per
    # call, which a thousand-request batch must not pay per request).
    networks_by_name: Dict[str, Network] = {}
    fingerprints_by_id: Dict[int, str] = {}
    devices_by_name: Dict[str, FpgaDevice] = {}
    cells: Dict[Tuple, Tuple[Network, FpgaDevice, Calibration, List[int]]] = {}
    use_cache = cache is not False
    for index, request in enumerate(requests):
        if isinstance(request.network, str):
            network = networks_by_name.get(request.network)
            if network is None:
                network = networks_by_name[request.network] = resolve_network(request.network)
        else:
            network = request.network
        fingerprint = fingerprints_by_id.get(id(network))
        if fingerprint is None:
            fingerprint = fingerprints_by_id[id(network)] = network_fingerprint(network)
        if isinstance(request.device, str):
            device = devices_by_name.get(request.device)
            if device is None:
                device = devices_by_name[request.device] = resolve_device(request.device)
        else:
            device = request.device
        key = (fingerprint, device, request.calibration)
        cell = cells.get(key)
        if cell is None:
            cells[key] = (network, device, request.calibration, [index])
        else:
            cell[3].append(index)

    for (fingerprint, _, _), (network, device, calibration, indexes) in cells.items():
        entries = [requests[index].entry for index in indexes]
        if vectorized:
            batch = evaluate_cell_batch(
                network, device, calibration, entries,
                skip_infeasible=True, collect_errors=True,
            )
            assert batch.errors is not None
            for index, point, error in zip(indexes, batch.points, batch.errors):
                if point is not None:
                    outcomes[index] = BatchOutcome(point=point)
                else:
                    outcomes[index] = BatchOutcome(error=error)
        else:
            probe_fingerprint = fingerprint if use_cache else None
            for index, entry in zip(indexes, entries):
                outcomes[index] = _serial_outcome(
                    network, device, calibration, entry, cache, probe_fingerprint
                )
    assert all(outcome is not None for outcome in outcomes)
    return outcomes  # type: ignore[return-value]
