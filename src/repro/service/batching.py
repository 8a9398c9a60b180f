"""Micro-batching scheduler for concurrent evaluate requests.

An online design-query server receives many small, independent
``evaluate`` requests.  Answering each alone walks the scalar model once
per request; but the vectorized engine (:mod:`repro.dse.vectorized`)
evaluates a whole stacked batch for barely more than the cost of one —
so requests that arrive together should leave together, as one
:func:`repro.dse.batch.evaluate_requests` call.

:class:`MicroBatcher` implements a *self-clocking* schedule on asyncio,
the way a pipelined engine admits a tile as soon as its stage is free:

* when no batch is in flight, the pending requests are dispatched on the
  next event-loop tick — requests submitted in the same tick share it,
  and a lone request never waits for company;
* while a batch is in flight, new requests queue; when it finishes
  (successfully or not) everything queued goes out as the next batch;
* ``max_batch`` pending requests are dispatched at once.

Load therefore sets the batch size and there is no timer to tune.  Each
batch runs on a worker thread — evaluation is CPU-bound Python/NumPy, so
it must not block the event loop — and each request's future resolves
with its own :class:`~repro.dse.batch.BatchOutcome`.

Because :func:`~repro.dse.batch.evaluate_requests` is bit-identical to
serial per-request evaluation regardless of batch composition, batching
is *invisible* in the responses: a client gets the same bytes whether its
request rode alone or with a thousand others.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import Executor
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..dse.batch import BatchOutcome, EvalRequest, evaluate_requests
from ..dse.engine import CacheLike
from ..obs.logging import StructuredLogger

__all__ = ["BatcherSaturated", "BatcherStats", "MicroBatcher", "RETRY_AFTER_S"]

#: Seconds a saturated client is asked to wait: about one batch.
RETRY_AFTER_S = 0.05


class BatcherSaturated(RuntimeError):
    """Raised by :meth:`MicroBatcher.submit` when the admission queue is full.

    The server maps this to ``429 Too Many Requests`` with a
    ``Retry-After`` header derived from :attr:`retry_after_s`
    (:data:`RETRY_AFTER_S`, rounded up to whole seconds).
    """

    retry_after_s = RETRY_AFTER_S

    def __init__(self, pending: int, limit: int):
        super().__init__(
            f"micro-batcher saturated: {pending} request(s) pending or in "
            f"flight against a limit of {limit}"
        )
        self.pending = pending
        self.limit = limit


@dataclass
class BatcherStats:
    """Aggregate counters of one :class:`MicroBatcher`'s lifetime."""

    requests: int = 0
    batches: int = 0
    largest_batch: int = 0
    errors: int = 0
    rejected: int = 0

    @property
    def mean_batch_size(self) -> float:
        """Average requests coalesced per dispatched batch."""
        return self.requests / self.batches if self.batches else 0.0

    def to_dict(self) -> dict:
        """JSON-ready counters for the ``/health`` payload."""
        return {
            "requests": self.requests,
            "batches": self.batches,
            "largest_batch": self.largest_batch,
            "mean_batch_size": round(self.mean_batch_size, 3),
            "errors": self.errors,
            "rejected": self.rejected,
        }


class MicroBatcher:
    """Coalesce concurrent evaluation requests into vectorized batches.

    Parameters
    ----------
    max_batch:
        Dispatch immediately once this many requests are pending, even
        while another batch is in flight.
    cache / vectorized:
        Forwarded to :func:`repro.dse.batch.evaluate_requests`.
    executor:
        Where dispatches run; ``None`` uses the loop's default thread
        pool.  Pass a single-thread executor to serialize evaluation
        against other CPU-bound work (the HTTP server does).
    max_pending:
        Admission bound: requests pending *or in flight* beyond this raise
        :class:`BatcherSaturated` instead of buffering unboundedly.
        ``None`` (the default) keeps the historical unbounded behaviour.
    logger:
        Optional :class:`~repro.obs.logging.StructuredLogger`; when set,
        every dispatch emits a ``batch.dispatch`` event naming the trace
        ids it coalesced.
    """

    def __init__(
        self,
        max_batch: int = 256,
        cache: CacheLike = None,
        vectorized: bool = True,
        executor: Optional[Executor] = None,
        max_pending: Optional[int] = None,
        logger: Optional[StructuredLogger] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be >= 1 (or None for unbounded)")
        self.max_batch = max_batch
        self.cache = cache
        self.vectorized = vectorized
        self.executor = executor
        self.max_pending = max_pending
        self.logger = logger
        self.stats = BatcherStats()
        self._stats_lock = threading.Lock()
        self._pending: List[
            Tuple[EvalRequest, "asyncio.Future[BatchOutcome]", Optional[str]]
        ] = []
        self._inflight = 0
        self._closed = False

    @property
    def occupancy(self) -> int:
        """Requests queued for the next batch."""
        return len(self._pending)

    @property
    def inflight(self) -> int:
        """Requests dispatched to the executor but not yet resolved."""
        return self._inflight

    # ------------------------------------------------------------------ #
    async def submit(
        self, request: EvalRequest, trace_id: Optional[str] = None
    ) -> BatchOutcome:
        """Enqueue one request and await its outcome.

        The request joins the next batch: the one leaving on the next
        loop tick when the engine is idle, or the one leaving when the
        in-flight batch finishes.  With ``max_pending`` set, a full
        admission queue raises :class:`BatcherSaturated` immediately
        instead of queueing.
        """
        if self._closed:
            raise RuntimeError("MicroBatcher is closed")
        occupied = len(self._pending) + self._inflight
        if self.max_pending is not None and occupied >= self.max_pending:
            with self._stats_lock:
                self.stats.rejected += 1
            raise BatcherSaturated(occupied, self.max_pending)
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[BatchOutcome]" = loop.create_future()
        self._pending.append((request, future, trace_id))
        if len(self._pending) >= self.max_batch:
            self._dispatch_pending(loop)
        elif not self._inflight:
            loop.call_soon(self._on_tick, loop)
        return await future

    def _on_tick(self, loop: asyncio.AbstractEventLoop) -> None:
        if not self._inflight:  # otherwise the in-flight batch's finish sends them
            self._dispatch_pending(loop)

    def _dispatch_pending(self, loop: asyncio.AbstractEventLoop) -> None:
        batch, self._pending = self._pending, []
        if not batch:
            return
        with self._stats_lock:
            self.stats.requests += len(batch)
            self.stats.batches += 1
            self.stats.largest_batch = max(self.stats.largest_batch, len(batch))
        requests = [request for request, _, _ in batch]
        futures = [future for _, future, _ in batch]
        if self.logger is not None:
            self.logger.event(
                "batch.dispatch",
                size=len(batch),
                trace_ids=[trace for _, _, trace in batch if trace],
            )
        self._inflight += len(batch)

        def run() -> List[BatchOutcome]:
            """Worker-side dispatch of the coalesced batch."""
            return evaluate_requests(
                requests, cache=self.cache, vectorized=self.vectorized
            )

        dispatch = loop.run_in_executor(self.executor, run)

        def finish(done: "asyncio.Future") -> None:
            """Resolve every request future, then send what queued meanwhile."""
            self._inflight -= len(futures)
            error = done.exception()
            if error is not None:
                with self._stats_lock:
                    self.stats.errors += len(futures)
                for future in futures:
                    if not future.done():
                        future.set_exception(error)
            else:
                for future, outcome in zip(futures, done.result()):
                    if not future.done():
                        future.set_result(outcome)
            self._dispatch_pending(loop)

        dispatch.add_done_callback(finish)

    # ------------------------------------------------------------------ #
    async def flush(self) -> None:
        """Wait until every request queued so far has been answered."""
        pending = [future for _, future, _ in self._pending]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    async def close(self) -> None:
        """Refuse further submissions and flush outstanding work."""
        self._closed = True
        await self.flush()
