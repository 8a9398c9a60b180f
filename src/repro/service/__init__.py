"""Persistent result store + batching design-query server.

The layers below this package compute; this package *serves*.  It turns
evaluated campaigns into long-lived, queryable artifacts and single
design-point questions into micro-batched vectorized evaluations:

* :mod:`repro.service.store` — :class:`ResultStore`, an append-only,
  content-addressed store of campaign results (binary columnar segments
  memory-mapped for zero-copy vectorized queries, legacy JSONL segments
  imported once on open, plus a rebuildable index keyed by spec
  fingerprint, network and device) with ``put``/``get``/``records``/
  ``query_page``/``pareto``/``best`` and compaction;
* :mod:`repro.service.queryspec` — :class:`QuerySpec`, the frozen
  JSON-round-trippable description of a read (result selection, ``where``
  filters, sort, ``select`` projection, top-k, ``limit``/``cursor``
  pagination) shared verbatim by the store, the HTTP handlers and the
  client;
* :mod:`repro.service.batching` — :class:`MicroBatcher`, the
  self-clocking scheduler that sends ``evaluate`` requests to the engine
  on the next loop tick when it is idle and, while a batch runs, queues
  new ones to leave together as the next stacked
  :func:`repro.dse.batch.evaluate_requests` call (bit-identical to serial
  evaluation, an order of magnitude more throughput);
* :mod:`repro.service.jobs` — :class:`JobManager` / :class:`Job`, the
  sharded asynchronous campaign scheduler: specs split into
  per-(network, device) (and per-chunk) shards, executed on a worker
  pool, streamed into the store as they complete, resumable by shard
  fingerprint — plus :class:`Lease` / :class:`LeaseLedger`, the
  pull-based protocol that lets a remote worker fleet
  (:mod:`repro.worker`) claim, heartbeat and complete those shards over
  HTTP, with expiry-based re-queue when a worker dies;
* :mod:`repro.service.server` — :class:`ResultServer` / :func:`serve`,
  the stdlib-only asyncio HTTP server behind ``python -m repro serve``
  (``/v1/query``, ``/v1/pareto``, ``/v1/best``, ``/v1/evaluate``,
  ``/v1/campaign``, ``/v1/jobs``, plus ``/metrics`` Prometheus text and
  its JSON twin ``/v1/stats`` from :mod:`repro.obs`);
* :mod:`repro.service.client` — :class:`ServiceClient`, the thin
  synchronous client used by tests, benchmarks and CI.

Every request carries a trace id (minted or propagated via the
``X-Repro-Trace-Id`` header) and the admission queues are bounded when
the server is started with ``max_pending_evals`` / ``max_pending_jobs``
— saturation answers ``429`` with a ``Retry-After`` hint
(:class:`BatcherSaturated`, :class:`JobQueueFull`).

Quickstart::

    python -m repro serve --store .repro-store --port 8787

    >>> from repro.service import ServiceClient
    >>> client = ServiceClient(port=8787)
    >>> receipt = client.submit_campaign(spec)       # computed once, stored
    >>> fronts = client.pareto(key=receipt["key"])   # served from the store
    >>> point = client.evaluate("vgg16-d", m=4, multiplier_budget=512)
"""

from .batching import BatcherSaturated, BatcherStats, MicroBatcher
from .client import InfeasibleDesignError, ServiceClient, ServiceError
from .jobs import (
    Job,
    JobManager,
    JobQueueFull,
    Lease,
    LeaseLedger,
    ShardPlan,
    execute_shard,
    plan_shards,
)
from .queryspec import BestResult, ParetoPage, QueryPage, QuerySpec
from .server import ApiError, ResultServer, serve
from .store import ResultStore, StoreRecord, result_key

__all__ = [
    "BatcherSaturated",
    "BatcherStats",
    "MicroBatcher",
    "ServiceClient",
    "ServiceError",
    "InfeasibleDesignError",
    "ApiError",
    "ResultServer",
    "serve",
    "ResultStore",
    "StoreRecord",
    "result_key",
    "QuerySpec",
    "QueryPage",
    "ParetoPage",
    "BestResult",
    "Job",
    "JobManager",
    "JobQueueFull",
    "Lease",
    "LeaseLedger",
    "ShardPlan",
    "execute_shard",
    "plan_shards",
]
