"""The worker control loop: acquire, execute, heartbeat, complete.

One :class:`WorkerLoop` is one fleet worker process.  Control is
single-threaded — acquire polls, heartbeats, completion pushes and
shutdown all happen on the main thread, so there is exactly one writer of
lease state and the :class:`~repro.worker.leases.WorkerLease` state
machine is enforced without locks.  Shard execution (the CPU work) runs
on a ``ThreadPoolExecutor`` of ``concurrency`` threads, each thread
evaluating a shard through :func:`repro.service.jobs.execute_shard` —
the identical entry point the server's local slots use, which is what
keeps fleet results bit-identical to single-host runs.  The server's
local slots are lease clients too, in-process: they acquire, heartbeat
at the same ``ttl / 3`` cadence and complete through the same
``JobManager`` lease calls this loop reaches over HTTP.

The loop is deliberately pull-based and stateless across restarts: a
worker that crashes simply stops heartbeating, its leases expire
server-side and the shards re-queue.  Restarting it needs no recovery
protocol — it just starts acquiring again.
"""

from __future__ import annotations

import http.client
import os
import random
import signal
import socket
import time
from concurrent.futures import Future, ThreadPoolExecutor
from threading import Event
from typing import Any, Callable, Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from ..obs.logging import get_logger
from ..obs.tracing import set_trace_id
from ..service.client import ServiceClient, ServiceError
from ..service.jobs import execute_shard
from .leases import WorkerLease

__all__ = ["WorkerLoop", "run_worker", "parse_server_url"]

#: Transport-level exceptions treated as "the server is unreachable right
#: now" (retried with backoff) rather than protocol answers.
_CONNECTION_ERRORS = (OSError, http.client.HTTPException)

#: Environment variable enabling chaos hooks in tests and drills — never
#: set it in production.  Value ``exit-after-acquire`` makes the worker
#: ``os._exit(17)`` immediately after its first successful acquire,
#: simulating a machine dying mid-shard with leases held (the server must
#: recover the shards via lease expiry).
CHAOS_ENV = "REPRO_WORKER_CHAOS"


def parse_server_url(url: str) -> Tuple[str, int]:
    """``(host, port)`` from a ``--server`` URL (scheme optional, http only)."""
    if "://" not in url:
        url = f"http://{url}"
    split = urlsplit(url)
    if split.scheme != "http":
        raise ValueError(f"--server must be an http:// URL, got {url!r}")
    return split.hostname or "127.0.0.1", split.port or 8787


class WorkerLoop:
    """Acquire/execute/heartbeat/complete loop for one fleet worker.

    ``concurrency`` shards execute at once; the loop only acquires as
    many leases as it has free execution slots, so a worker never hoards
    shards it cannot start (hoarded shards would just expire and bounce).
    ``heartbeat_s`` overrides the cadence (default: a third of the lease
    TTL the server grants); ``max_shards`` stops the worker after that
    many leases, which is what the smoke tests use for bounded runs.

    :meth:`request_stop` (wired to ``SIGTERM``/``SIGINT`` by
    :func:`run_worker`) is graceful: stop acquiring, finish and complete
    the in-flight shards, then return.  Call :meth:`run` to block until
    the loop exits; it returns the worker's counter dict.
    """

    def __init__(
        self,
        client: ServiceClient,
        worker_id: Optional[str] = None,
        concurrency: int = 1,
        ttl_s: Optional[float] = None,
        heartbeat_s: Optional[float] = None,
        poll_s: float = 0.5,
        max_shards: Optional[int] = None,
        quiet: bool = False,
    ) -> None:
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if poll_s <= 0:
            raise ValueError("poll_s must be > 0")
        if max_shards is not None and max_shards < 1:
            raise ValueError("max_shards must be >= 1")
        self.client = client
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        self.concurrency = concurrency
        self.ttl_s = ttl_s
        self.heartbeat_s = heartbeat_s
        self.poll_s = poll_s
        self.max_shards = max_shards
        self.quiet = quiet
        self.counters: Dict[str, int] = {
            "acquired": 0,
            "completed": 0,
            "duplicates": 0,
            "failed": 0,
            "lost": 0,
            "released": 0,
            "heartbeats": 0,
            "connection_errors": 0,
        }
        self._stop = Event()
        self._inflight: List[Tuple[WorkerLease, Future]] = []
        #: Structured JSON log lines (stderr).  Deliberately *not* gated
        #: on ``quiet``: ``-q`` silences the human progress lines, while
        #: the machine-readable stream stays available for log shippers
        #: and the trace-propagation tests.
        self.obs = get_logger("worker")

    # ------------------------------------------------------------------ #
    def request_stop(self) -> None:
        """Begin a graceful shutdown (signal-handler safe: just sets a flag)."""
        self._stop.set()

    @property
    def stopping(self) -> bool:
        """Whether a graceful shutdown has been requested."""
        return self._stop.is_set()

    def _say(self, message: str) -> None:
        if not self.quiet:
            print(f"[worker {self.worker_id}] {message}", flush=True)

    # ------------------------------------------------------------------ #
    def run(self) -> Dict[str, int]:
        """Block until stopped (or ``max_shards`` served); returns counters."""
        self._say(
            f"attached to http://{self.client.host}:{self.client.port} "
            f"(concurrency {self.concurrency})"
        )
        executor = ThreadPoolExecutor(
            max_workers=self.concurrency, thread_name_prefix="repro-worker"
        )
        acquire_failures = 0
        try:
            while True:
                self._reap_finished()
                self._heartbeat_due()
                if self._stop.is_set() and not self._inflight:
                    break
                budget_left = self.max_shards is None or (
                    self.counters["acquired"] < self.max_shards
                )
                if self.max_shards is not None and not budget_left and not self._inflight:
                    break
                free = self.concurrency - len(self._inflight)
                if free > 0 and budget_left and not self._stop.is_set():
                    if self.max_shards is not None:
                        free = min(free, self.max_shards - self.counters["acquired"])
                    try:
                        response = self.client.acquire_leases(
                            self.worker_id, count=free, ttl_s=self.ttl_s
                        )
                        acquire_failures = 0
                    except _CONNECTION_ERRORS:
                        self.counters["connection_errors"] += 1
                        acquire_failures += 1
                        self._backoff(acquire_failures)
                        continue
                    leases = response.get("leases", [])
                    if leases:
                        self._chaos("exit-after-acquire")
                        for payload in leases:
                            self._start_shard(executor, WorkerLease.from_payload(payload))
                    elif not self._inflight:
                        # Nothing claimable and nothing running: idle-poll
                        # at the server's suggested cadence.
                        self._stop.wait(
                            float(response.get("retry_after_s") or 0.0) or self.poll_s
                        )
                        continue
                # Short tick while shards are in flight so completions and
                # heartbeats stay timely without busy-spinning.
                if self._inflight:
                    self._stop.wait(0.05)
        finally:
            self._drain(executor)
            executor.shutdown(wait=True)
        self._say(
            "exiting: "
            + ", ".join(f"{name}={value}" for name, value in sorted(self.counters.items()))
        )
        return dict(self.counters)

    # ------------------------------------------------------------------ #
    def _chaos(self, hook: str) -> None:
        """Die abruptly when the named chaos hook is armed (tests only)."""
        if os.environ.get(CHAOS_ENV) == hook:
            # A hard exit, not an exception: the point is to vanish with
            # leases held, exactly like a powered-off machine.
            os._exit(17)

    def _start_shard(self, executor: ThreadPoolExecutor, lease: WorkerLease) -> None:
        """Begin executing a freshly acquired lease on the shard pool."""
        self.counters["acquired"] += 1
        interval = self.heartbeat_s or max(0.05, lease.ttl_s / 3.0)
        lease.next_beat = time.time() + interval
        lease.advance("running")
        self._say(
            f"lease {lease.id}: shard {lease.shard_index} of {lease.job_id} "
            f"({lease.entries} entries)"
        )
        self.obs.event(
            "lease.acquired",
            trace_id=lease.trace_id,
            lease_id=lease.id,
            job_id=lease.job_id,
            shard_index=lease.shard_index,
            entries=lease.entries,
            worker=self.worker_id,
        )
        future = executor.submit(self._execute, lease)
        self._inflight.append((lease, future))

    @staticmethod
    def _execute(lease: WorkerLease) -> Dict[str, Any]:
        """Shard-pool thread body: evaluate the lease's spec payload.

        The lease's trace id is bound to this thread's context for the
        duration, so anything the evaluation stack logs carries it.
        """
        token = set_trace_id(lease.trace_id)
        started = time.perf_counter()
        try:
            payload = execute_shard(lease.spec_payload)
        finally:
            lease.seconds = time.perf_counter() - started
            token.var.reset(token)
        return payload

    def _reap_finished(self) -> None:
        """Complete (or fail) every in-flight shard whose future finished."""
        still: List[Tuple[WorkerLease, Future]] = []
        for lease, future in self._inflight:
            if not future.done():
                still.append((lease, future))
                continue
            if lease.state == "lost":
                # The server told a heartbeat the lease is gone; the
                # computed result (if any) belongs to nobody.
                self.counters["lost"] += 1
            elif future.exception() is not None:
                error = future.exception()
                lease.error = f"{type(error).__name__}: {error}"
                lease.advance("failed")
                self.counters["failed"] += 1
                self._report_failure(lease)
            else:
                self._complete(lease, future.result())
        self._inflight = still

    def _complete(self, lease: WorkerLease, payload: Dict[str, Any]) -> None:
        """Push one finished shard's payload; settle the lease state.

        The completion request runs under the lease's trace id, so the
        server's access log shows the same id the submitter minted.
        """
        lease.advance("completing")
        token = set_trace_id(lease.trace_id) if lease.trace_id else None
        try:
            response = self._with_retries(
                lambda: self.client.complete_lease(lease.id, payload, lease.seconds)
            )
        except ServiceError as error:
            # The server answered and said no (e.g. payload rejected as
            # not this shard's result) — retrying the same bytes is
            # pointless; the lease re-queues server-side.
            lease.error = error.message
            lease.advance("lost")
            self.counters["lost"] += 1
            self._say(f"lease {lease.id}: completion rejected ({error.message})")
            return
        except _CONNECTION_ERRORS:
            # Server unreachable past the retry budget: the lease will
            # expire and the shard re-queues — correct, just wasteful.
            lease.advance("lost")
            self.counters["lost"] += 1
            self.counters["connection_errors"] += 1
            self._say(f"lease {lease.id}: server unreachable, abandoning completion")
            return
        finally:
            if token is not None:
                token.var.reset(token)
        if response.get("accepted"):
            lease.advance("completed")
            self.counters["completed"] += 1
            if response.get("duplicate"):
                self.counters["duplicates"] += 1
            self._say(
                f"lease {lease.id}: completed shard {lease.shard_index} "
                f"in {lease.seconds:.3f}s -> {response.get('key')}"
            )
            self.obs.event(
                "shard.completed",
                trace_id=lease.trace_id,
                lease_id=lease.id,
                job_id=lease.job_id,
                shard_index=lease.shard_index,
                seconds=round(lease.seconds or 0.0, 6),
                key=response.get("key"),
                duplicate=bool(response.get("duplicate")),
                worker=self.worker_id,
            )
        else:
            lease.advance("lost")
            self.counters["lost"] += 1
            self._say(
                f"lease {lease.id}: completion not accepted "
                f"({response.get('reason')}); shard re-assigned"
            )

    def _report_failure(self, lease: WorkerLease) -> None:
        """Tell the server a shard's execution raised (job fails like local)."""
        try:
            self._with_retries(
                lambda: self.client.fail_lease(lease.id, lease.error or "worker error")
            )
        except (ServiceError, *_CONNECTION_ERRORS):
            pass  # the lease will expire; the error is already counted
        self._say(f"lease {lease.id}: shard failed ({lease.error})")
        self.obs.event(
            "shard.failed",
            trace_id=lease.trace_id,
            lease_id=lease.id,
            job_id=lease.job_id,
            shard_index=lease.shard_index,
            error=lease.error,
            worker=self.worker_id,
        )

    def _heartbeat_due(self) -> None:
        """Beat every in-flight lease whose heartbeat interval elapsed."""
        now = time.time()
        for lease, _future in self._inflight:
            if lease.terminal or lease.state == "lost" or now < lease.next_beat:
                continue
            interval = self.heartbeat_s or max(0.05, lease.ttl_s / 3.0)
            lease.next_beat = now + interval
            try:
                answer = self.client.heartbeat_lease(lease.id)
            except _CONNECTION_ERRORS:
                self.counters["connection_errors"] += 1
                continue  # transient; the TTL still has 2/3 headroom
            self.counters["heartbeats"] += 1
            if not answer.get("alive"):
                # Expired or revoked: mark it so the reaper discards the
                # result instead of pushing a doomed completion.
                lease.advance("lost")
                self._say(
                    f"lease {lease.id}: lost ({answer.get('reason')}); "
                    "discarding in-flight shard"
                )
                self.obs.event(
                    "lease.lost",
                    trace_id=lease.trace_id,
                    lease_id=lease.id,
                    job_id=lease.job_id,
                    shard_index=lease.shard_index,
                    reason=answer.get("reason"),
                    worker=self.worker_id,
                )

    def _drain(self, executor: ThreadPoolExecutor) -> None:
        """Finish the in-flight shards during shutdown and settle them."""
        while self._inflight:
            self._heartbeat_due()
            self._reap_finished()
            if self._inflight:
                time.sleep(0.05)

    # ------------------------------------------------------------------ #
    def _backoff(self, failures: int) -> None:
        """Sleep out a connection failure (exponential, jittered, stoppable)."""
        delay = min(5.0, 0.2 * (2 ** min(failures, 5)))
        self._stop.wait(delay * (0.5 + random.random() * 0.5))

    def _with_retries(self, call: Callable[[], Dict[str, Any]], attempts: int = 4):
        """Run a protocol call, retrying connection-level errors only.

        Safe for the calls the loop retries — heartbeat, complete and fail
        are idempotent server-side (duplicates get the recorded outcome) —
        unlike acquire, which is never retried blindly.
        """
        for attempt in range(attempts):
            try:
                return call()
            except _CONNECTION_ERRORS:
                if attempt + 1 >= attempts:
                    raise
                delay = min(2.0, 0.1 * (2**attempt))
                time.sleep(delay * (0.5 + random.random() * 0.5))
        raise AssertionError("unreachable")  # pragma: no cover


def run_worker(
    server: str,
    worker_id: Optional[str] = None,
    concurrency: int = 1,
    ttl_s: Optional[float] = None,
    heartbeat_s: Optional[float] = None,
    poll_s: float = 0.5,
    max_shards: Optional[int] = None,
    quiet: bool = False,
) -> int:
    """Blocking entry point behind ``python -m repro worker``.

    Installs ``SIGTERM``/``SIGINT`` handlers that request a graceful stop
    — in-flight shards finish and complete before the process exits 0 —
    then runs a :class:`WorkerLoop` against ``server`` (an ``http://``
    URL; a bare ``host:port`` is accepted).
    """
    host, port = parse_server_url(server)
    loop = WorkerLoop(
        ServiceClient(host=host, port=port, timeout=60.0, retries=3),
        worker_id=worker_id,
        concurrency=concurrency,
        ttl_s=ttl_s,
        heartbeat_s=heartbeat_s,
        poll_s=poll_s,
        max_shards=max_shards,
        quiet=quiet,
    )

    def _on_signal(_signum, _frame) -> None:
        loop.request_stop()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, _on_signal)
        except ValueError:  # pragma: no cover — non-main thread (embedding)
            pass
    try:
        loop.run()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return 0
