"""Processes, connections and the closed and open request loops."""

from __future__ import annotations

import heapq
import http.client
import itertools
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from workloads import Op, bit_widths_of

HERE = Path(__file__).resolve().parent
TERMINAL = ("completed", "failed", "cancelled")
HEALTH_TIMEOUT_S = 60.0
JOB_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0


def free_port() -> int:
    """A TCP port nobody listens on right now."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Service:
    """One ``repro serve`` process (and for the fleet, one ``repro worker``)."""

    def __init__(self, root: Path, workdir: Path, store: Path, workers: int,
                 fleet_worker: bool, spans: bool) -> None:
        self.root = root
        self.workdir = workdir
        self.store = store
        self.workers = workers
        self.fleet_worker = fleet_worker
        self.spans = spans
        self.port = free_port()
        self.server: Optional[subprocess.Popen] = None
        self.worker: Optional[subprocess.Popen] = None
        self._files: List[Any] = []

    def _spawn(self, role: str, args: List[str]) -> subprocess.Popen:
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        if self.spans:
            env["PERFBENCH_SPANS"] = str(self.workdir / f"{role}.spans")
        else:
            env.pop("PERFBENCH_SPANS", None)
        err = (self.workdir / f"{role}.err").open("w")
        self._files.append(err)
        return subprocess.Popen(
            [sys.executable, str(HERE / "launch.py"), *args],
            cwd=self.root, env=env, stdout=subprocess.DEVNULL, stderr=err,
        )

    def start(self) -> None:
        """Spawn the server, wait for a healthy ``/health``, then the worker."""
        self.server = self._spawn("server", [
            "serve", "--store", str(self.store), "--port", str(self.port),
            "--workers", str(self.workers), "-q",
        ])
        deadline = time.perf_counter() + HEALTH_TIMEOUT_S
        while True:
            if self.server.poll() is not None:
                raise RuntimeError(f"server exited with code {self.server.returncode}")
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
                conn.request("GET", "/health")
                healthy = conn.getresponse().status == 200
                conn.close()
                if healthy:
                    break
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("server never answered /health")
            time.sleep(0.005)
        if self.fleet_worker:
            self.worker = self._spawn("worker", [
                "worker", "--server", f"http://127.0.0.1:{self.port}",
                "--worker-id", "perfbench-worker", "-q",
            ])

    def advance_phase(self) -> None:
        """SIGUSR1 every process: the launcher moves to its next span phase."""
        for process in (self.server, self.worker):
            if process is not None and process.poll() is None:
                process.send_signal(signal.SIGUSR1)

    def rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``) in MiB."""
        assert self.server is not None
        status = Path(f"/proc/{self.server.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Stop the worker (SIGTERM) and the server (SIGINT) and wait for both.

        ``serve`` shuts down cleanly, and the launcher writes its spans,
        only on SIGINT; the worker finishes in-flight shards on SIGTERM.
        """
        for process, signum in ((self.worker, signal.SIGTERM), (self.server, signal.SIGINT)):
            if process is None:
                continue
            if process.poll() is None:
                process.send_signal(signum)
            try:
                process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        for handle in self._files:
            handle.close()
        self._files.clear()


class Connection:
    """One keep-alive HTTP connection that times every request."""

    def __init__(self, port: int, tag: str) -> None:
        self.port = port
        self.tag = tag
        self._ids = itertools.count(1)
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def call(self, method: str, path: str, body: Optional[dict] = None
             ) -> Tuple[int, Any, float, float, str]:
        """``(status, decoded body, start, end, trace id)``; status 0 = transport error."""
        trace = f"{self.tag}-{next(self._ids)}"
        data = json.dumps(body).encode() if body is not None else None
        headers = {"X-Repro-Trace-Id": trace}
        if data is not None:
            headers["Content-Type"] = "application/json"
        start = time.perf_counter()
        try:
            self._conn.request(method, path, body=data, headers=headers)
            response = self._conn.getresponse()
            raw = response.read()
            status = response.status
        except (OSError, http.client.HTTPException) as error:
            self._conn.close()
            return 0, {"error": repr(error)}, start, time.perf_counter(), trace
        end = time.perf_counter()
        try:
            decoded = json.loads(raw)
        except ValueError:
            decoded = {"error": "undecodable response body"}
        return status, decoded, start, end, trace

    def close(self) -> None:
        self._conn.close()


@dataclass
class Sample:
    """One user operation as the client saw it."""

    kind: str
    phase: str
    ok: bool
    latency: float
    start: float
    due: Optional[float]
    request: Dict[str, Any]
    response: Any
    trace: str
    end: float = 0.0
    status: int = 0
    #: Jobs: grid entries of the spec.
    entries: int = 0
    #: Set by the answer checks when the response was wrong.
    wrong: bool = False


@dataclass
class Recorder:
    """Thread-safe list of samples plus the job keys reads may target."""

    samples: List[Sample] = field(default_factory=list)
    prefill_keys: List[str] = field(default_factory=list)
    recent_keys: List[str] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def add(self, sample: Sample) -> None:
        with self.lock:
            self.samples.append(sample)

    def completed(self, key: str) -> None:
        with self.lock:
            self.recent_keys.insert(0, key)

    def resolve(self, target: List[Any], job_key: Optional[str]) -> Optional[str]:
        """The stored-result key a symbolic read target names right now."""
        if target[0] == "prefill":
            return self.prefill_keys[target[1]]
        if target[0] == "job":
            return job_key
        with self.lock:
            if not self.recent_keys:
                return None
            return self.recent_keys[min(target[1], len(self.recent_keys) - 1)]


def entries_of(spec: Dict[str, Any]) -> int:
    """Grid entries of a spec payload."""
    total = 0
    for sweep in spec["sweeps"]:
        count = len(sweep["m_values"]) * len(sweep["multiplier_budgets"])
        count *= len(sweep["frequencies_mhz"]) * len(sweep["shared_data_transform"])
        count *= len(bit_widths_of(sweep))
        total += count
    return total * len(spec["networks"]) * len(spec["devices"])


READ_PATHS = {"evaluate": "/v1/evaluate", "query": "/v1/query", "pareto": "/v1/pareto"}


def send_read(conn: Connection, recorder: Recorder, op: Op, phase: str,
              job_key: Optional[str] = None, due: Optional[float] = None) -> Optional[Sample]:
    """Send one evaluate/query/pareto request; record and return its sample.

    ``due`` (open loop) is when the request should have gone out; latency
    counts from then instead of from the send.
    """
    body = dict(op.payload)
    if "target" in body:
        key = recorder.resolve(body.pop("target"), job_key)
        if key is None:
            return None
        body["key"] = key
    status, response, start, end, trace = conn.call("POST", READ_PATHS[op.kind], body)
    origin = start if due is None else due
    sample = Sample(op.kind, phase, status == 200, end - origin, start, due,
                    body, response, trace, end=end, status=status)
    recorder.add(sample)
    return sample


def submit_job(conn: Connection, op: Op) -> Tuple[Optional[str], int, Any, float]:
    """POST the job; returns (job id or None, status, response, start)."""
    status, response, start, _end, _trace = conn.call("POST", "/v1/jobs", op.payload)
    job_id = response.get("job", {}).get("id") if status == 202 else None
    return job_id, status, response, start


def finish_job(recorder: Recorder, op: Op, phase: str, origin: float, end: float,
               status: int, final: Any, trace: str, start: float) -> Sample:
    """Record one job from its origin to its first terminal status."""
    job = final.get("job", {}) if isinstance(final, dict) else {}
    ok = status == 200 and job.get("state") == "completed"
    sample = Sample("job", phase, ok, end - origin, start, origin, op.payload, job,
                    trace, end=end, status=status, entries=entries_of(op.payload["spec"]))
    recorder.add(sample)
    if ok:
        recorder.completed(job["key"])
    return sample


def run_job_closed(conn: Connection, recorder: Recorder, op: Op, phase: str,
                   poll_s: float) -> Sample:
    """Submit a job and poll every ``poll_s`` until its first terminal status."""
    job_id, status, response, start = submit_job(conn, op)
    end = time.perf_counter()
    trace = ""
    if job_id is not None:
        deadline = start + JOB_TIMEOUT_S
        while True:
            time.sleep(poll_s)
            status, response, _s, end, trace = conn.call("GET", f"/v1/jobs/{job_id}")
            state = response.get("job", {}).get("state") if status == 200 else None
            if state in TERMINAL or status != 200 or end > deadline:
                break
    return finish_job(recorder, op, phase, start, end, status, response, trace, start)


def closed_loop(conn: Connection, recorder: Recorder, ops: Iterator[Op], poll_s: float,
                window_s: float, phase_of: Callable[[float], str],
                on_half: Optional[Callable[[Connection], None]] = None,
                on_sent: Optional[Tuple[int, Callable[[], None]]] = None) -> Tuple[float, int]:
    """One client sending ``ops`` back to back for ``window_s`` seconds.

    A job is followed by its ``follow`` reads against the new result.
    ``on_sent = (n, callback)`` calls ``callback`` once ``n`` ops are done.
    Returns the window's start time and how many ops of ``ops`` were sent.
    """
    begin = time.perf_counter()
    half_done = on_half is None
    for sent, op in enumerate(ops):
        if on_sent is not None and sent == on_sent[0]:
            on_sent[1]()
        now = time.perf_counter()
        if now - begin >= window_s:
            return begin, sent
        if not half_done and now - begin >= window_s / 2:
            on_half(conn)
            half_done = True
        phase = phase_of(now - begin)
        if op.kind == "job":
            sample = run_job_closed(conn, recorder, op, phase, poll_s)
            key = sample.response.get("key") if sample.ok else None
            for follow in op.follow:
                if key is not None:
                    send_read(conn, recorder, follow, phase, key)
        else:
            send_read(conn, recorder, op, phase)
    raise RuntimeError("the generated request sequence ran out before the window ended")


class OpenLoop:
    """Two senders working through one schedule, each on its own connection.

    Requests are timed from when they were due.  A submitted job puts a
    status poll on the schedule every ``poll_s`` until it is terminal;
    polls are not user operations and are not sampled.
    """

    SENDERS = 2
    DRAIN_S = 30.0

    def __init__(self, port: int, recorder: Recorder, ops: Iterable[Op], poll_s: float,
                 window_s: float, phase_of: Callable[[float], str],
                 on_half: Optional[Callable[[Connection], None]] = None) -> None:
        self.port = port
        self.recorder = recorder
        self.poll_s = poll_s
        self.window_s = window_s
        self.phase_of = phase_of
        self.on_half = on_half
        self.lateness: List[float] = []
        self._heap: List[Tuple[float, int, Any]] = []
        self._seq = itertools.count()
        self._cond = threading.Condition()
        self._open_jobs = 0
        self._ops = ops
        self._begin = 0.0
        self._deadline = 0.0

    def _push(self, due: float, item: Any) -> None:
        with self._cond:
            heapq.heappush(self._heap, (due, next(self._seq), item))
            self._cond.notify()

    def _next(self) -> Optional[Tuple[float, Any]]:
        with self._cond:
            while True:
                now = time.perf_counter()
                if self._heap and self._heap[0][0] <= now:
                    due, _, item = heapq.heappop(self._heap)
                    if item[0] == "job":
                        self._open_jobs += 1
                    return due, item
                if not self._heap and self._open_jobs == 0:
                    return None
                if now > self._deadline:
                    return None
                timeout = self._heap[0][0] - now if self._heap else 0.05
                self._cond.wait(min(timeout, 0.05))

    def _job_closed(self) -> None:
        with self._cond:
            self._open_jobs -= 1
            self._cond.notify_all()

    def _sender(self, index: int) -> None:
        conn = Connection(self.port, f"open{index}")
        try:
            while True:
                entry = self._next()
                if entry is None:
                    return
                due, item = entry
                self._handle(conn, due, item)
        finally:
            conn.close()

    def _handle(self, conn: Connection, due: float, item: Tuple) -> None:
        kind = item[0]
        if kind == "half":
            self.on_half(conn)
            return
        self.lateness.append(time.perf_counter() - due)
        if kind == "poll":
            _, op, job_id, origin, phase = item
            status, response, start, end, trace = conn.call("GET", f"/v1/jobs/{job_id}")
            state = response.get("job", {}).get("state") if status == 200 else None
            if state in TERMINAL or status != 200 or end - origin > JOB_TIMEOUT_S:
                finish_job(self.recorder, op, phase, origin, end, status, response, trace, start)
                self._job_closed()
            else:
                self._push(end + self.poll_s, item)
            return
        op = item[1]
        phase = self.phase_of(due - self._begin)
        if kind == "job":
            job_id, status, response, start = submit_job(conn, op)
            if job_id is None:
                finish_job(self.recorder, op, phase, due, time.perf_counter(), status,
                           response, "", start)
                self._job_closed()
            else:
                self._push(time.perf_counter() + self.poll_s, ("poll", op, job_id, due, phase))
            return
        send_read(conn, self.recorder, op, phase, due=due)

    def run(self) -> Tuple[float, int]:
        """Send the schedule, drain open jobs; returns the window start and ops sent."""
        self._begin = time.perf_counter() + 0.05
        self._deadline = self._begin + self.window_s + self.DRAIN_S
        sent = 0
        for op in self._ops:
            if op.due < self.window_s:
                self._push(self._begin + op.due, (op.kind, op))
                sent += 1
        if self.on_half is not None:
            self._push(self._begin + self.window_s / 2, ("half",))
        threads = [threading.Thread(target=self._sender, args=(i,)) for i in range(self.SENDERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return self._begin, sent
