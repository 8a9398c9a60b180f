"""The fleet over real HTTP: live server, real WorkerLoop, chaos kills.

The server here runs ``workers=0`` — no local pool at all — so every
completed job in this module is proof the lease protocol alone can carry
a campaign.  The chaos test is the acceptance criterion made literal: a
worker process acquires leases and is ``os._exit``-killed mid-shard (the
``REPRO_WORKER_CHAOS`` hook), and the *same submitted job* still runs to
completion — via lease expiry and re-queue — under a healthy worker,
with no client-side resubmission.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import pickle
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.core.design_space import SweepSpec
from repro.experiments import ExperimentSpec, run_experiment
from repro.experiments.persistence import point_from_dict, point_to_dict
from repro.service import ResultServer, ResultStore, ServiceClient
from repro.worker import WorkerLoop

SPEC = ExperimentSpec(
    networks=("vgg16-d", "alexnet"),
    devices=("xc7vx485t",),
    sweeps=(
        SweepSpec(
            m_values=(2, 3, 4),
            multiplier_budgets=(256, 512),
            frequencies_mhz=(150.0, 200.0),
        ),
    ),
    name="fleet-http",
)

#: Short lease TTL so chaos recovery happens in test time, with heartbeats
#: (ttl/3) still frequent enough that healthy workers never lose leases.
LEASE_TTL_S = 1.0


def named(name: str) -> ExperimentSpec:
    """SPEC under a different name => different fingerprints, fresh shards."""
    return dataclasses.replace(SPEC, name=name)


def normalize(point):
    """A point as the wire sees it: persistence round trip (engine=None)."""
    return pickle.dumps(point_from_dict(point_to_dict(point)))


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    """A live fleet-only server (workers=0) + client, over a socket."""
    store = ResultStore(tmp_path_factory.mktemp("fleet-store"))
    loop = asyncio.new_event_loop()
    server = ResultServer(
        store,
        port=0,
        workers=0,
        shard_entries=5,
        lease_ttl_s=LEASE_TTL_S,
        quiet=True,
    )
    started = threading.Event()

    def run() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(10.0)
    client = ServiceClient(port=server.port)
    yield server, client, store
    asyncio.run_coroutine_threadsafe(server.close(), loop).result(30.0)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(10.0)


def run_worker_thread(port: int, **kwargs) -> "tuple[WorkerLoop, threading.Thread]":
    """A WorkerLoop running on a daemon thread against the live server."""
    loop = WorkerLoop(
        ServiceClient(port=port),
        quiet=True,
        poll_s=0.05,
        **kwargs,
    )
    thread = threading.Thread(target=loop.run, daemon=True)
    thread.start()
    return loop, thread


def spawn_worker_process(port: int, worker_id: str, chaos: str = "") -> subprocess.Popen:
    """A real ``python -m repro worker`` subprocess (optionally chaos-armed)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.abspath("src"), env.get("PYTHONPATH", "")])
    )
    if chaos:
        env["REPRO_WORKER_CHAOS"] = chaos
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "worker",
            "--server",
            f"http://127.0.0.1:{port}",
            "--worker-id",
            worker_id,
            "--poll-s",
            "0.1",
            "--concurrency",
            "2",
            "-q",
        ],
        env=env,
    )


@pytest.mark.campaign
def test_fleet_carries_job_end_to_end_bit_identical(service):
    """workers=0 server + one WorkerLoop: completion and byte equality."""
    server, client, store = service
    spec = named("fleet-http-e2e")
    job = client.submit_job(spec)
    loop, thread = run_worker_thread(server.port, worker_id="loop-w1")
    try:
        final = client.wait_for_job(job["id"], timeout=120)
    finally:
        loop.request_stop()
        thread.join(30.0)
    assert final["state"] == "completed", final
    counts = final["shards"]
    assert counts["completed"] == counts["total"] > 1
    assert loop.counters["completed"] == counts["total"]
    assert loop.counters["failed"] == loop.counters["lost"] == 0

    reference = run_experiment(spec)
    result = store.get(final["key"])
    assert [pickle.dumps(p) for p in result.points] == [
        normalize(p) for p in reference.points
    ]
    assert result.evaluations == reference.evaluations

    # Fleet observability reflects the run.
    health = client.health()
    fleet = health["jobs"]["fleet"]
    assert fleet["completed"] >= counts["total"]
    assert fleet["workers_seen"] >= 1
    assert client.leases()["leases"] == []  # nothing outstanding

    # Per-shard attribution names the fleet worker.
    status = client.job_status(job["id"])
    assert {s["worker"] for s in status["shard_states"]} == {"loop-w1"}


@pytest.mark.campaign
def test_killed_worker_mid_shard_is_requeued_to_completion(service):
    """Chaos: kill a worker holding leases; the SAME job still completes."""
    server, client, store = service
    spec = named("fleet-http-chaos")
    job = client.submit_job(spec)

    # The doomed worker: os._exit(17) right after acquiring leases, i.e.
    # mid-shard with leases held and no fail/release call — a power cut.
    doomed = spawn_worker_process(server.port, "doomed", chaos="exit-after-acquire")
    assert doomed.wait(timeout=60) == 17

    status = client.job_status(job["id"])
    assert status["state"] == "running"
    leased = [s for s in status["shard_states"] if s["state"] == "leased"]
    assert leased, "the chaos worker must die holding leases"

    # A healthy worker joins; expiry re-queues the dead worker's shards.
    loop, thread = run_worker_thread(server.port, worker_id="healthy")
    try:
        final = client.wait_for_job(job["id"], timeout=120)
    finally:
        loop.request_stop()
        thread.join(30.0)
    assert final["state"] == "completed", final
    assert final["shards"]["completed"] == final["shards"]["total"]

    # The re-queued shards ran on their second (or later) grant.
    status = client.job_status(job["id"])
    retried = [s for s in status["shard_states"] if s["attempts"] >= 2]
    assert retried, "expiry must have re-granted the dead worker's shards"
    assert all(s["worker"] == "healthy" for s in status["shard_states"])
    fleet = client.health()["jobs"]["fleet"]
    assert fleet["expired"] >= len(leased)
    assert fleet["requeued"] >= len(leased)

    # And the bytes still match a single-host run.
    reference = run_experiment(spec)
    result = store.get(final["key"])
    assert [pickle.dumps(p) for p in result.points] == [
        normalize(p) for p in reference.points
    ]


@pytest.mark.campaign
def test_sigterm_worker_finishes_inflight_shard_and_exits_zero(service):
    """Graceful shutdown: SIGTERM mid-run completes the held shard."""
    server, client, store = service
    spec = named("fleet-http-sigterm")
    job = client.submit_job(spec)
    worker = spawn_worker_process(server.port, "graceful")
    # Wait until the worker actually holds shards, then SIGTERM it.
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        status = client.job_status(job["id"])
        if status["state"] == "completed" or any(
            s["state"] == "leased" for s in status["shard_states"]
        ):
            break
        time.sleep(0.05)
    worker.send_signal(signal.SIGTERM)
    assert worker.wait(timeout=60) == 0
    # Whatever it held, it completed before exiting — nothing is leased
    # and at least one shard landed with its name on it.
    status = client.job_status(job["id"])
    assert all(s["state"] != "leased" for s in status["shard_states"])
    finished = [s for s in status["shard_states"] if s["state"] == "completed"]
    assert finished and all(s["worker"] == "graceful" for s in finished)

    # Another worker finishes the remainder — no resubmission needed.
    loop, thread = run_worker_thread(server.port, worker_id="finisher")
    try:
        final = client.wait_for_job(job["id"], timeout=120)
    finally:
        loop.request_stop()
        thread.join(30.0)
    assert final["state"] == "completed", final


def test_idle_worker_sigterm_exits_zero_quickly(service):
    """An idle worker (nothing claimable) stops promptly on SIGTERM."""
    server, _client, _store = service
    worker = spawn_worker_process(server.port, "idle")
    time.sleep(1.0)  # let it reach the idle acquire/poll loop
    worker.send_signal(signal.SIGTERM)
    assert worker.wait(timeout=30) == 0


def test_lease_endpoints_validate_input(service):
    """Protocol-level 400s: bad acquire bodies, bad completion payloads."""
    from repro.service import ServiceError

    server, client, _store = service
    with pytest.raises(ServiceError) as excinfo:
        client._request("POST", "/v1/leases", {"count": 1})
    assert excinfo.value.status == 400  # worker id is required
    with pytest.raises(ServiceError) as excinfo:
        client._request("POST", "/v1/leases", {"worker": "w", "count": 0})
    assert excinfo.value.status == 400
    with pytest.raises(ServiceError) as excinfo:
        client._request("POST", "/v1/leases", {"worker": "w", "ttl_s": -1})
    assert excinfo.value.status == 400
    # Unknown lease ids answer protocol-shaped bodies, not errors.
    assert client.heartbeat_lease("lease-nope") == {
        "alive": False,
        "reason": "unknown-lease",
    }
    answer = client.complete_lease("lease-nope", {"schema": "junk"})
    assert answer["accepted"] is False and answer["reason"] == "unknown-lease"
    answer = client.fail_lease("lease-nope", "boom")
    assert answer["accepted"] is False and answer["reason"] == "unknown-lease"
    # A complete body without a result object is a 400.
    with pytest.raises(ServiceError) as excinfo:
        client._request("POST", "/v1/leases/lease-nope/complete", {"result": 3})
    assert excinfo.value.status == 400
