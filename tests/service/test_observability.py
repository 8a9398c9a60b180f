"""Observability surface over live HTTP: /metrics, /v1/stats, tracing, 429s.

Three servers, each a module fixture:

* ``service`` — workers=0, unbounded: metric families, the JSON stats
  twin, trace-header echo, and jobs/leases pagination (fleet shards stay
  claimable forever because nothing executes them locally);
* ``bounded`` — ``max_pending_evals=1`` and ``max_pending_jobs=1``:
  saturation must answer 429 with ``Retry-After`` and count rejections
  in the metrics;
* ``bare`` — ``metrics=False``: the endpoints 404 and nothing else breaks.
"""

from __future__ import annotations

import asyncio
import dataclasses
import http.client
import threading
from concurrent.futures import ThreadPoolExecutor, as_completed

import pytest

from repro.core.design_space import SweepSpec
from repro.experiments import ExperimentSpec
from repro.obs.tracing import TRACE_HEADER, TRACE_ID_PATTERN, trace_context
from repro.service import ResultServer, ResultStore, ServiceClient, ServiceError

SPEC = ExperimentSpec(
    networks=("alexnet",),
    devices=("xc7vx485t",),
    sweeps=(
        SweepSpec(
            m_values=(2,), multiplier_budgets=(256,), frequencies_mhz=(200.0,)
        ),
    ),
    name="obs-test",
)


def named(name: str) -> ExperimentSpec:
    """SPEC under a different name => different fingerprint, a fresh job."""
    return dataclasses.replace(SPEC, name=name)


def start_server(tmp_path_factory, **kwargs):
    """A live server on a background event loop; returns (server, client, stop)."""
    store = ResultStore(tmp_path_factory.mktemp("obs-store"))
    loop = asyncio.new_event_loop()
    server = ResultServer(store, port=0, quiet=True, **kwargs)
    started = threading.Event()

    def run() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(10.0)

    def stop() -> None:
        asyncio.run_coroutine_threadsafe(server.close(), loop).result(30.0)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10.0)

    return server, ServiceClient(port=server.port), stop


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    """Fleet-only (workers=0) server: shards stay pending until leased."""
    server, client, stop = start_server(tmp_path_factory, workers=0)
    yield server, client
    stop()


@pytest.fixture(scope="module")
def bounded(tmp_path_factory):
    """Tight admission bounds: 1 pending or in-flight eval, 1 active job."""
    server, client, stop = start_server(
        tmp_path_factory,
        workers=0,
        max_pending_evals=1,
        max_pending_jobs=1,
    )
    yield server, client
    stop()


@pytest.fixture(scope="module")
def bare(tmp_path_factory):
    """Metrics disabled (the ``serve --no-metrics`` configuration)."""
    server, client, stop = start_server(tmp_path_factory, metrics=False)
    yield server, client
    stop()


# --------------------------------------------------------------------- #
# /metrics and /v1/stats
# --------------------------------------------------------------------- #
class TestMetricsEndpoint:
    def test_exposition_covers_the_service_stack(self, service):
        _, client = service
        client.health()  # guarantee at least one observed request
        client.evaluate("alexnet", m=2, multiplier_budget=256)
        text = client.metrics_text()
        for family in (
            "repro_http_requests_total",
            "repro_http_request_seconds_bucket",
            "repro_http_rejected_total",
            "repro_batcher_occupancy",
            "repro_batcher_requests_total",
            "repro_store_results",
            "repro_store_segments",
            "repro_jobs_tracked",
            "repro_job_shards",
            "repro_fleet_active_leases",
            "repro_fleet_leases",
            "repro_eval_cache_hit_rate",
            "repro_uptime_seconds",
        ):
            assert f"# TYPE {family.removesuffix('_bucket')}" in text, family
        # Every segment is columnar, so the segment gauge is unlabelled.
        segment_lines = [
            line for line in text.splitlines() if line.startswith("repro_store_segments")
        ]
        assert len(segment_lines) == 1
        assert segment_lines[0].split()[0] == "repro_store_segments"
        # Per-route request counting with status labels, non-zero.
        assert 'route="/health"' in text
        assert 'repro_http_request_seconds_count{route="/v1/evaluate"} 1' in text

    def test_content_type_is_prometheus_text(self, service):
        server, _ = service
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            connection.request("GET", "/metrics")
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == (
                "text/plain; version=0.0.4; charset=utf-8"
            )
            response.read()
        finally:
            connection.close()

    def test_unrouted_paths_share_one_label(self, service):
        _, client = service
        for path in ("/v1/nope-1", "/v1/nope-2", "/totally/elsewhere"):
            with pytest.raises(ServiceError):
                client._request("GET", path)
        text = client.metrics_text()
        assert 'route="(unrouted)"' in text
        assert "nope-1" not in text  # unbounded label cardinality is a leak

    def test_stats_json_twin_has_percentiles(self, service):
        _, client = service
        client.health()
        stats = client.stats()
        assert stats["repro_uptime_seconds"]["samples"][0]["value"] > 0
        latency = stats["repro_http_request_seconds"]
        assert latency["type"] == "histogram"
        sample = next(
            s for s in latency["samples"] if s["labels"]["route"] == "/health"
        )
        assert sample["count"] >= 1
        assert sample["p50"] is not None and sample["p99"] >= sample["p50"]

    def test_disabled_metrics_404(self, bare):
        _, client = bare
        assert client.health()["status"] == "ok"
        with pytest.raises(ServiceError) as excinfo:
            client.metrics_text()
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client.stats()
        assert excinfo.value.status == 404


# --------------------------------------------------------------------- #
# Trace-id propagation over the wire
# --------------------------------------------------------------------- #
class TestTraceHeader:
    def echo(self, port: int, headers: dict) -> tuple:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            connection.request("GET", "/health", headers=headers)
            response = connection.getresponse()
            response.read()
            return response.status, response.getheader(TRACE_HEADER)
        finally:
            connection.close()

    def test_client_supplied_id_is_echoed(self, service):
        server, _ = service
        status, echoed = self.echo(server.port, {TRACE_HEADER: "my-trace-0001"})
        assert status == 200
        assert echoed == "my-trace-0001"

    def test_missing_id_gets_minted(self, service):
        server, _ = service
        _, echoed = self.echo(server.port, {})
        assert echoed and TRACE_ID_PATTERN.match(echoed)

    def test_malformed_id_is_replaced_not_reflected(self, service):
        # A header that fails validation must never be echoed back
        # verbatim (header-injection hygiene): the server mints instead.
        server, _ = service
        bad = "spaces are invalid"
        _, echoed = self.echo(server.port, {TRACE_HEADER: bad})
        assert echoed != bad
        assert TRACE_ID_PATTERN.match(echoed)

    def test_service_client_sends_ambient_context(self, service):
        _, client = service
        with trace_context("ctx-trace-42"):
            client.health()
        text = client.metrics_text()
        assert text  # the request above went through with the bound id
        # The binding is what _request_once sends; the echo test above
        # verified the server round-trips it, so here it is enough that
        # the call succeeded under an ambient context.


# --------------------------------------------------------------------- #
# Backpressure: 429 + Retry-After
# --------------------------------------------------------------------- #
class TestBackpressure:
    def test_saturated_batcher_answers_429_with_retry_after(self, bounded):
        server, client = bounded
        rejected_before = server.batcher.stats.rejected
        # Park the evaluation worker so the one admitted request stays in
        # flight until every other call has been turned away.
        gate = threading.Event()
        server._worker.submit(gate.wait, 30.0)

        def one(_index: int):
            try:
                return client.evaluate_raw(
                    network="alexnet", m=2, multiplier_budget=256
                )
            except ServiceError as error:
                return error

        outcomes = []
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                calls = [pool.submit(one, index) for index in range(6)]
                for call in as_completed(calls, timeout=30.0):
                    outcomes.append(call.result())
                    if len(outcomes) == 5:
                        gate.set()  # the five refusals are in
        finally:
            gate.set()
        rejected = [o for o in outcomes if isinstance(o, ServiceError)]
        served = [o for o in outcomes if isinstance(o, dict)]
        assert len(served) == 1, "the one admitted request must still be answered"
        assert len(rejected) == 5, "max_pending_evals=1 must shed every other call"
        for error in rejected:
            assert error.status == 429
            assert error.retry_after_s is not None and error.retry_after_s >= 1
        assert server.batcher.stats.rejected - rejected_before == 5
        text = client.metrics_text()
        assert 'repro_http_rejected_total{queue="evaluate"}' in text
        assert "repro_batcher_rejected_total 0" not in text

    def test_full_job_queue_answers_429(self, bounded):
        _, client = bounded
        first = client.submit_job(named("obs-backpressure-1"))
        assert first["state"] in ("queued", "running")
        with pytest.raises(ServiceError) as excinfo:
            client.submit_job(named("obs-backpressure-2"))
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after_s is not None
        assert "active job" in excinfo.value.message
        # /v1/campaign shares the same admission bound.
        with pytest.raises(ServiceError) as excinfo:
            client.submit_campaign(named("obs-backpressure-3"))
        assert excinfo.value.status == 429
        text = client.metrics_text()
        assert 'repro_http_rejected_total{queue="jobs"}' in text


# --------------------------------------------------------------------- #
# Jobs / leases pagination
# --------------------------------------------------------------------- #
class TestListingPagination:
    @pytest.fixture(scope="class")
    def jobs(self, service):
        """Five fleet-only jobs (never executed: workers=0, no workers)."""
        _, client = service
        return [
            client.submit_job(named(f"obs-page-{index}")) for index in range(5)
        ]

    def test_jobs_pages_follow_cursor_to_the_full_listing(self, service, jobs):
        _, client = service
        everything = client.jobs_page()
        assert everything["total"] >= 5
        assert everything["next_cursor"] is None

        pages = [client.jobs_page(limit=2)]
        while pages[-1]["next_cursor"]:
            pages.append(client.jobs_page(limit=2, cursor=pages[-1]["next_cursor"]))
        assert all(page["count"] <= 2 for page in pages)
        assert [job["id"] for page in pages for job in page["jobs"]] == [
            job["id"] for job in everything["jobs"]
        ]

    def test_iter_jobs_drains_and_matches(self, service, jobs):
        _, client = service
        drained = [job["id"] for job in client.iter_jobs(page_size=2)]
        assert drained == [job["id"] for job in client.jobs_page()["jobs"]]
        assert {job["id"] for job in jobs} <= set(drained)

    def test_leases_pages_follow_cursor(self, service, jobs):
        _, client = service
        grants = client.acquire_leases("obs-pager", count=4)["leases"]
        assert len(grants) == 4  # one shard per job, five jobs queued
        first = client.leases(limit=3)
        assert first["count"] == 3
        assert first["total"] >= 4
        assert "fleet" in first
        second = client.leases(limit=3, cursor=first["next_cursor"])
        ids = [row["id"] for row in first["leases"] + second["leases"]]
        assert len(ids) == len(set(ids))
        assert {grant["id"] for grant in grants} <= set(ids)

    def test_bad_cursor_400(self, service, jobs):
        _, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.jobs_page(cursor="not-a-cursor")
        assert excinfo.value.status == 400
        assert "invalid cursor" in excinfo.value.message

    def test_foreign_cursor_rejected(self, service, jobs):
        # A leases cursor on /v1/jobs (and vice versa) is a 400, not a
        # silently wrong page.
        _, client = service
        client.acquire_leases("obs-pager-2", count=1)
        lease_cursor = client.leases(limit=1)["next_cursor"]
        assert lease_cursor
        with pytest.raises(ServiceError) as excinfo:
            client.jobs_page(cursor=lease_cursor)
        assert excinfo.value.status == 400
        job_cursor = client.jobs_page(limit=1)["next_cursor"]
        with pytest.raises(ServiceError) as excinfo:
            client.leases(limit=1, cursor=job_cursor)
        assert excinfo.value.status == 400

    def test_bad_limit_400(self, service, jobs):
        _, client = service
        for bad in ("0", "-3", "abc"):
            with pytest.raises(ServiceError) as excinfo:
                client._request("GET", f"/v1/jobs?limit={bad}")
            assert excinfo.value.status == 400
