"""End-to-end HTTP tests: ResultServer + ServiceClient over a real socket.

The server runs on an ephemeral port inside a background event-loop
thread; the client is the ordinary synchronous :class:`ServiceClient`.
The acceptance-critical test is ``test_evaluate_bit_identical_to_serial``:
HTTP ``evaluate`` responses must be byte-for-byte the serial
``iter_explore`` results (after both sides pass through the persistence
round trip, which drops only the non-persisted ``engine`` provenance).
"""

from __future__ import annotations

import asyncio
import pickle
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.design_space import SweepSpec
from repro.dse import ExecutorConfig, iter_explore
from repro.experiments import ExperimentSpec, run_experiment
from repro.experiments.persistence import point_from_dict, point_to_dict
from repro.reporting import campaign_report_payload
from repro.service import (
    InfeasibleDesignError,
    ResultServer,
    ResultStore,
    ServiceClient,
    ServiceError,
)

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
    name="server-test",
)


def normalize(point):
    """A point as the wire sees it: persistence round trip (engine=None)."""
    return point_from_dict(point_to_dict(point))


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    """A live server on an ephemeral port + a client + the backing store."""
    store = ResultStore(tmp_path_factory.mktemp("store"))
    loop = asyncio.new_event_loop()
    server = ResultServer(store, port=0, quiet=True)
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
    asyncio.run_coroutine_threadsafe(server.close(), loop).result(10.0)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(10.0)


@pytest.fixture(scope="module")
def stored(service):
    """The test campaign submitted through the HTTP API."""
    _, client, _ = service
    receipt = client.submit_campaign(SPEC)
    return receipt


@pytest.fixture(scope="module")
def reference():
    """The same campaign run in-process."""
    return run_experiment(SPEC)


class TestHealthAndErrors:
    def test_health(self, service):
        _, client, store = service
        payload = client.health()
        assert payload["status"] == "ok"
        assert payload["store"]["results"] == len(store)
        assert "batcher" in payload

    def test_unknown_route_404(self, service):
        _, client, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/v1/nope")
        assert excinfo.value.status == 404

    def test_unknown_result_404(self, service):
        _, client, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client.result("does-not-exist")
        assert excinfo.value.status == 404

    def test_bad_json_400(self, service):
        server, _, _ = service
        import http.client

        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            connection.request(
                "POST", "/v1/evaluate", body="{broken",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            assert b"not valid JSON" in response.read()
        finally:
            connection.close()

    def test_unknown_evaluate_field_400(self, service):
        _, client, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client.evaluate_raw(network="vgg16-d", m=3, bogus=1)
        assert excinfo.value.status == 400
        assert "bogus" in excinfo.value.message

    def test_unknown_network_400(self, service):
        _, client, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client.evaluate_raw(network="not-a-net", m=3)
        assert excinfo.value.status == 400

    def test_non_finite_frequency_400(self, service):
        # json.loads accepts the non-standard NaN/Infinity tokens; they
        # must be rejected, not fed to the batch math as poison values.
        server, _, _ = service
        import http.client

        for token in ("NaN", "Infinity"):
            connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
            try:
                connection.request(
                    "POST", "/v1/evaluate",
                    body='{"network": "vgg16-d", "m": 3, "frequency_mhz": %s}' % token,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                assert response.status == 400
                assert b"finite" in response.read()
            finally:
                connection.close()

    def test_campaign_wrongly_typed_spec_400(self, service):
        # from_dict raises TypeError for this shape; still a client error.
        _, client, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client.submit_campaign({"networks": 5})
        assert excinfo.value.status == 400

    def test_bad_content_length_drops_cleanly(self, service):
        server, client, _ = service
        import http.client

        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            connection.putrequest("POST", "/v1/evaluate", skip_accept_encoding=True)
            connection.putheader("Content-Length", "abc")
            connection.endheaders()
            with pytest.raises((http.client.HTTPException, OSError)):
                connection.getresponse().read()
        finally:
            connection.close()
        # The server survives the malformed request.
        assert client.health()["status"] == "ok"


class TestEvaluate:
    def test_evaluate_bit_identical_to_serial(self, service):
        """Acceptance criterion: HTTP responses == iter_explore, pickled."""
        _, client, _ = service
        sweep = SPEC.sweeps[0]
        serial = [
            pickle.dumps(normalize(point))
            for point in iter_explore(
                "vgg16-d",
                sweep,
                devices="xc7vx485t",
                executor=ExecutorConfig(mode="serial"),
                cache=False,
            )
        ]
        served = []
        for entry in sweep.configurations():
            try:
                point = client.evaluate(
                    "vgg16-d",
                    m=entry.m,
                    r=entry.r,
                    multiplier_budget=entry.multiplier_budget,
                    frequency_mhz=entry.frequency_mhz,
                    shared_data_transform=entry.shared_data_transform,
                    device="xc7vx485t",
                )
            except InfeasibleDesignError:
                continue
            served.append(pickle.dumps(point))
        assert served == serial

    def test_concurrent_evaluates_coalesce_and_match(self, service):
        server, client, _ = service
        sweep = SPEC.sweeps[0]
        entries = list(sweep.configurations())
        batches_before = server.batcher.stats.batches

        def one(entry):
            return client.evaluate_raw(
                network="alexnet",
                m=entry.m,
                r=entry.r,
                multiplier_budget=entry.multiplier_budget,
                frequency_mhz=entry.frequency_mhz,
                shared_data_transform=entry.shared_data_transform,
                device="xc7vx485t",
            )

        with ThreadPoolExecutor(max_workers=8) as pool:
            payloads = list(pool.map(one, entries))

        serial = {
            pickle.dumps(normalize(point))
            for point in iter_explore(
                "alexnet",
                sweep,
                devices="xc7vx485t",
                executor=ExecutorConfig(mode="serial"),
                cache=False,
            )
        }
        served = {
            pickle.dumps(point_from_dict(payload["point"]))
            for payload in payloads
            if payload["feasible"]
        }
        assert served == serial
        # The 12 concurrent requests arrived inside shared windows.
        assert server.batcher.stats.batches - batches_before < len(entries)

    def test_infeasible_raises_with_message(self, service):
        _, client, _ = service
        with pytest.raises(InfeasibleDesignError, match="cannot host one"):
            client.evaluate("vgg16-d", m=4, multiplier_budget=16)

    def test_oversized_tile_rejected_400(self, service):
        # An unbounded m would wedge the single evaluation worker on
        # transform generation for tens of seconds; the server must stop
        # it before it reaches the batcher.
        _, client, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client.evaluate_raw(network="vgg16-d", m=128)
        assert excinfo.value.status == 400
        assert "exceeds the evaluate limit" in excinfo.value.message
        # Degenerate m still flows through as an ordinary per-entry error.
        payload = client.evaluate_raw(network="vgg16-d", m=0)
        assert payload["feasible"] is False


class TestStoredQueries:
    def test_campaign_receipt(self, stored, reference):
        assert stored["fingerprint"] == SPEC.fingerprint()
        assert stored["evaluations"] == reference.evaluations
        assert stored["feasible"] == reference.feasible
        assert stored["summary"]

    def test_results_listing(self, service, stored):
        _, client, _ = service
        records = client.results(network="vgg16-d")
        assert any(record["key"] == stored["key"] for record in records)
        assert client.results(network="resnet18") == []

    def test_full_result_fetch(self, service, stored, reference):
        _, client, _ = service
        payload = client.result(stored["key"])
        assert payload["evaluations"] == reference.evaluations
        assert len(payload["points"]) == reference.feasible

    def test_pareto_matches_in_process(self, service, stored, reference):
        _, client, _ = service
        fronts = client.pareto(key=stored["key"])
        expected = reference.pareto_fronts()
        assert set(fronts) == set(expected)
        for name, front in expected.items():
            assert [pickle.dumps(point) for point in fronts[name]] == [
                pickle.dumps(normalize(point)) for point in front
            ]

    def test_pareto_by_fingerprint(self, service, reference):
        _, client, _ = service
        fronts = client.pareto(fingerprint=SPEC.fingerprint())
        assert set(fronts) == set(reference.pareto_fronts())

    def test_query_top_k(self, service, stored, reference):
        _, client, _ = service
        top = list(client.iter_query(
            key=stored["key"], network="vgg16-d", metric="throughput_gops", top_k=3
        ))
        expected = sorted(
            reference.select(network="vgg16-d"),
            key=lambda point: point.throughput_gops,
            reverse=True,
        )[:3]
        assert [pickle.dumps(point) for point in top] == [
            pickle.dumps(normalize(point)) for point in expected
        ]

    def test_best(self, service, stored, reference):
        _, client, _ = service
        best = client.best("power_efficiency", key=stored["key"])
        assert pickle.dumps(best) == pickle.dumps(
            normalize(reference.best("power_efficiency"))
        )

    def test_report(self, service, stored, reference):
        _, client, _ = service
        report = client.report(stored["key"], metric="throughput_gops")
        expected = campaign_report_payload(reference, "throughput_gops")
        assert report["summary"] == expected["summary"]
        assert report["comparison"] == expected["comparison"]

    def test_query_unknown_metric_400(self, service, stored):
        _, client, _ = service
        with pytest.raises(ServiceError) as excinfo:
            list(client.iter_query(key=stored["key"], metric="nonsense"))
        assert excinfo.value.status == 400

    def test_report_unknown_metric_400(self, service, stored):
        _, client, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client.report(stored["key"], metric="nonsense")
        assert excinfo.value.status == 400

    def test_pareto_non_bool_maximize_400(self, service, stored):
        # A truthy non-bool ("min") must not silently maximize.
        _, client, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client.pareto(key=stored["key"], objectives=[["total_latency_ms", "min"]])
        assert excinfo.value.status == 400
        assert "maximize-bool" in excinfo.value.message

    def test_no_match_404(self, service):
        _, client, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client.best("throughput_gops", fingerprint="f" * 64)
        assert excinfo.value.status == 404

    def test_campaign_bad_spec_400(self, service):
        _, client, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client.submit_campaign({"networks": ["vgg16-d"], "bogus_field": 1})
        assert excinfo.value.status == 400
        assert "bogus_field" in excinfo.value.message

    def test_resubmit_dedups_to_same_key(self, service, stored):
        # Evaluation is deterministic and the content key excludes run
        # provenance (timings, cache stats), so re-running the same spec
        # dedups to the already-stored result: computed once, served
        # forever.
        _, client, store = service
        before = len(store)
        receipt = client.submit_campaign(SPEC)
        assert receipt["key"] == stored["key"]
        assert receipt["fingerprint"] == stored["fingerprint"]
        assert len(store) == before


class TestQuerySpecSurface:
    """The unified QuerySpec vocabulary over HTTP: where/select/pagination."""

    def test_where_filters_rows(self, service, stored, reference):
        _, client, _ = service
        points = list(client.iter_query(
            key=stored["key"],
            where=[["m", "==", 2], ["throughput_gops", ">", 0]],
        ))
        expected = [p for p in reference.points if p.m == 2 and p.throughput_gops > 0]
        assert [pickle.dumps(p) for p in points] == [
            pickle.dumps(normalize(p)) for p in expected
        ]

    def test_select_projects_flat_rows(self, service, stored, reference):
        _, client, _ = service
        rows = list(client.iter_query(
            key=stored["key"],
            metric="throughput_gops",
            top_k=2,
            select=["name", "throughput_gops", "multiplication_saving_factor"],
        ))
        expected = sorted(
            reference.points, key=lambda p: p.throughput_gops, reverse=True
        )[:2]
        assert rows == [
            {
                "name": p.name,
                "throughput_gops": p.throughput_gops,
                "multiplication_saving_factor": p.multiplication_saving_factor,
            }
            for p in expected
        ]

    def test_query_page_and_cursor(self, service, stored):
        _, client, _ = service
        first = client.query_page(key=stored["key"], metric="throughput_gops", limit=5)
        assert first["count"] == 5
        assert len(first["points"]) == 5
        assert first["total"] > 5
        assert first["next_cursor"]

        # Follow cursors to the end: page sizes honour limit, the union
        # is exactly the unpaginated ordering, and the last page has no
        # continuation.
        pages = [first]
        while pages[-1]["next_cursor"]:
            pages.append(
                client.query_page(
                    key=stored["key"],
                    metric="throughput_gops",
                    limit=5,
                    cursor=pages[-1]["next_cursor"],
                )
            )
        assert all(page["count"] <= 5 for page in pages)
        assert pages[-1]["next_cursor"] is None
        everything = client.query_page(key=stored["key"], metric="throughput_gops")
        assert [row for page in pages for row in page["points"]] == everything["points"]

    def test_default_limit_is_applied(self, service, stored):
        _, client, _ = service
        page = client.query_page(key=stored["key"])
        assert page["count"] == page["total"]  # small store: one page
        assert page["next_cursor"] is None

    def test_iter_query_drains_all_pages(self, service, stored, reference):
        _, client, _ = service
        points = list(
            client.iter_query(
                key=stored["key"], metric="throughput_gops", maximize=True, limit=3
            )
        )
        expected = sorted(
            reference.points, key=lambda p: p.throughput_gops, reverse=True
        )
        assert [pickle.dumps(p) for p in points] == [
            pickle.dumps(normalize(p)) for p in expected
        ]

    def test_pareto_pagination_merges_to_full_fronts(self, service, stored, reference):
        _, client, _ = service
        full = client.pareto(key=stored["key"])  # cursors followed internally

        # Drain raw pages by hand and merge: must reassemble the exact
        # same per-network fronts the one-shot call returned.
        merged = {}
        cursor = None
        while True:
            page = client.pareto_page(key=stored["key"], limit=2, cursor=cursor)
            assert sum(len(front) for front in page["fronts"].values()) <= 2
            for network, front in page["fronts"].items():
                merged.setdefault(network, []).extend(front)
            cursor = page["next_cursor"]
            if cursor is None:
                break
        assert set(merged) == set(full)
        for network in full:
            assert [point_from_dict(row) for row in merged[network]] == full[network]

        # An explicit limit on the legacy shim means exactly one page.
        one_page = client.pareto(key=stored["key"], limit=2)
        assert sum(len(front) for front in one_page.values()) == 2

    def test_bad_cursor_400(self, service, stored):
        _, client, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client.query_page(key=stored["key"], cursor="not-a-cursor")
        assert excinfo.value.status == 400
        assert "invalid cursor" in excinfo.value.message

    def test_cursor_query_shape_mismatch_400(self, service, stored):
        _, client, _ = service
        first = client.query_page(key=stored["key"], metric="throughput_gops", limit=2)
        with pytest.raises(ServiceError) as excinfo:
            client.query_page(
                key=stored["key"], metric="power_watts", limit=2,
                cursor=first["next_cursor"],
            )
        assert excinfo.value.status == 400
        assert "different query" in excinfo.value.message

    def test_unknown_query_field_400(self, service, stored):
        _, client, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client.query_page(key=stored["key"], sort_by="throughput_gops")
        assert excinfo.value.status == 400

    def test_bad_where_400(self, service, stored):
        _, client, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client.query_page(key=stored["key"], where=[["throughput_gops", "~", 1]])
        assert excinfo.value.status == 400
        assert "unknown where operator" in excinfo.value.message
