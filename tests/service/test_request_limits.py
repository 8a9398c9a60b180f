"""HTTP body-size bounding: oversized uploads get a 413, not buffered."""

from __future__ import annotations

import asyncio
import http.client
import json
import threading

import pytest

from repro.service import ResultServer, ResultStore, ServiceClient, ServiceError


@pytest.fixture(scope="module")
def tiny_body_service(tmp_path_factory):
    """A live server capped at a 2 KiB request body."""
    store = ResultStore(tmp_path_factory.mktemp("limit-store"))
    loop = asyncio.new_event_loop()
    server = ResultServer(
        store, port=0, max_body_bytes=2048, quiet=True
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
    yield server
    asyncio.run_coroutine_threadsafe(server.close(), loop).result(30.0)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(10.0)


def test_oversized_body_is_refused_with_413_json(tiny_body_service):
    """A body past the cap answers 413 + JSON error and closes the socket."""
    connection = http.client.HTTPConnection("127.0.0.1", tiny_body_service.port, timeout=10)
    try:
        big = json.dumps({"spec": "x" * 4096})
        connection.request(
            "POST", "/v1/jobs", body=big, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        assert response.status == 413
        assert response.getheader("Connection") == "close"
        payload = json.loads(response.read())
        assert "2048-byte limit" in payload["error"]
    finally:
        connection.close()


def test_oversized_body_is_never_read(tiny_body_service):
    """The 413 arrives before the body is sent — nothing gets buffered."""
    # Send headers declaring a huge body, but no body bytes at all: the
    # server must answer from the Content-Length header alone.
    connection = http.client.HTTPConnection("127.0.0.1", tiny_body_service.port, timeout=10)
    try:
        connection.putrequest("POST", "/v1/jobs")
        connection.putheader("Content-Type", "application/json")
        connection.putheader("Content-Length", str(1 << 30))  # 1 GiB, never sent
        connection.endheaders()
        response = connection.getresponse()
        assert response.status == 413
    finally:
        connection.close()


def test_server_stays_healthy_after_413(tiny_body_service):
    """Refusing one oversized request doesn't wedge later connections."""
    client = ServiceClient(port=tiny_body_service.port)
    with pytest.raises(ServiceError) as excinfo:
        client._request("POST", "/v1/jobs", {"spec": "x" * 4096})
    assert excinfo.value.status == 413
    assert client.health()["status"] == "ok"


def test_bodies_under_the_cap_flow_normally(tiny_body_service):
    """Requests under the cap behave exactly as before (here: a 400)."""
    client = ServiceClient(port=tiny_body_service.port)
    with pytest.raises(ServiceError) as excinfo:
        client._request("POST", "/v1/jobs", {"spec": "tiny"})
    assert excinfo.value.status == 400  # parsed and rejected on content


def test_max_body_bytes_validation():
    store = ResultStore.__new__(ResultStore)  # never touched before raise
    with pytest.raises(ValueError, match="max_body_bytes"):
        ResultServer(store, max_body_bytes=0)
