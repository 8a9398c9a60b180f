"""``docs/http-api.md`` must cover exactly the server's route table.

The reference documents endpoints as ``### METHOD /path`` headings; this
test diffs that set against :meth:`repro.service.ResultServer.route_table`
(placeholder segment names normalized), so adding, removing or renaming a
route without updating the docs fails CI — in either direction.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.service import ResultServer

DOC = Path(__file__).resolve().parents[2] / "docs" / "http-api.md"

HEADING = re.compile(r"^###\s+(GET|POST|PUT|DELETE|PATCH)\s+(/\S*)\s*$", re.MULTILINE)
PLACEHOLDER = re.compile(r"\{[^}]*\}")


def normalize(method: str, pattern: str) -> str:
    """``(method, pattern)`` with placeholder names erased: ``GET /v1/x/{}``."""
    return f"{method} {PLACEHOLDER.sub('{}', pattern)}"


def documented_routes() -> set:
    """Every ``### METHOD /path`` heading in the API reference."""
    return {
        normalize(method, pattern)
        for method, pattern in HEADING.findall(DOC.read_text())
    }


def served_routes() -> set:
    """Every route the server actually dispatches."""
    return {
        normalize(method, pattern) for method, pattern in ResultServer.route_table()
    }


def test_doc_exists_and_documents_something():
    assert DOC.exists(), "docs/http-api.md is missing"
    assert len(documented_routes()) >= 10


def test_every_served_route_is_documented():
    missing = served_routes() - documented_routes()
    assert not missing, (
        f"server routes missing from docs/http-api.md: {sorted(missing)} — "
        "add a '### METHOD /path' section for each"
    )


def test_no_stale_documented_routes():
    stale = documented_routes() - served_routes()
    assert not stale, (
        f"docs/http-api.md documents routes the server no longer serves: "
        f"{sorted(stale)}"
    )


def test_doc_mentions_error_shape_and_statuses():
    text = DOC.read_text()
    assert '{"error"' in text, "the shared error shape must be documented"
    for status in ("400", "404", "405", "500", "202"):
        assert status in text, f"status code {status} undocumented"


SHARD_COUNTS = re.compile(r'"shards":\s*(\{[^{}]*\})')


def test_shard_count_examples_match_shard_states():
    """Every ``"shards": {…}`` example lists exactly the scheduler's states."""
    from repro.service.jobs import SHARD_STATES

    examples = [json.loads(match) for match in SHARD_COUNTS.findall(DOC.read_text())]
    assert len(examples) >= 2, "the job endpoints' shard-count examples are gone"
    for example in examples:
        assert set(example) == set(SHARD_STATES + ("total",)), example
