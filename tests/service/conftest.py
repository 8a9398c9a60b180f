"""Fixtures shared by the result-store tests."""

from __future__ import annotations

import json

import pytest

from repro.experiments import ExperimentSpec
from repro.service.store import ENVELOPE_SCHEMA, result_key


@pytest.fixture()
def legacy_line():
    """Build one legacy JSONL envelope line (the pre-columnar segment format)."""

    def line(payload, sequence, created=0.0):
        spec = payload["spec"]
        meta = {
            "key": result_key(payload),
            "fingerprint": ExperimentSpec.from_dict(spec).fingerprint(),
            "name": spec["name"],
            "networks": spec["networks"],
            "devices": spec["devices"],
            "points": len(payload["points"]),
            "evaluations": payload["evaluations"],
            "sequence": sequence,
            "created": created,
        }
        envelope = {"schema": ENVELOPE_SCHEMA, "meta": meta, "result": payload}
        return json.dumps(envelope, separators=(",", ":")) + "\n"

    return line
