"""Every ``client.<name>(`` call in the runnable docs names a real method.

``docs/http-api.md`` and ``README.md`` show :class:`ServiceClient` usage as
copy-paste snippets; a client method that is renamed or deleted must not
linger there.  The snippets themselves only execute against a live server,
so this test checks the called names statically.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.service import ServiceClient

REPO_ROOT = Path(__file__).resolve().parents[2]
DOCS = (REPO_ROOT / "docs" / "http-api.md", REPO_ROOT / "README.md")
CALL = re.compile(r"\bclient\.([A-Za-z_]\w*)\(")


def client_calls(path: Path) -> set:
    return set(CALL.findall(path.read_text()))


def test_docs_show_client_calls():
    assert client_calls(DOCS[0]), "docs/http-api.md shows no client calls"


@pytest.mark.parametrize("doc", DOCS, ids=lambda path: path.name)
def test_every_client_call_names_a_client_attribute(doc):
    missing = sorted(name for name in client_calls(doc) if not hasattr(ServiceClient, name))
    assert not missing, f"{doc.name} calls ServiceClient methods that do not exist: {missing}"
