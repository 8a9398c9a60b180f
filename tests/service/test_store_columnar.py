"""Columnar store: legacy JSONL import, engine parity, cursors, compaction.

The binary columnar format is the store's only write and serve format.
Every externally visible behaviour (payload round trips, query/pareto/
best pages, pagination cursors, compaction) must match the plain-Python
:class:`ReferenceEngine` over the decoded payload, and legacy JSONL
segments must import into it bit-identically.
"""

from __future__ import annotations

import copy
import json
import random

import pytest

from repro.core.design_space import SweepSpec
from repro.experiments import ExperimentSpec, run_experiment
from repro.experiments.cli import main as cli_main
from repro.experiments.persistence import result_to_dict
from repro.service import QuerySpec, ResultStore
from repro.service import columnar as _columnar
from repro.service.query import (
    ColumnarEngine,
    ReferenceEngine,
    best_row,
    pareto_rows,
    query_rows,
)
from repro.service.store import result_key


def tiny_spec(name, networks=("vgg16-d",), devices=("xc7vx485t",)):
    return ExperimentSpec(
        networks=networks,
        devices=devices,
        sweeps=(
            SweepSpec(
                m_values=(2, 3),
                multiplier_budgets=(256, 512),
                frequencies_mhz=(150.0, 200.0),
            ),
        ),
        name=name,
    )


@pytest.fixture(scope="module")
def payload_a():
    return result_to_dict(
        run_experiment(tiny_spec("col-a", networks=("vgg16-d", "alexnet")))
    )


@pytest.fixture(scope="module")
def payload_b():
    return result_to_dict(
        run_experiment(tiny_spec("col-b", networks=("alexnet",), devices=("xc7vx690t",)))
    )


@pytest.fixture()
def dual(tmp_path, payload_a, payload_b):
    """A columnar store of two results, plus each result's two engines.

    Returns ``(store, engines)`` where ``engines(key)`` is the stored
    result's ``(ColumnarEngine, ReferenceEngine)`` pair: the zero-copy
    engine the store serves from, and the oracle over the decoded payload.
    """
    store = ResultStore(tmp_path)
    for payload in (payload_a, payload_b):
        store.put_payload(payload)

    def engines(key):
        engine = store._engine_for(key)
        assert isinstance(engine, ColumnarEngine)
        return engine, ReferenceEngine(store.get_payload(key))

    return store, engines


def canon(value):
    """Byte-level comparison form (dict order significant via JSON dump)."""
    return json.dumps(value, sort_keys=False)


def page_shape(page):
    """A page minus the cursor token."""
    return {
        "key": page.key,
        "rows": page.rows,
        "total": page.total,
        "has_more": page.next_cursor is not None,
    }


def drain(store, spec):
    """All pages of a query, following cursors; returns (rows, totals)."""
    rows, totals, cursor = [], [], None
    while True:
        page = store.query_page(
            QuerySpec(**{**spec.to_dict(), "cursor": cursor}) if cursor else spec
        )
        rows.extend(page.rows)
        totals.append(page.total)
        cursor = page.next_cursor
        if cursor is None:
            return rows, totals


def drain_rows(engine, spec, start=0):
    """Every ``query_rows`` page of one engine, following ``next_start``."""
    pages = []
    while start is not None:
        rows, total, start = query_rows(engine, spec, start, spec.limit)
        pages.append((rows, total, start))
    return pages


def segment_names(root):
    return sorted(path.name for path in (root / "segments").glob("segment-*"))


def segment_identities(root):
    """``{name: (inode, mtime_ns)}`` of every segment file."""
    return {
        path.name: (path.stat().st_ino, path.stat().st_mtime_ns)
        for path in (root / "segments").glob("segment-*")
    }


class TestLegacyImport:
    def test_jsonl_to_columnar_bit_identical(self, tmp_path, payload_a, payload_b, legacy_line):
        (tmp_path / "segments").mkdir()
        (tmp_path / "segments" / "segment-000001.jsonl").write_text(
            legacy_line(payload_a, sequence=1) + legacy_line(payload_b, sequence=2)
        )
        store = ResultStore(tmp_path)
        assert segment_names(tmp_path) == ["segment-000001.col"]
        # Same keys, byte-identical payloads (including dict field order).
        assert store.keys() == [result_key(payload_a), result_key(payload_b)]
        assert canon(store.get_payload(result_key(payload_a))) == canon(payload_a)
        assert canon(store.get_payload(result_key(payload_b))) == canon(payload_b)

    @pytest.fixture()
    def messy_legacy(self, tmp_path, payload_a, payload_b, legacy_line):
        """A legacy store with a foreign line, a superseded duplicate and a
        torn tail; returns the payloads it should serve, by key."""
        # Same content key as payload_a; only run provenance differs.
        newer_a = {**payload_a, "elapsed_seconds": payload_a["elapsed_seconds"] + 1.0}
        assert result_key(newer_a) == result_key(payload_a)
        segments = tmp_path / "segments"
        segments.mkdir()
        (segments / "segment-000001.jsonl").write_text(
            legacy_line(payload_a, sequence=1, created=1.0)
            + json.dumps({"schema": "someone-else/1", "meta": {}, "result": {}})
            + "\n"
            + legacy_line(payload_b, sequence=2)
        )
        (segments / "segment-000002.jsonl").write_text(
            legacy_line(newer_a, sequence=3, created=3.0)
            + legacy_line(payload_b, sequence=4)[:-40]  # torn mid-append
        )
        # Oldest sequence first: b (2), then the newest copy of a (3).
        return {result_key(payload_b): payload_b, result_key(newer_a): newer_a}

    def test_import_serves_complete_newest_envelopes(self, tmp_path, messy_legacy):
        store = ResultStore(tmp_path)
        assert not list((tmp_path / "segments").glob("*.jsonl"))
        assert segment_names(tmp_path) == ["segment-000001.col"]
        assert store.keys() == list(messy_legacy)
        key_b, key_a = messy_legacy
        assert (store.record(key_a).sequence, store.record(key_a).created) == (3, 3.0)
        for key, payload in messy_legacy.items():
            assert canon(store.get_payload(key)) == canon(payload)

    def test_reopen_after_import_rewrites_nothing(self, tmp_path, messy_legacy):
        ResultStore(tmp_path)
        before = segment_identities(tmp_path)
        index_before = (tmp_path / "index.json").read_bytes()
        reopened = ResultStore(tmp_path)
        assert segment_identities(tmp_path) == before
        assert (tmp_path / "index.json").read_bytes() == index_before
        assert reopened.keys() == list(messy_legacy)
        for key, payload in messy_legacy.items():
            assert canon(reopened.get_payload(key)) == canon(payload)

    def test_crash_mid_import_loses_nothing(
        self, tmp_path, payload_a, payload_b, legacy_line, monkeypatch
    ):
        (tmp_path / "segments").mkdir()
        (tmp_path / "segments" / "segment-000001.jsonl").write_text(
            legacy_line(payload_a, sequence=1) + legacy_line(payload_b, sequence=2)
        )
        encode_block = _columnar.encode_block
        calls = []

        def failing_encode(meta, payload):
            calls.append(meta["key"])
            if len(calls) == 2:
                raise OSError("disk full")
            return encode_block(meta, payload)

        monkeypatch.setattr(_columnar, "encode_block", failing_encode)
        with pytest.raises(OSError, match="disk full"):
            # One record per segment: the crash leaves two side files.
            ResultStore(tmp_path, segment_max_records=1)
        assert len(list((tmp_path / "segments").glob("*.compact"))) == 2
        monkeypatch.undo()

        store = ResultStore(tmp_path)
        assert not list((tmp_path / "segments").glob("*.jsonl"))
        assert not list((tmp_path / "segments").glob("*.compact"))
        assert store.keys() == [result_key(payload_a), result_key(payload_b)]
        assert canon(store.get_payload(result_key(payload_a))) == canon(payload_a)
        assert canon(store.get_payload(result_key(payload_b))) == canon(payload_b)

    def test_import_beside_columnar_segments(self, tmp_path, payload_a, payload_b, legacy_line):
        # A store already holding columnar blocks next to a legacy segment
        # (one newer copy of a stored key, one new key): the import keeps
        # the columnar records and adds the legacy ones.
        store = ResultStore(tmp_path)
        store.put_payload(payload_a)
        newer_a = {**payload_a, "elapsed_seconds": payload_a["elapsed_seconds"] + 1.0}
        (tmp_path / "segments" / "segment-000002.jsonl").write_text(
            legacy_line(newer_a, sequence=2, created=2.0) + legacy_line(payload_b, sequence=3)
        )
        del store

        store = ResultStore(tmp_path)
        assert not list((tmp_path / "segments").glob("*.jsonl"))
        assert segment_names(tmp_path) == ["segment-000001.col"]
        assert store.keys() == [result_key(payload_a), result_key(payload_b)]
        assert store.record(result_key(payload_a)).sequence == 2
        assert canon(store.get_payload(result_key(payload_a))) == canon(newer_a)
        assert canon(store.get_payload(result_key(payload_b))) == canon(payload_b)

    def test_migrate_command_imports(self, tmp_path, payload_a, legacy_line, capsys):
        (tmp_path / "segments").mkdir()
        (tmp_path / "segments" / "segment-000001.jsonl").write_text(
            legacy_line(payload_a, sequence=1)
        )
        assert cli_main(["migrate", "--store", str(tmp_path)]) == 0
        assert "kept 1 result(s), dropped 0" in capsys.readouterr().out
        assert segment_names(tmp_path) == ["segment-000001.col"]
        store = ResultStore(tmp_path)
        assert canon(store.get_payload(result_key(payload_a))) == canon(payload_a)

    def test_engine_kinds_match_storage(self, dual, payload_a, payload_b):
        store, _engines = dual
        for payload in (payload_a, payload_b):
            assert isinstance(store._engine_for(result_key(payload)), ColumnarEngine)


NUMERIC_METRICS = (
    "throughput_gops",
    "total_latency_ms",
    "power_efficiency",
    "multiplier_efficiency",
    "resources.dsp_slices",
    "latency.pipeline_depth",
    "multiplication_saving_factor",
)


class TestEngineParity:
    """Seeded property tests: ColumnarEngine answers == ReferenceEngine answers."""

    def test_random_queries_identical(self, dual, payload_a):
        store, engines = dual
        rng = random.Random(0xC01)
        points = payload_a["points"]
        networks = sorted({p["workload_name"] for p in points})

        def value_of(point, metric):
            node = point
            for part in metric.replace("total_latency_ms", "latency.total_latency_ms").split("."):
                node = node[part]
            return node

        for _ in range(120):
            fields = {}
            if rng.random() < 0.5:
                fields["network"] = rng.choice(networks)
            if rng.random() < 0.3:
                fields["name"] = "col-a"  # experiment name: pins the record
            metric = rng.choice(NUMERIC_METRICS + (None,))
            if metric:
                fields["metric"] = metric
                if rng.random() < 0.5:
                    fields["maximize"] = rng.random() < 0.5
                if rng.random() < 0.5:
                    fields["top_k"] = rng.randint(1, len(points))
            if rng.random() < 0.4:
                where_metric = rng.choice(NUMERIC_METRICS[:4])
                if where_metric == "multiplication_saving_factor":
                    threshold = 1.5
                else:
                    sample = [value_of(p, where_metric) for p in points]
                    threshold = sorted(sample)[len(sample) // 2]
                fields["where"] = [
                    [where_metric, rng.choice(["<", "<=", ">", ">=", "==", "!="]), threshold]
                ]
            if rng.random() < 0.4:
                fields["select"] = rng.sample(NUMERIC_METRICS, rng.randint(1, 3))
            if rng.random() < 0.6:
                fields["limit"] = rng.randint(1, len(points) + 2)

            spec = QuerySpec(**fields)
            key, start, _ = store._resolve(spec, "query")
            col, ref = engines(key)
            # Every page, following next_start, must agree.
            expected = drain_rows(ref, spec, start)
            assert canon(drain_rows(col, spec, start)) == canon(expected), fields
            # ...and the store serves exactly those pages through cursors.
            rows, total, next_start = expected[0]
            assert canon(page_shape(store.query_page(spec))) == canon(
                {"key": key, "rows": rows, "total": total, "has_more": next_start is not None}
            ), fields
            assert canon(drain(store, spec)) == canon(
                ([row for page in expected for row in page[0]], [page[1] for page in expected])
            ), fields

    def test_pareto_identical(self, dual):
        store, engines = dual
        objective_sets = (
            None,  # result's own campaign objectives
            [["throughput_gops", True], ["power_watts", False]],
            [["total_latency_ms", False], ["resources.dsp_slices", False], ["throughput_gops", True]],
        )
        for objectives in objective_sets:
            for network in (None, "vgg16-d"):
                for limit in (None, 1, 3, 1000):
                    spec = QuerySpec(network=network, objectives=objectives, limit=limit)
                    key, start, _ = store._resolve(spec, "pareto")
                    col, ref = engines(key)
                    defaults = store._default_objectives(key) if objectives is None else ()
                    expected = pareto_rows(ref, spec, defaults, start, limit)
                    assert canon(pareto_rows(col, spec, defaults, start, limit)) == canon(
                        expected
                    )
                    page = store.pareto(spec)
                    assert canon(page.objectives) == canon(expected[0])
                    assert canon(page.fronts) == canon(expected[1])
                    assert page.total == expected[2]
                    assert (page.next_cursor is None) == (expected[3] is None)

    def test_best_identical(self, dual):
        store, engines = dual
        for metric in NUMERIC_METRICS:
            for maximize in (None, True, False):
                spec = QuerySpec(metric=metric, maximize=maximize)
                key, _start, _ = store._resolve(spec, "best")
                col, ref = engines(key)
                row, value = best_row(ref, spec)
                assert canon(best_row(col, spec)) == canon((row, value))
                best = store.best(spec)
                assert (best.key, best.metric, best.value) == (key, metric, value)
                assert canon(best.row) == canon(row)

    def test_error_parity(self, dual):
        # Unresolvable specs fail before any engine runs, with the stable
        # not-found messages the HTTP layer forwards verbatim.
        store, _engines = dual
        for spec, message in (
            (
                QuerySpec(network="not-a-network"),
                'no stored result matches {"network": "not-a-network"}',
            ),
            (QuerySpec(key="0" * 16), f"no stored result with key {'0' * 16!r}"),
        ):
            for read in (store.query_page, store.pareto):
                with pytest.raises(KeyError) as excinfo:
                    read(spec)
                assert excinfo.value.args == (message,)


class TestCursors:
    def test_cursor_stable_across_appends(self, tmp_path, payload_a, payload_b):
        store = ResultStore(tmp_path)
        store.put_payload(payload_a)
        spec = QuerySpec(
            name="col-a", metric="throughput_gops", maximize=True, limit=5
        )
        baseline, _ = drain(store, spec)

        first = store.query_page(spec)
        assert len(first.rows) == 5 and first.next_cursor is not None
        # A new result lands between pages; the cursor pins the original.
        store.put_payload(payload_b)
        rest, _ = drain(store, QuerySpec(cursor=first.next_cursor, limit=5,
                                         metric="throughput_gops", maximize=True))
        assert canon(first.rows + rest) == canon(baseline)

    def test_cursor_bound_to_query_shape(self, tmp_path, payload_a):
        store = ResultStore(tmp_path)
        store.put_payload(payload_a)
        page = store.query_page(QuerySpec(metric="throughput_gops", limit=2))
        with pytest.raises(ValueError, match="issued for a different query"):
            store.query_page(
                QuerySpec(metric="power_watts", limit=2, cursor=page.next_cursor)
            )

    def test_cursor_bound_to_result(self, tmp_path, payload_a, payload_b):
        store = ResultStore(tmp_path)
        key_a = store.put_payload(payload_a)
        key_b = store.put_payload(payload_b)
        page = store.query_page(QuerySpec(key=key_a, metric="throughput_gops", limit=2))
        with pytest.raises(ValueError, match="belongs to a different result"):
            store.query_page(
                QuerySpec(key=key_b, metric="throughput_gops", limit=2,
                          cursor=page.next_cursor)
            )

    def test_limit_slices_totals(self, tmp_path, payload_a):
        store = ResultStore(tmp_path)
        store.put_payload(payload_a)
        total = store.query_page(QuerySpec()).total
        page = store.query_page(QuerySpec(limit=3))
        assert len(page.rows) == 3
        assert page.total == total
        rows, totals = drain(store, QuerySpec(limit=3))
        assert len(rows) == total
        assert set(totals) == {total}


class TestCompactReaderSafety:
    def test_compact_while_memmap_reader_paginated(self, tmp_path, payload_a, payload_b):
        """The satellite bugfix: compaction must not yank segments from
        under a reader holding memory-mapped blocks mid-pagination."""
        store = ResultStore(tmp_path, segment_max_records=1)
        key = store.put_payload(payload_a)
        store.put_payload(payload_b)

        spec = QuerySpec(key=key, metric="throughput_gops", limit=4)
        baseline, _ = drain(store, spec)

        # A reader mid-iteration: first page fetched, engine (and its
        # memory map) live in the cache, old segment inode mapped.
        engine = store._engine_for(key)
        assert isinstance(engine, ColumnarEngine)
        first = store.query_page(spec)
        assert first.next_cursor is not None

        stats = store.compact()
        assert stats["kept"] == 2

        # The held engine still reads the (unlinked) old inode.
        assert engine.name_at(0) == payload_a["points"][0]["name"]
        assert len(engine.match_indices(QuerySpec())) == len(payload_a["points"])

        # Continuing the pagination re-resolves by key and agrees byte-
        # for-byte with the pre-compaction drain.
        rest, _ = drain(
            store,
            QuerySpec(key=key, metric="throughput_gops", limit=4,
                      cursor=first.next_cursor),
        )
        assert canon(first.rows + rest) == canon(baseline)

    def test_trash_drained_on_reopen(self, tmp_path, payload_a):
        store = ResultStore(tmp_path)
        store.put_payload(payload_a)
        trash = tmp_path / "segments" / ".trash"
        trash.mkdir()
        (trash / "segment-000099.col").write_bytes(b"leftover")
        del store
        reopened = ResultStore(tmp_path)
        assert list(trash.iterdir()) == []
        assert len(reopened) == 1

    def test_compact_drops_superseded_and_renumbers(self, tmp_path, payload_a, payload_b):
        store = ResultStore(tmp_path, segment_max_records=1)
        keys = [store.put_payload(p) for p in (payload_a, payload_b)]
        before = {key: canon(store.get_payload(key)) for key in keys}
        stats = store.compact()
        assert stats == {"kept": 2, "dropped": 0}
        segments = sorted(p.name for p in (tmp_path / "segments").glob("segment-*"))
        assert segments == ["segment-000001.col", "segment-000002.col"]
        assert {key: canon(store.get_payload(key)) for key in keys} == before


class TestRobustness:
    def test_opaque_fallback_round_trips(self, tmp_path, payload_a, payload_b):
        # A payload the strict column encoder cannot represent (a point
        # with a non-canonical key) must still round-trip bit-identically
        # and answer queries exactly like the reference engine.
        payload = copy.deepcopy(payload_a)
        payload["points"][0]["custom_annotation"] = {"note": "hand-edited"}

        col = ResultStore(tmp_path)
        key = col.put_payload(payload)
        assert key == result_key(payload)
        assert canon(col.get_payload(key)) == canon(payload)

        # Opaque storage falls back to the reference engine transparently.
        assert isinstance(col._engine_for(key), ReferenceEngine)
        spec = QuerySpec(key=key, metric="throughput_gops", top_k=3)
        rows, total, next_start = query_rows(ReferenceEngine(payload), spec)
        assert canon(page_shape(col.query_page(spec))) == canon(
            {"key": key, "rows": rows, "total": total, "has_more": next_start is not None}
        )

    def test_torn_block_tail_skipped_and_healed(self, tmp_path, payload_a, payload_b):
        store = ResultStore(tmp_path)
        key = store.put_payload(payload_a)
        segment = next((tmp_path / "segments").glob("segment-*.col"))
        with segment.open("ab") as handle:
            handle.write(b"\x00\x01torn-partial-block")
        del store

        reopened = ResultStore(tmp_path)
        assert reopened.keys() == [key]
        assert canon(reopened.get_payload(key)) == canon(payload_a)
        # Appending after a torn tail rolls over; nothing is overwritten.
        key_b = reopened.put_payload(payload_b)
        assert sorted(reopened.keys()) == sorted([key, key_b])
        assert canon(reopened.get_payload(key)) == canon(payload_a)
        assert canon(reopened.get_payload(key_b)) == canon(payload_b)
        # The record appended after the torn tail survives a full rescan.
        rebuilt = ResultStore(tmp_path)
        rebuilt.rebuild_index()
        assert sorted(rebuilt.keys()) == sorted([key, key_b])
        assert canon(rebuilt.get_payload(key_b)) == canon(payload_b)

    def test_bulk_ingest_deferred_flush_heals(self, tmp_path, payload_a, payload_b):
        store = ResultStore(tmp_path)
        store.put_payload(payload_a, flush_index=False)
        store.put_payload(payload_b, flush_index=False)
        # Crash before flush_index(): the on-disk index is stale; a fresh
        # open must detect the mismatch and recover both records.
        del store
        reopened = ResultStore(tmp_path)
        assert len(reopened) == 2
