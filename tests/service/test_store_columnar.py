"""Columnar store: migration bit-identity, JSONL equivalence, cursors, compaction.

The contract under test is the tentpole one: the binary columnar format
is an *internal* representation — every externally visible behaviour
(payload round trips, query/pareto/best pages, pagination cursors,
compaction) must be indistinguishable from the legacy JSONL store, with
the JSONL path kept as the import/migration route.
"""

from __future__ import annotations

import copy
import json
import random

import numpy as np
import pytest

from repro.core.design_space import SweepSpec
from repro.experiments import ExperimentSpec, run_experiment
from repro.experiments.persistence import result_to_dict
from repro.service import QuerySpec, ResultStore
from repro.service.query import ColumnarEngine, ReferenceEngine


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
    """The same two results stored twice: legacy JSONL and columnar."""
    jsonl = ResultStore(tmp_path / "jsonl", format="jsonl")
    col = ResultStore(tmp_path / "col", format="columnar")
    for payload in (payload_a, payload_b):
        assert jsonl.put_payload(payload) == col.put_payload(payload)
    return jsonl, col


def canon(value):
    """Byte-level comparison form (dict order significant via JSON dump)."""
    return json.dumps(value, sort_keys=False)


def page_shape(page):
    """A page minus the cursor token (tokens embed format-specific segment names)."""
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


class TestMigration:
    def test_jsonl_to_columnar_bit_identical(self, tmp_path, payload_a, payload_b):
        store = ResultStore(tmp_path, format="jsonl")
        keys = [store.put_payload(p) for p in (payload_a, payload_b)]
        before = {key: canon(store.get_payload(key)) for key in keys}

        stats = store.migrate()
        assert stats == {"kept": 2, "dropped": 0, "format": "columnar"}
        assert store.format == "columnar"
        segments = sorted(p.name for p in (tmp_path / "segments").glob("segment-*"))
        assert segments and all(name.endswith(".col") for name in segments)
        # Same keys, byte-identical payloads (including dict field order).
        assert sorted(store.keys()) == sorted(keys)
        assert {key: canon(store.get_payload(key)) for key in keys} == before

    def test_reopen_auto_detects_columnar(self, tmp_path, payload_a):
        store = ResultStore(tmp_path, format="jsonl")
        key = store.put_payload(payload_a)
        store.migrate()
        del store
        reopened = ResultStore(tmp_path)  # no explicit format
        assert reopened.format == "columnar"
        assert canon(reopened.get_payload(key)) == canon(payload_a)

    def test_migrate_back_to_jsonl(self, tmp_path, payload_a):
        store = ResultStore(tmp_path, format="columnar")
        key = store.put_payload(payload_a)
        stats = store.migrate(format="jsonl")
        assert stats["format"] == "jsonl"
        segments = sorted(p.name for p in (tmp_path / "segments").glob("segment-*"))
        assert segments and all(name.endswith(".jsonl") for name in segments)
        assert canon(store.get_payload(key)) == canon(payload_a)

    def test_unknown_format_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="unknown store format"):
            store.migrate(format="parquet")

    def test_engine_kinds_match_storage(self, dual, payload_a):
        from repro.service.store import result_key

        jsonl, col = dual
        key = result_key(payload_a)
        assert isinstance(jsonl._engine_for(key), ReferenceEngine)
        assert isinstance(col._engine_for(key), ColumnarEngine)


NUMERIC_METRICS = (
    "throughput_gops",
    "total_latency_ms",
    "power_efficiency",
    "multiplier_efficiency",
    "resources.dsp_slices",
    "latency.pipeline_depth",
    "multiplication_saving_factor",
)


class TestJsonlEquivalence:
    """Seeded property tests: columnar answers == JSONL reference answers."""

    def test_random_queries_identical(self, dual, payload_a):
        jsonl, col = dual
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
            assert canon(page_shape(jsonl.query_page(spec))) == canon(
                page_shape(col.query_page(spec))
            ), fields
            # Full drain through cursors must agree page-for-page too.
            assert canon(drain(jsonl, spec)) == canon(drain(col, spec)), fields

    def test_pareto_identical(self, dual):
        jsonl, col = dual
        objective_sets = (
            None,  # result's own campaign objectives
            [["throughput_gops", True], ["power_watts", False]],
            [["total_latency_ms", False], ["resources.dsp_slices", False], ["throughput_gops", True]],
        )
        for objectives in objective_sets:
            for network in (None, "vgg16-d"):
                for limit in (None, 1, 3, 1000):
                    spec = QuerySpec(network=network, objectives=objectives, limit=limit)
                    left, right = jsonl.pareto(spec), col.pareto(spec)
                    assert canon(left.objectives) == canon(right.objectives)
                    assert canon(left.fronts) == canon(right.fronts)
                    assert left.total == right.total
                    assert (left.next_cursor is None) == (right.next_cursor is None)

    def test_best_identical(self, dual):
        jsonl, col = dual
        for metric in NUMERIC_METRICS:
            for maximize in (None, True, False):
                spec = QuerySpec(metric=metric, maximize=maximize)
                left, right = jsonl.best(spec), col.best(spec)
                assert (left.key, left.metric, left.value) == (
                    right.key,
                    right.metric,
                    right.value,
                )
                assert canon(left.row) == canon(right.row)

    def test_error_parity(self, dual):
        jsonl, col = dual
        for spec in (
            QuerySpec(network="not-a-network"),
            QuerySpec(key="0" * 16),
        ):
            errors = []
            for store in dual:
                with pytest.raises(KeyError) as excinfo:
                    store.query_page(spec)
                errors.append(str(excinfo.value))
            assert errors[0] == errors[1]


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
        store = ResultStore(tmp_path, format="columnar", segment_max_records=1)
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
        store = ResultStore(tmp_path, format="columnar", segment_max_records=1)
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
        # and answer queries exactly like the JSONL reference.
        payload = copy.deepcopy(payload_a)
        payload["points"][0]["custom_annotation"] = {"note": "hand-edited"}

        col = ResultStore(tmp_path / "col", format="columnar")
        jsonl = ResultStore(tmp_path / "jsonl", format="jsonl")
        key = col.put_payload(payload)
        assert jsonl.put_payload(payload) == key
        assert canon(col.get_payload(key)) == canon(payload)

        # Opaque storage falls back to the reference engine transparently.
        assert isinstance(col._engine_for(key), ReferenceEngine)
        spec = QuerySpec(key=key, metric="throughput_gops", top_k=3)
        assert canon(page_shape(col.query_page(spec))) == canon(
            page_shape(jsonl.query_page(spec))
        )

    def test_torn_block_tail_skipped_and_healed(self, tmp_path, payload_a, payload_b):
        store = ResultStore(tmp_path, format="columnar")
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

    def test_bulk_ingest_deferred_flush_heals(self, tmp_path, payload_a, payload_b):
        store = ResultStore(tmp_path)
        store.put_payload(payload_a, flush_index=False)
        store.put_payload(payload_b, flush_index=False)
        # Crash before flush_index(): the on-disk index is stale; a fresh
        # open must detect the mismatch and recover both records.
        del store
        reopened = ResultStore(tmp_path)
        assert len(reopened) == 2
