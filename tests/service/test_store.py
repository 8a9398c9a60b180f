"""ResultStore: content addressing, querying, index self-healing, compaction."""

from __future__ import annotations

import json
import pickle
import shutil

import pytest

from repro.core.design_space import SweepSpec
from repro.experiments import ExperimentSpec, run_experiment
from repro.experiments.persistence import result_to_dict
from repro.service import ResultStore
from repro.service import columnar


def tiny_spec(name: str = "tiny", networks=("vgg16-d",), devices=("xc7vx485t",)) -> ExperimentSpec:
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
def result():
    return run_experiment(tiny_spec())


@pytest.fixture(scope="module")
def other_result():
    return run_experiment(tiny_spec(name="other", networks=("alexnet",), devices=("xc7vx690t",)))


class TestPutGet:
    def test_round_trip(self, tmp_path, result):
        store = ResultStore(tmp_path)
        key = store.put(result)
        loaded = store.get(key)
        # A store read equals a CampaignResult.save()/load() round trip
        # bit-for-bit (same persistence schema underneath).
        result.save(tmp_path / "ref.json")
        reference = type(result).load(tmp_path / "ref.json")
        assert [pickle.dumps(point) for point in loaded.points] == [
            pickle.dumps(point) for point in reference.points
        ]
        assert loaded.spec == result.spec
        assert loaded.evaluations == result.evaluations

    def test_content_addressing_dedups(self, tmp_path, result, legacy_line):
        # A result imported from a legacy segment keeps its key, so
        # re-putting it is a no-op too.
        (tmp_path / "segments").mkdir()
        (tmp_path / "segments" / "segment-000001.jsonl").write_text(
            legacy_line(result_to_dict(result), sequence=1)
        )
        store = ResultStore(tmp_path)
        key = store.keys()[0]
        assert store.put(result) == key
        assert store.put(result) == key
        assert len(store) == 1
        segments = list((tmp_path / "segments").glob("segment-*"))
        assert sum(columnar.complete_block_count(path) for path in segments) == 1

    def test_rerun_of_same_spec_dedups(self, tmp_path, result):
        # A fresh evaluation of the same spec differs only in run
        # provenance (timings, cache stats), which the content key
        # excludes — so the second put is a no-op.
        store = ResultStore(tmp_path)
        key = store.put(result)
        rerun = run_experiment(result.spec)
        assert rerun.elapsed_seconds != result.elapsed_seconds
        assert store.put(rerun) == key
        assert len(store) == 1

    def test_rerun_under_other_executor_dedups(self, tmp_path, result):
        # Executor modes are bit-identical, so the same search computed
        # by a different engine dedups too (execution tuning is excluded
        # from the content key and the fingerprint).
        import dataclasses

        from repro.dse import ExecutorConfig

        store = ResultStore(tmp_path)
        key = store.put(result)
        vectorized_spec = dataclasses.replace(
            result.spec, executor=ExecutorConfig(mode="vectorized")
        )
        rerun = run_experiment(vectorized_spec)
        assert vectorized_spec.fingerprint() == result.spec.fingerprint()
        assert store.put(rerun) == key
        assert len(store) == 1

    def test_distinct_results_distinct_keys(self, tmp_path, result, other_result):
        store = ResultStore(tmp_path)
        first = store.put(result)
        second = store.put(other_result)
        assert first != second
        assert len(store) == 2
        assert store.keys() == [first, second]

    def test_get_unknown_key_raises(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(KeyError):
            store.get("no-such-key")

    def test_envelope_schema_tag(self, tmp_path, result, legacy_line):
        # Only lines tagged with the envelope schema are imported.
        line = legacy_line(result_to_dict(result), sequence=1)
        (tmp_path / "segments").mkdir()
        (tmp_path / "segments" / "segment-000001.jsonl").write_text(
            line.replace('"repro.result-store/1"', '"repro.result-store/0"') + line
        )
        store = ResultStore(tmp_path)
        assert len(store) == 1
        segment = next((tmp_path / "segments").glob("segment-*"))
        assert segment.suffix == ".col"
        [(_, header)] = list(columnar.iter_blocks(segment))
        assert header["schema"] == columnar.COLUMNAR_SCHEMA
        assert header["meta"]["fingerprint"] == result.spec.fingerprint()


class TestQuery:
    def test_filters(self, tmp_path, result, other_result):
        store = ResultStore(tmp_path)
        first = store.put(result)
        second = store.put(other_result)
        assert [r.key for r in store.records(network="vgg16-d")] == [first]
        assert [r.key for r in store.records(device="xc7vx690t")] == [second]
        assert [r.key for r in store.records(name="other")] == [second]
        assert [r.key for r in store.records(fingerprint=result.spec.fingerprint())] == [first]
        assert store.records(network="resnet18") == []
        assert len(store.records()) == 2

    def test_latest_prefers_newest(self, tmp_path, result, other_result):
        store = ResultStore(tmp_path)
        store.put(result)
        store.put(other_result)
        assert store.get(store.records()[-1].key).spec.name == "other"
        assert store.get(store.records(network="vgg16-d")[-1].key).spec.name == "tiny"
        assert store.records(network="resnet18") == []


class TestIndexSelfHealing:
    def test_reopen_uses_index(self, tmp_path, result):
        key = ResultStore(tmp_path).put(result)
        reopened = ResultStore(tmp_path)
        assert reopened.keys() == [key]
        assert reopened.get(key).evaluations == result.evaluations

    def test_index_is_compact_json(self, tmp_path, result, other_result):
        store = ResultStore(tmp_path)
        store.put(result)
        store.put(other_result)
        text = (tmp_path / "index.json").read_text()
        assert "\n" not in text.rstrip("\n")
        assert json.loads(text)["records"].keys() == set(store.keys())

    def test_indented_index_reopens_without_rebuild(
        self, tmp_path, result, other_result, monkeypatch
    ):
        """An index written indented, as earlier releases did, is trusted."""
        store = ResultStore(tmp_path)
        keys = [store.put(result), store.put(other_result)]
        index = tmp_path / "index.json"
        index.write_text(json.dumps(json.loads(index.read_text()), indent=2) + "\n")
        indented = index.read_bytes()

        def no_rebuild(self):
            raise AssertionError("an in-sync indented index must not be rebuilt")

        monkeypatch.setattr(ResultStore, "rebuild_index", no_rebuild)
        reopened = ResultStore(tmp_path)
        assert reopened.keys() == keys
        assert reopened.get(keys[1]).points
        assert index.read_bytes() == indented

    def test_flush_index_writes_only_deferred_rows(self, tmp_path, result, other_result):
        store = ResultStore(tmp_path)
        store.put(result)
        index = tmp_path / "index.json"
        before = index.stat().st_mtime_ns, index.stat().st_ino
        store.flush_index()  # nothing deferred: the file is left alone
        assert (index.stat().st_mtime_ns, index.stat().st_ino) == before
        key = store.put_payload(result_to_dict(other_result), flush_index=False)
        assert key not in json.loads(index.read_text())["records"]
        store.flush_index()
        assert key in json.loads(index.read_text())["records"]

    def test_missing_index_rebuilds(self, tmp_path, result):
        key = ResultStore(tmp_path).put(result)
        (tmp_path / "index.json").unlink()
        reopened = ResultStore(tmp_path)
        assert reopened.keys() == [key]
        assert (tmp_path / "index.json").exists()

    def test_corrupt_index_rebuilds(self, tmp_path, result):
        key = ResultStore(tmp_path).put(result)
        (tmp_path / "index.json").write_text("{not json")
        reopened = ResultStore(tmp_path)
        assert reopened.keys() == [key]

    def test_crash_orphaned_envelope_recovered(self, tmp_path, result, other_result):
        """A put whose index write was lost (crash) must be recovered.

        The envelope hit the segment but index.json predates it; the
        count-validation on open must detect the divergence, rebuild and
        surface the orphan — and compact() must keep it.
        """
        store = ResultStore(tmp_path)
        first = store.put(result)
        index_before = (tmp_path / "index.json").read_bytes()
        second = store.put(other_result)
        # Simulate the crash: the second put's index write never landed.
        (tmp_path / "index.json").write_bytes(index_before)
        reopened = ResultStore(tmp_path)
        assert sorted(reopened.keys()) == sorted([first, second])
        assert reopened.get(second).points
        stats = reopened.compact()
        assert stats["kept"] == 2
        assert sorted(reopened.keys()) == sorted([first, second])

    def test_torn_segment_line_skipped(self, tmp_path, result, other_result, legacy_line):
        # A legacy segment a crash tore mid-append: a truncated JSON line
        # at the tail, which the import skips.
        (tmp_path / "segments").mkdir()
        (tmp_path / "segments" / "segment-000001.jsonl").write_text(
            legacy_line(result_to_dict(result), sequence=1)
            + '{"schema": "repro.result-store/1", "meta": {"key": "torn'
        )
        reopened = ResultStore(tmp_path)
        first = reopened.keys()[0]
        assert len(reopened) == 1
        assert not list((tmp_path / "segments").glob("*.jsonl"))
        assert reopened.put(other_result) != first
        assert len(reopened) == 2

    def test_append_after_torn_tail_is_not_lost(self, tmp_path, result, other_result, legacy_line):
        """A put after importing a legacy segment with a torn (newline-less)
        tail must land in a clean segment, so a later full rescan still
        finds it instead of merging it into the torn bytes."""
        (tmp_path / "segments").mkdir()
        (tmp_path / "segments" / "segment-000001.jsonl").write_text(
            legacy_line(result_to_dict(result), sequence=1) + '{"torn": tr'
        )
        reopened = ResultStore(tmp_path)
        [first] = reopened.keys()
        second = reopened.put(other_result)
        reopened.rebuild_index()
        assert sorted(reopened.keys()) == sorted([first, second])
        rebuilt = ResultStore(tmp_path)
        rebuilt.rebuild_index()
        assert sorted(rebuilt.keys()) == sorted([first, second])
        assert rebuilt.get(second).evaluations == other_result.evaluations


class TestCompaction:
    def test_compact_drops_dead_weight(self, tmp_path, result, other_result, legacy_line):
        # A legacy store with junk and a superseded copy of the first
        # envelope: the import keeps only the live records.
        first_line = legacy_line(result_to_dict(result), sequence=1)
        segments_dir = tmp_path / "segments"
        segments_dir.mkdir()
        (segments_dir / "segment-000001.jsonl").write_text(
            first_line + legacy_line(result_to_dict(other_result), sequence=2)
            + "not json at all\n"
        )
        (segments_dir / "segment-000099.jsonl").write_text(first_line)
        store = ResultStore(tmp_path, segment_max_records=1)
        first, second = store.keys()
        assert store.get(first).evaluations == result.evaluations
        assert store.get(second).evaluations == other_result.evaluations
        # Segments are renumbered from 1 and contain only live blocks.
        assert sorted(path.name for path in segments_dir.glob("segment-*")) == [
            "segment-000001.col",
            "segment-000002.col",
        ]
        # Columnar dead weight: a superseded block copy plus a torn tail.
        shutil.copy(segments_dir / "segment-000001.col", segments_dir / "segment-000099.col")
        with (segments_dir / "segment-000099.col").open("ab") as handle:
            handle.write(b"torn-block")
        store.rebuild_index()
        assert store.compact() == {"kept": 2, "dropped": 2}
        assert sorted(store.keys()) == sorted([first, second])
        assert sorted(path.name for path in segments_dir.glob("segment-*")) == [
            "segment-000001.col",
            "segment-000002.col",
        ]
        assert ResultStore(tmp_path).keys() == store.keys()

    def test_segment_rollover(self, tmp_path, result, other_result):
        store = ResultStore(tmp_path, segment_max_records=1)
        store.put(result)
        store.put(other_result)
        assert len(list((tmp_path / "segments").glob("segment-*"))) == 2
