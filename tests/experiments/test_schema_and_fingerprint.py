"""Result-schema error reporting + spec fingerprinting.

Before the :mod:`repro.service` store ingests third-party result files,
``CampaignResult.load`` must fail descriptively — naming the found vs.
supported schema version — on both unknown and missing ``schema`` fields.
Spec fingerprints are the store's primary key, so their stability and
sensitivity are locked here too.
"""

from __future__ import annotations

import json

import pytest

from repro.core.design_space import SweepSpec
from repro.dse import CampaignResult, ExecutorConfig
from repro.experiments import ExperimentSpec, run_experiment
from repro.experiments.persistence import RESULT_SCHEMA, result_to_dict
from repro.service import ResultStore
from repro.service.store import result_key

#: An executor mapping as earlier versions wrote it: the retired process
#: pool, its sizing fields and the then-configurable auto thresholds.
LEGACY_EXECUTOR = {
    "mode": "process",
    "max_workers": 2,
    "chunk_size": 5,
    "min_grid_for_processes": 64,
    "min_grid_for_vectorized": 32,
}


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    result = run_experiment(
        ExperimentSpec(
            networks=("alexnet",),
            sweeps=(
                SweepSpec(
                    m_values=(2, 3), multiplier_budgets=(256,), frequencies_mhz=(200.0,)
                ),
            ),
        )
    )
    path = tmp_path_factory.mktemp("results") / "result.json"
    result.save(path)
    return path


class TestLoadSchemaErrors:
    def test_unknown_schema_names_found_and_supported(self, saved, tmp_path):
        data = json.loads(saved.read_text())
        data["schema"] = "repro.campaign-result/999"
        path = tmp_path / "future.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError) as excinfo:
            CampaignResult.load(path)
        message = str(excinfo.value)
        assert "repro.campaign-result/999" in message  # what was found
        assert RESULT_SCHEMA in message  # what is supported

    def test_missing_schema_names_supported(self, saved, tmp_path):
        data = json.loads(saved.read_text())
        del data["schema"]
        path = tmp_path / "unversioned.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError) as excinfo:
            CampaignResult.load(path)
        message = str(excinfo.value)
        assert "no 'schema' field" in message
        assert RESULT_SCHEMA in message

    def test_valid_schema_still_loads(self, saved):
        result = CampaignResult.load(saved)
        assert result.points
        assert result_to_dict(result)["schema"] == RESULT_SCHEMA


class TestSpecFingerprint:
    SPEC = ExperimentSpec(networks=("vgg16-d",), name="fp")

    def test_stable_across_round_trip(self):
        clone = ExperimentSpec.from_dict(self.SPEC.to_dict())
        assert clone.fingerprint() == self.SPEC.fingerprint()

    def test_stable_across_equivalent_construction(self):
        # Concrete objects and registry names fingerprint identically.
        from repro.nn import vgg16_d

        by_object = ExperimentSpec(networks=(vgg16_d(),), name="fp")
        assert by_object.fingerprint() == self.SPEC.fingerprint()

    def test_sensitive_to_semantic_changes(self):
        fingerprints = {
            self.SPEC.fingerprint(),
            ExperimentSpec(networks=("alexnet",), name="fp").fingerprint(),
            ExperimentSpec(networks=("vgg16-d",), name="other").fingerprint(),
            ExperimentSpec(
                networks=("vgg16-d",),
                name="fp",
                sweeps=(SweepSpec(m_values=(2,)),),
            ).fingerprint(),
        }
        assert len(fingerprints) == 4

    def test_insensitive_to_execution_tuning(self):
        # Every executor mode returns bit-identical points and the cache
        # only memoises, so specs differing solely in how evaluation
        # executes describe the same search — one fingerprint.
        from repro.dse import ExecutorConfig

        vectorized = ExperimentSpec(
            networks=("vgg16-d",),
            name="fp",
            executor=ExecutorConfig(mode="vectorized"),
            cache=False,
        )
        assert vectorized.fingerprint() == self.SPEC.fingerprint()

    def test_shape(self):
        fingerprint = self.SPEC.fingerprint()
        assert isinstance(fingerprint, str)
        assert len(fingerprint) == 64
        assert set(fingerprint) <= set("0123456789abcdef")


class TestLegacyExecutorPayloads:
    """Spec files and stored results written with a retired executor
    mapping still load, under the same fingerprint and content key."""

    SPEC = ExperimentSpec(
        networks=("alexnet",),
        sweeps=(SweepSpec(m_values=(2, 3), multiplier_budgets=(256,)),),
        name="legacy",
    )

    def test_spec_file_loads_with_same_fingerprint(self, tmp_path):
        data = self.SPEC.to_dict()
        data["executor"] = dict(LEGACY_EXECUTOR)
        path = tmp_path / "legacy-spec.json"
        path.write_text(json.dumps(data))
        loaded = ExperimentSpec.load(path)
        assert loaded.executor == ExecutorConfig(mode="auto")
        assert loaded.fingerprint() == self.SPEC.fingerprint()

        data["executor"] = {"mode": "gpu"}
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="unknown executor mode 'gpu'"):
            ExperimentSpec.load(path)

    def test_stored_result_loads_with_same_key(self, saved, tmp_path):
        payload = json.loads(saved.read_text())
        legacy = json.loads(saved.read_text())
        legacy["spec"]["executor"] = dict(LEGACY_EXECUTOR)
        assert result_key(legacy) == result_key(payload)

        store = ResultStore(tmp_path / "store")
        key = store.put_payload(legacy)
        assert key == result_key(payload)
        loaded = store.get(key)
        reference = CampaignResult.load(saved)
        assert loaded.spec.executor == ExecutorConfig(mode="auto")
        assert loaded.spec.fingerprint() == reference.spec.fingerprint()
        assert store.record(key).fingerprint == reference.spec.fingerprint()
        assert loaded.points == reference.points

        bad = json.loads(saved.read_text())
        bad["spec"]["executor"] = {"mode": "gpu"}
        bad_store = ResultStore(tmp_path / "bad-store")
        with pytest.raises(ValueError, match="unknown executor mode 'gpu'"):
            bad_store.get(bad_store.put_payload(bad))
