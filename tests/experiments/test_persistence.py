"""Result persistence: save/load round-trips and schema versioning."""

import json

import pytest

from repro.core.design_space import SweepSpec
from repro.dse import CampaignResult, EvaluationCache
from repro.experiments import (
    ExperimentSpec,
    point_from_dict,
    point_to_dict,
    result_from_dict,
    run_experiment,
)
from repro.experiments.persistence import RESULT_SCHEMA

SPEC = ExperimentSpec(
    name="persist-unit",
    networks=("vgg16-d", "alexnet"),
    devices=("xc7vx485t",),
    sweeps=(SweepSpec(m_values=(2, 3, 4), multiplier_budgets=(256, 512)),),
)


@pytest.fixture(scope="module")
def result() -> CampaignResult:
    return run_experiment(SPEC, cache=EvaluationCache())


class TestPointRoundTrip:
    def test_point_round_trip_equality(self, result):
        for point in result.points:
            data = json.loads(json.dumps(point_to_dict(point)))
            restored = point_from_dict(data)
            assert restored == point  # engine is provenance-only, excluded from eq
            assert restored.engine is None
            assert restored.summary_row() == point.summary_row()

    def test_missing_field_raises(self, result):
        data = point_to_dict(result.points[0])
        del data["throughput_gops"]
        with pytest.raises(ValueError, match="missing field"):
            point_from_dict(data)


class TestResultRoundTrip:
    def test_save_load_round_trip(self, result, tmp_path):
        path = result.save(tmp_path / "result.json")
        loaded = CampaignResult.load(path)
        assert loaded.points == result.points
        assert loaded.spec == SPEC
        assert loaded.evaluations == result.evaluations
        assert loaded.elapsed_seconds == result.elapsed_seconds
        assert loaded.cache_stats == result.cache_stats

    def test_loaded_analysis_matches_in_process(self, result, tmp_path):
        loaded = CampaignResult.load(result.save(tmp_path / "result.json"))
        original_fronts = result.pareto_fronts()
        loaded_fronts = loaded.pareto_fronts()
        assert set(original_fronts) == set(loaded_fronts)
        for network in original_fronts:
            assert loaded_fronts[network] == original_fronts[network]
        assert loaded.best("throughput_gops") == result.best("throughput_gops")
        assert loaded.summary_rows() == result.summary_rows()
        assert loaded.comparison_rows() == result.comparison_rows()

    def test_schema_tag_and_version_guard(self, result, tmp_path):
        path = result.save(tmp_path / "result.json")
        data = json.loads(path.read_text())
        assert data["schema"] == RESULT_SCHEMA
        data["schema"] = "repro.campaign-result/999"
        with pytest.raises(ValueError, match="unsupported campaign-result schema"):
            result_from_dict(data)
        with pytest.raises(ValueError, match="unknown campaign-result fields"):
            result_from_dict({**json.loads(path.read_text()), "bogus": 1})

    def test_saved_file_reruns_bit_identically(self, result, tmp_path):
        loaded = CampaignResult.load(result.save(tmp_path / "result.json"))
        rerun = run_experiment(loaded.spec, cache=EvaluationCache())
        assert rerun.points == loaded.points
