"""Answer checks, run after the timed window so they never compete with it.

* Evaluate answers must equal an in-process
  :func:`repro.dse.batch.evaluate_requests` of the same request, compared
  as pickled design points after a JSON round trip.
* A seeded sample of completed jobs must equal ``run_experiment`` of the
  same spec, point for point.
* Query and Pareto pages must equal ``ResultStore.query_page`` and
  ``ResultStore.pareto`` on the store reopened after the server stopped.

A mismatch marks the sample wrong, which counts it as failed.
"""

from __future__ import annotations

import json
import pickle
import random
from pathlib import Path
from typing import Any, Callable, Dict, List

from repro.core.design_space import GridEntry
from repro.dse.batch import EvalRequest, evaluate_requests
from repro.dse.engine import ExecutorConfig
from repro.experiments.persistence import point_from_dict, point_to_dict
from repro.experiments.runner import run_experiment
from repro.experiments.spec import ExperimentSpec
from repro.reporting import json_sanitize
from repro.service.queryspec import QuerySpec
from repro.service.store import ResultStore

from harness import Sample

#: Completed jobs re-run in process per run.
JOB_SAMPLE = 3


def _canonical(body: Dict[str, Any]) -> str:
    return json.dumps(body, sort_keys=True)


def _wire(value: Any) -> Any:
    """``value`` as it reads after the server's JSON encoding."""
    return json.loads(json.dumps(json_sanitize(value)))


def _point_bytes(data: Dict[str, Any]) -> bytes:
    return pickle.dumps(point_from_dict(data))


def _eval_request(body: Dict[str, Any]) -> EvalRequest:
    return EvalRequest(
        network=body["network"],
        device=body["device"],
        entry=GridEntry(
            m=body["m"],
            r=3,
            multiplier_budget=body["multiplier_budget"],
            frequency_mhz=body["frequency_mhz"],
            shared_data_transform=True,
            bit_width=body.get("bit_width"),
            error_budget=None,
        ),
    )


def _mark(samples: List[Sample], expected: Dict[str, Any],
          matches: Callable[[Any, Any], bool]) -> None:
    for sample in samples:
        if sample.ok and not matches(sample.response, expected[_canonical(sample.request)]):
            sample.ok = False
            sample.wrong = True


def check_evaluates(samples: List[Sample]) -> None:
    """Compare every evaluate answer with an in-process batch evaluation."""
    unique = {_canonical(s.request): s.request for s in samples}
    outcomes = evaluate_requests([_eval_request(body) for body in unique.values()])
    expected = {}
    for key, outcome in zip(unique, outcomes):
        if outcome.point is None:
            expected[key] = {"feasible": False, "error": outcome.error}
        else:
            point = _wire(point_to_dict(outcome.point))
            expected[key] = {"feasible": True, "point": _point_bytes(point)}

    def matches(response: Any, want: Dict[str, Any]) -> bool:
        if response.get("feasible") != want["feasible"]:
            return False
        if not want["feasible"]:
            return response.get("error") == want["error"]
        return _point_bytes(response["point"]) == want["point"]

    _mark(samples, expected, matches)


def check_reads(samples: List[Sample], store: ResultStore) -> None:
    """Compare query and Pareto pages with the reopened store's answers."""
    for kind in ("query", "pareto"):
        chosen = [s for s in samples if s.kind == kind]
        expected = {}
        for key, body in {_canonical(s.request): s.request for s in chosen}.items():
            spec = QuerySpec.from_dict(body)
            if kind == "query":
                page = store.query_page(spec)
                expected[key] = _wire({"key": page.key, "points": page.rows,
                                       "total": page.total, "next_cursor": page.next_cursor})
            else:
                page = store.pareto(spec)
                expected[key] = _wire({"key": page.key, "fronts": page.fronts,
                                       "objectives": page.objectives, "total": page.total,
                                       "next_cursor": page.next_cursor})
        _mark(chosen, expected,
              lambda response, want: all(response.get(k) == v for k, v in want.items()))


def check_jobs(samples: List[Sample], store: ResultStore, seed: int) -> int:
    """Re-run a seeded sample of completed jobs; returns how many were checked."""
    completed = [s for s in samples if s.ok]
    rng = random.Random(f"check:{seed}")
    chosen = rng.sample(completed, min(JOB_SAMPLE, len(completed)))
    executor = ExecutorConfig(mode="vectorized")
    for sample in chosen:
        spec = ExperimentSpec.from_dict(sample.request["spec"])
        reference = run_experiment(spec, executor=executor)
        want = [_point_bytes(_wire(point_to_dict(p))) for p in reference.points]
        stored = store.get_payload(sample.response["key"])["points"]
        if [_point_bytes(_wire(p)) for p in stored] != want:
            sample.ok = False
            sample.wrong = True
    return len(chosen)


def check_all(samples: List[Sample], store_root: Path, seed: int) -> int:
    """Run every check; returns the number of jobs re-run."""
    check_evaluates([s for s in samples if s.kind == "evaluate" and s.ok])
    store = ResultStore(store_root)
    check_reads([s for s in samples if s.kind in ("query", "pareto") and s.ok], store)
    return check_jobs([s for s in samples if s.kind == "job"], store, seed)
