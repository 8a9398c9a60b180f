"""Tests of the benchmark's own machinery.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import itertools
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import harness  # noqa: E402
import launch  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from stats import TooFewSamples, percentile, self_time  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_same_sequence(name):
    first = workloads.build(name, 7, 20.0)
    again = workloads.build(name, 7, 20.0)
    other = workloads.build(name, 8, 20.0)
    assert first.sequence_hash(300) == again.sequence_hash(300)
    assert first.sequence_hash(300) != other.sequence_hash(300)
    # Each call starts the sequence afresh.
    assert first.sequence_hash(300) == first.sequence_hash(300)


@pytest.mark.parametrize("name", ["interactive", "campaign"])
def test_closed_loop_sequences_do_not_run_out(name):
    ops = workloads.build(name, 2, 20.0).ops()
    assert sum(1 for _ in itertools.islice(ops, 5000)) == 5000


def test_job_names_never_repeat():
    ops = itertools.islice(workloads.campaign(3).ops(), 1200)
    names = [op.payload["spec"]["name"] for op in ops]
    names += [workloads.campaign(3).warmup_job["name"]]
    assert len(names) == len(set(names))


def test_fleet_schedule_has_exact_counts_per_half():
    seconds = 20.0
    ops = list(workloads.fleet_mixed(5, seconds).ops())
    assert [op.due for op in ops] == sorted(op.due for op in ops)
    for kind, rate in workloads.FLEET_RATES.items():
        if kind == "evaluate":
            continue
        dues = [op.due for op in ops if op.kind == kind]
        assert len(dues) == round(rate * seconds)
        assert sum(due < seconds / 2 for due in dues) == round(rate * seconds) // 2


def test_interactive_mix_is_stratified():
    block = sum(n for _, n in workloads.INTERACTIVE_BLOCK)
    ops = list(itertools.islice(workloads.interactive(1).ops(), 4 * block))
    counts = {kind: sum(op.kind == kind for op in ops) for kind in ("evaluate", "query", "pareto", "job")}
    assert counts == {kind: 4 * n for kind, n in workloads.INTERACTIVE_BLOCK}


def test_percentile_needs_ten_samples_beyond_the_tail():
    with pytest.raises(TooFewSamples):
        percentile(list(range(19)), 50)
    assert percentile(list(range(20)), 50) == 9.5
    with pytest.raises(TooFewSamples):
        percentile(list(range(99)), 90)
    assert percentile(list(range(100)), 90) == pytest.approx(89.1)


def test_self_time_subtracts_the_union_of_overlapping_children():
    # Children cover [1, 6] (overlapping) and [8, 10] (clipped): 7 of 10.
    assert self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]) == pytest.approx(3.0)
    assert self_time(0.0, 10.0, []) == pytest.approx(10.0)


def test_batch_wait_links_the_executor_child_by_request():
    spans = [
        (0, 1, "batching.submit", 0.0, 0.005, None, "t1", 2, {"request": 7}),
        (0, 2, "batching.submit", 0.001, 0.005, None, "t2", 2, {"request": 8}),
        (0, 3, "dse_batch.evaluate_requests", 0.003, 0.0045, None, None, 2,
         {"requests": [7, 8]}),
    ]
    assert layers.batch_wait_ms(spans) == pytest.approx([3.5, 2.5])


def test_tracer_links_parents_and_pauses_in_the_untraced_phase():
    tracer = launch.Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner())
    outer()
    (inner_span, outer_span) = tracer.spans
    assert inner_span[1] == "inner" and inner_span[4] == outer_span[0]
    tracer.advance()
    outer()
    assert len(tracer.spans) == 2
    tracer.advance()
    outer()
    assert len(tracer.spans) == 4 and tracer.spans[-1][6] == 2


class _GatedHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    gate = threading.Event()

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.gate.wait(5)
        body = b"{}"
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_open_loop_times_requests_from_when_they_were_due():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _GatedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    stall_s = 0.4
    try:
        _GatedHandler.gate.clear()
        ops = [workloads.Op("evaluate", {"m": 2}, due) for due in (0.0, 0.05, 0.1, 0.15)]
        recorder = harness.Recorder()
        loop = harness.OpenLoop(server.server_address[1], recorder, ops, 0.01, 1.0,
                                lambda elapsed: "timed")
        threading.Timer(stall_s, _GatedHandler.gate.set).start()
        begin_guess = time.perf_counter()
        loop.run()
    finally:
        server.shutdown()
        thread.join(5)
    assert not thread.is_alive()
    by_due = sorted(recorder.samples, key=lambda s: s.due)
    assert len(by_due) == 4 and all(s.ok for s in by_due)
    for sample, op in zip(by_due, ops):
        # Every request is held until the gate opens, so its latency from
        # the due time is at least the stall minus how late it was due.
        assert sample.latency >= stall_s - op.due - 0.06
    # The two senders were stuck, so the last two requests went out late.
    assert max(loop.lateness) > stall_s - 0.15 - 0.06
    assert begin_guess <= by_due[0].due


def test_every_listed_layer_metric_says_what_it_moves():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} <= set(layers.LAYER_NOTES)


def test_run_refuses_without_sources(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    (copy / "run.py").write_text((BENCH / "run.py").read_text())
    import subprocess

    done = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "interactive", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
