"""Heterogeneous batch evaluation + the asyncio micro-batcher.

The load-bearing property everywhere: a request's outcome never depends
on which other requests share its batch — batched evaluation is
bit-identical (pickled bytes) to evaluating each request alone through
the scalar path.
"""

from __future__ import annotations

import asyncio
import pickle
import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.design_space import GridEntry, SweepSpec
from repro.dse import (
    BatchOutcome,
    EvalRequest,
    ExecutorConfig,
    evaluate_requests,
    iter_explore,
)
from repro.service import MicroBatcher
from repro.service import batching

SPEC = SweepSpec(
    m_values=(2, 3, 4),
    multiplier_budgets=(64, 256, 512, None),
    frequencies_mhz=(150.0, 200.0),
)
ENTRIES = list(SPEC.configurations())


def interleaved_requests() -> list:
    """Every (network, device) cell interleaved entry-by-entry."""
    return [
        EvalRequest(network, device, entry)
        for entry in ENTRIES
        for network in ("vgg16-d", "alexnet")
        for device in ("xc7vx485t", "xc7vx690t")
    ]


def serial_reference(requests) -> list:
    """Each request evaluated alone through the scalar engine."""
    return [
        evaluate_requests([request], cache=False, vectorized=False)[0]
        for request in requests
    ]


def assert_outcomes_identical(got, expected) -> None:
    assert [outcome.error for outcome in got] == [outcome.error for outcome in expected]
    assert [
        pickle.dumps(outcome.point) for outcome in got
    ] == [pickle.dumps(outcome.point) for outcome in expected]


class TestEvaluateRequests:
    def test_bit_identical_to_serial(self):
        requests = interleaved_requests()
        assert_outcomes_identical(
            evaluate_requests(requests, cache=False), serial_reference(requests)
        )

    def test_matches_iter_explore_per_cell(self):
        requests = [EvalRequest("vgg16-d", "xc7vx485t", entry) for entry in ENTRIES]
        outcomes = evaluate_requests(requests, cache=False)
        explored = list(
            iter_explore(
                "vgg16-d",
                SPEC,
                devices="xc7vx485t",
                executor=ExecutorConfig(mode="serial"),
                cache=False,
            )
        )
        feasible = [outcome.point for outcome in outcomes if outcome.feasible]
        assert [pickle.dumps(point) for point in feasible] == [
            pickle.dumps(point) for point in explored
        ]

    def test_batch_composition_is_invisible(self):
        """A request's outcome is the same in any shuffled superset batch."""
        requests = interleaved_requests()
        alone = evaluate_requests([requests[7]], cache=False)[0]
        shuffled = list(requests)
        random.Random(2019).shuffle(shuffled)
        batched = evaluate_requests(shuffled, cache=False)
        index = shuffled.index(requests[7])
        assert pickle.dumps(batched[index].point) == pickle.dumps(alone.point)

    def test_infeasible_outcomes_carry_scalar_messages(self):
        # budget too small for one PE: same message the scalar path raises.
        tiny_budget = EvalRequest(
            "vgg16-d", "xc7vx485t", GridEntry(4, 3, 16, 200.0, True)
        )
        outcome = evaluate_requests([tiny_budget])[0]
        assert not outcome.feasible
        assert "cannot host one F(4,3) PE" in outcome.error
        with pytest.raises(ValueError, match="cannot host one"):
            next(
                iter_explore(
                    "vgg16-d",
                    SweepSpec(
                        m_values=(4,), multiplier_budgets=(16,), frequencies_mhz=(200.0,)
                    ),
                    devices="xc7vx485t",
                    skip_infeasible=False,
                    executor=ExecutorConfig(mode="serial"),
                )
            )

    def test_serial_and_vectorized_report_same_errors(self):
        requests = interleaved_requests() + [
            EvalRequest("vgg16-d", "xc7vx485t", GridEntry(2, 3, 4, 200.0, True)),
        ]
        assert_outcomes_identical(
            evaluate_requests(requests, cache=False, vectorized=True),
            evaluate_requests(requests, cache=False, vectorized=False),
        )

    def test_outcome_shape(self):
        outcome = evaluate_requests(
            [EvalRequest("alexnet", "xc7vx485t", ENTRIES[0])], cache=False
        )[0]
        assert isinstance(outcome, BatchOutcome)
        assert outcome.feasible
        assert outcome.error is None

    def test_empty_batch(self):
        assert evaluate_requests([]) == []


class TestMicroBatcher:
    def drive(self, requests, **kwargs):
        """Submit all requests concurrently; return (outcomes, batcher)."""

        async def main():
            batcher = MicroBatcher(**kwargs)
            outcomes = await asyncio.gather(
                *(batcher.submit(request) for request in requests)
            )
            await batcher.close()
            return outcomes, batcher

        return asyncio.run(main())

    def test_coalesced_outcomes_bit_identical(self):
        requests = interleaved_requests()
        outcomes, batcher = self.drive(requests, cache=False)
        assert_outcomes_identical(outcomes, serial_reference(requests))
        # Concurrent submissions actually coalesced.
        assert batcher.stats.requests == len(requests)
        assert batcher.stats.batches < len(requests)
        assert batcher.stats.largest_batch > 1

    def test_max_batch_dispatches_early(self):
        requests = interleaved_requests()[:8]
        outcomes, batcher = self.drive(requests, max_batch=4, cache=False)
        # All 8 arrive in one tick; max_batch=4 cuts a batch loose at each
        # 4th request, even while the first batch is still in flight.
        assert batcher.stats.batches == 2
        assert batcher.stats.largest_batch == 4
        assert all(outcome.feasible for outcome in outcomes)

    def test_single_request(self):
        outcomes, batcher = self.drive(
            [EvalRequest("vgg16-d", "xc7vx485t", ENTRIES[1])]
        )
        assert outcomes[0].feasible
        assert batcher.stats.batches == 1

    def test_closed_batcher_refuses(self):
        async def main():
            batcher = MicroBatcher()
            await batcher.close()
            with pytest.raises(RuntimeError, match="closed"):
                await batcher.submit(EvalRequest("vgg16-d", "xc7vx485t", ENTRIES[0]))

        asyncio.run(main())

    def test_stats_dict(self):
        _, batcher = self.drive(interleaved_requests()[:4])
        stats = batcher.stats.to_dict()
        assert stats["requests"] == 4
        assert stats["errors"] == 0
        assert stats["mean_batch_size"] >= 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(max_batch=0)
        with pytest.raises(ValueError, match="max_pending"):
            MicroBatcher(max_pending=0)


class TestSelfClockingSchedule:
    """Dispatch timing, pinned by blocking the engine on an event."""

    TIMEOUT_S = 10.0

    @pytest.fixture
    def gated(self, monkeypatch):
        """A gate every dispatch waits on, plus the sizes of the batches."""
        gate = threading.Event()
        dispatched = []
        real = batching.evaluate_requests

        def evaluate(requests, **kwargs):
            dispatched.append(len(requests))
            assert gate.wait(self.TIMEOUT_S)
            return real(requests, **kwargs)

        monkeypatch.setattr(batching, "evaluate_requests", evaluate)
        yield gate, dispatched
        gate.set()  # never leave a worker thread parked

    def run(self, gate, scenario):
        """Run ``scenario(batcher)`` on a fresh loop with its own worker."""

        async def main():
            with ThreadPoolExecutor(max_workers=1) as executor:
                batcher = MicroBatcher(cache=False, executor=executor)
                try:
                    return await asyncio.wait_for(
                        scenario(batcher), self.TIMEOUT_S
                    )
                finally:
                    gate.set()
                    await batcher.close()

        return asyncio.run(main())

    @staticmethod
    async def turn() -> None:
        """Let every callback already queued on the loop run once."""
        await asyncio.sleep(0)

    @staticmethod
    def request(index: int) -> EvalRequest:
        return EvalRequest("alexnet", "xc7vx485t", ENTRIES[index])

    def test_lone_submit_is_in_flight_after_one_tick(self, gated):
        gate, dispatched = gated

        async def scenario(batcher):
            task = asyncio.ensure_future(batcher.submit(self.request(0)))
            await self.turn()  # submit() queues the request
            await self.turn()  # the next tick dispatches it: no window
            assert batcher.inflight == 1
            assert batcher.occupancy == 0
            gate.set()
            return await task

        assert self.run(gate, scenario).feasible
        assert dispatched == [1]

    def test_requests_queued_in_flight_leave_as_one_batch(self, gated):
        gate, dispatched = gated
        queued = 5

        async def scenario(batcher):
            first = asyncio.ensure_future(batcher.submit(self.request(0)))
            await self.turn()
            await self.turn()
            assert batcher.inflight == 1
            rest = [
                asyncio.ensure_future(batcher.submit(self.request(index)))
                for index in range(1, queued + 1)
            ]
            for _ in range(3):
                await self.turn()
            # The engine is busy, so nothing else has left yet.
            assert batcher.occupancy == queued
            assert batcher.stats.batches == 1
            gate.set()
            return await asyncio.gather(first, *rest), batcher.stats

        outcomes, stats = self.run(gate, scenario)
        assert all(outcome.feasible for outcome in outcomes)
        assert dispatched == [1, queued]
        assert stats.batches == 2
        assert stats.largest_batch == queued

    def test_failed_batch_still_dispatches_the_queue(self, gated, monkeypatch):
        gate, dispatched = gated
        gated_evaluate = batching.evaluate_requests

        def fail_first(requests, **kwargs):
            outcomes = gated_evaluate(requests, **kwargs)
            if len(dispatched) == 1:
                raise RuntimeError("engine fault")
            return outcomes

        monkeypatch.setattr(batching, "evaluate_requests", fail_first)

        async def scenario(batcher):
            first = asyncio.ensure_future(batcher.submit(self.request(0)))
            await self.turn()
            await self.turn()
            rest = [
                asyncio.ensure_future(batcher.submit(self.request(index)))
                for index in (1, 2, 3)
            ]
            await self.turn()
            gate.set()
            with pytest.raises(RuntimeError, match="engine fault"):
                await first
            return await asyncio.gather(*rest), batcher.stats

        outcomes, stats = self.run(gate, scenario)
        assert all(outcome.feasible for outcome in outcomes)
        assert dispatched == [1, 3]
        assert stats.errors == 1
