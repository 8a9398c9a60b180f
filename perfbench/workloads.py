"""Seeded input generators for the three benchmark workloads.

Everything a run sends is drawn here from ``random.Random`` seeded by the
workload name and ``--seed``, so one seed always yields the same request
sequence (:meth:`Workload.sequence_hash` prints the digest of the part a
run sent).  The closed-loop sequences are endless, so a faster program
or a longer window never runs out of requests.  The server only ever
sees these generated inputs.

Request-class mixes and job shapes are *stratified*: the seed permutes
and fills in fixed blocks rather than drawing each request independently,
so run-to-run differences come from the program, not from one seed
happening to draw more large campaigns than another.

Read targets that only exist at run time are symbolic:
``("prefill", i)`` is the i-th stored result of the interactive store,
``("job",)`` the result of the job just completed (campaign inspection),
and ``("recent", i)`` the i-th most recently completed job (fleet reads).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.design_space import SweepSpec
from repro.experiments.spec import ExperimentSpec

NETWORKS = ("alexnet", "vgg16", "resnet18")
DEVICES = ("xc7vx485t", "xc7vx690t")
M_VALUES = (2, 3, 4, 5, 6)
BIT_WIDTHS = (None, 8, 12, 16)
#: Budgets that fit every device at every m, and budgets that never fit.
FEASIBLE_BUDGETS = (64, 128, 256, 512)
INFEASIBLE_BUDGETS = (1024, 1536, 2048)
CAMPAIGN_BUDGETS = (64, 128, 192, 256, 384, 512, 640, 768)
#: The fine frequency grid campaigns draw from: 100-300 MHz in 2.5 MHz steps.
FREQUENCIES = tuple(100.0 + 2.5 * step for step in range(81))
QUERY_METRICS = ("throughput_gops", "power_efficiency", "total_latency_ms")

#: Interactive: per block of 50 requests (58% / 32% / 8% / 2%).
INTERACTIVE_BLOCK = (("evaluate", 29), ("query", 16), ("pareto", 4), ("job", 1))
INTERACTIVE_RESULTS = 40
INFEASIBLE_SHARE = 0.05

#: Campaign job shapes: (networks, devices, budgets, frequencies, bit-width axis).
#: Entries run from 120 to 1920; two shapes in five carry a bit_widths axis.
#: Job, query and Pareto times differ between shapes by up to 25x, so the
#: count is odd: over whole cycles a p50 then falls inside one shape's
#: values instead of in the gap between two shapes, so it does not jump
#: with how many jobs of each shape a run completed.
CAMPAIGN_SHAPES = (
    (1, 1, 3, 8, False),
    (1, 2, 4, 12, False),
    (1, 1, 4, 12, True),
    (2, 1, 3, 8, True),
    (3, 2, 4, 16, False),
)
#: Top-k pages and Pareto pages read of each new campaign result.  One of
#: each left too few samples for a steady query p50.
CAMPAIGN_READS = 3

#: Fleet job shapes: 480 entries each, as one 480-entry shard (a completion
#: upload of about 200 KB) or two 240-entry shards.  Equal sizes keep the
#: cost of reading "the latest results" the same from run to run.
FLEET_SHAPES = (
    (1, 1, 4, 24, False),
    (1, 2, 4, 12, False),
)
#: Open-loop arrivals per second.  Evaluate arrivals are half pairs, so
#: 9 evaluate requests/s.  Well below the capacity of a 2-CPU host, where
#: higher read rates made the p50s too unsteady to gate (see README.md).
FLEET_RATES = {"evaluate": 6.0, "query": 6.0, "pareto": 2.0, "job": 2.0}
#: Share of fleet evaluate arrivals that come as a pair due at once.
FLEET_PAIR_SHARE = 0.5
FLEET_RECENT = 4

#: Status-poll interval per workload: 1/20 of the typical job time in
#: ``campaign`` and ``fleet_mixed``, about 1/10 of the ~20 ms
#: ``interactive`` job.
POLL_S = {"interactive": 0.002, "campaign": 0.010, "fleet_mixed": 0.025}
#: Closed loops read the server's peak RSS once this many ops are done
#: (about a third of a 25 s window), not at the window's end: the store
#: grows by every completed job, so a faster program would otherwise
#: read as using more memory.
RSS_AFTER_OPS = {"interactive": 2000, "campaign": 25}


@dataclass
class Op:
    """One user operation: its class, payload and (open loop) due time."""

    kind: str
    payload: Dict[str, Any]
    due: Optional[float] = None
    #: Campaign inspection reads that follow this job, in order.
    follow: List["Op"] = field(default_factory=list)

    def to_json(self) -> Any:
        """Canonical JSON-ready form (what the sequence hash covers)."""
        return [self.kind, self.due, self.payload, [op.to_json() for op in self.follow]]


@dataclass
class Workload:
    """Everything one workload run sends, plus how the server is started."""

    name: str
    seed: int
    loop: str
    server_workers: int
    fleet_worker: bool
    poll_s: float
    #: Ops after which the server's peak RSS is read (None: at the end).
    rss_after_ops: Optional[int]
    #: Starts the request sequence afresh: endless for the closed loops,
    #: the whole schedule for the open loop.
    ops: Callable[[], Iterator[Op]]
    #: Spec payloads stored before the server starts (interactive only).
    prefill: List[Dict[str, Any]]
    #: Untimed set-up traffic covering every cell the workload touches.
    warmup_job: Dict[str, Any]
    warmup_evaluates: List[Dict[str, Any]]

    def sequence_hash(self, sent: int) -> str:
        """SHA-256 over the canonical JSON of the set-up inputs and the first ``sent`` ops."""
        blob = json.dumps(
            [
                self.name,
                self.seed,
                self.prefill,
                self.warmup_job,
                self.warmup_evaluates,
                [op.to_json() for op in itertools.islice(self.ops(), sent)],
            ],
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(blob.encode()).hexdigest()


def _spec(
    name: str,
    networks: Sequence[str],
    devices: Sequence[str],
    budgets: Sequence[int],
    frequencies: Sequence[float],
    bit_widths: Sequence[Optional[int]] = (None,),
) -> Dict[str, Any]:
    """A grid ExperimentSpec payload over m 2-6 (r = 3)."""
    return ExperimentSpec(
        networks=tuple(networks),
        devices=tuple(devices),
        sweeps=(
            SweepSpec(
                m_values=M_VALUES,
                multiplier_budgets=tuple(budgets),
                frequencies_mhz=tuple(frequencies),
                bit_widths=tuple(bit_widths),
            ),
        ),
        name=name,
    ).to_dict()


def bit_widths_of(sweep: Dict[str, Any]) -> List[Optional[int]]:
    """A sweep payload's bit widths (``to_dict`` omits the float-only default)."""
    return sweep.get("bit_widths") or [None]


def _shaped_spec(rng: random.Random, name: str, shape: Tuple) -> Dict[str, Any]:
    """A spec of the given (networks, devices, budgets, freqs, bits) shape."""
    n_networks, n_devices, n_budgets, n_freqs, with_bits = shape
    bits: Tuple[Optional[int], ...] = (None,)
    if with_bits:
        bits = (None, *sorted(rng.sample((8, 12, 16), 2)))
    return _spec(
        name,
        rng.sample(NETWORKS, n_networks),
        sorted(rng.sample(DEVICES, n_devices)),
        sorted(rng.sample(CAMPAIGN_BUDGETS, n_budgets)),
        sorted(rng.sample(FREQUENCIES, n_freqs)),
        bits,
    )


def _evaluate_body(rng: random.Random) -> Dict[str, Any]:
    """One /v1/evaluate body; about 5% do not fit their device."""
    budgets = INFEASIBLE_BUDGETS if rng.random() < INFEASIBLE_SHARE else FEASIBLE_BUDGETS
    body: Dict[str, Any] = {
        "network": rng.choice(NETWORKS),
        "device": rng.choice(DEVICES),
        "m": rng.choice(M_VALUES),
        "multiplier_budget": rng.choice(budgets),
        "frequency_mhz": rng.choice(FREQUENCIES),
    }
    bit_width = rng.choice(BIT_WIDTHS)
    if bit_width is not None:
        body["bit_width"] = bit_width
    return body


def _query_body(rng: random.Random, target: Tuple) -> Dict[str, Any]:
    """One top-k page request; ``target`` is resolved to a key at send time."""
    metric = rng.choice(QUERY_METRICS)
    body: Dict[str, Any] = {
        "target": list(target),
        "metric": metric,
        "top_k": rng.choice((10, 20, 50)),
        "limit": rng.choice((10, 20)),
    }
    if rng.random() < 0.3:
        body["where"] = [["m", "<=", rng.choice((3, 4, 5))]]
    if rng.random() < 0.3:
        body["select"] = ["name", "m", metric]
    return body


def _pareto_body(rng: random.Random, target: Tuple) -> Dict[str, Any]:
    return {"target": list(target), "limit": rng.choice((20, 50))}


def _warmup(workload: str, seed: int) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """A warm-up job and evaluates over every (network, device, m, bits) cell."""
    job = _spec(f"{workload}-{seed}-warmup", NETWORKS, DEVICES, (256,), (200.0,), BIT_WIDTHS)
    evaluates = []
    for network in NETWORKS:
        for device in DEVICES:
            for m in M_VALUES:
                for bit_width in BIT_WIDTHS:
                    body = {"network": network, "device": device, "m": m,
                            "multiplier_budget": 256, "frequency_mhz": 200.0}
                    if bit_width is not None:
                        body["bit_width"] = bit_width
                    evaluates.append(body)
    return job, evaluates


def _zipf_index(rng: random.Random, count: int) -> int:
    """A result index with popularity proportional to 1 / (rank + 1)."""
    weights = [1.0 / (rank + 1) for rank in range(count)]
    return rng.choices(range(count), weights=weights)[0]


def interactive(seed: int) -> Workload:
    """A designer's session: single requests over 40 stored results.

    Result ``i`` has a fixed shape (40 to 480 grid entries) and popularity
    rank ``i``; the seed picks its network, devices, budgets and
    frequencies.  Forty results exceed the store's 16-entry engine cache
    and the server's 8-entry result cache, so misses show.
    """
    rng = random.Random(f"interactive:{seed}:store")
    prefill = []
    for index in range(INTERACTIVE_RESULTS):
        n_devices = 1 + (index // 2) % 2
        n_budgets = 2 + index % 3
        n_freqs = (4, 8, 12)[(index // 6) % 3]
        bits = (None, 8) if index % 5 == 4 else (None,)
        prefill.append(
            _spec(
                f"interactive-{seed}-stored-{index:02d}",
                (rng.choice(NETWORKS),),
                sorted(rng.sample(DEVICES, n_devices)),
                sorted(rng.sample(FEASIBLE_BUDGETS, n_budgets)),
                sorted(rng.sample(FREQUENCIES, n_freqs)),
                bits,
            )
        )

    def ops() -> Iterator[Op]:
        rng = random.Random(f"interactive:{seed}:ops")
        jobs = itertools.count()
        while True:
            block = [kind for kind, count in INTERACTIVE_BLOCK for _ in range(count)]
            rng.shuffle(block)
            for kind in block:
                if kind == "evaluate":
                    yield Op("evaluate", _evaluate_body(rng))
                elif kind == "query":
                    target = ("prefill", _zipf_index(rng, INTERACTIVE_RESULTS))
                    yield Op("query", _query_body(rng, target))
                elif kind == "pareto":
                    target = ("prefill", _zipf_index(rng, INTERACTIVE_RESULTS))
                    yield Op("pareto", _pareto_body(rng, target))
                else:
                    spec = _spec(
                        f"interactive-{seed}-job-{next(jobs):04d}",
                        (rng.choice(NETWORKS),),
                        (rng.choice(DEVICES),),
                        sorted(rng.sample(FEASIBLE_BUDGETS, 2)),
                        sorted(rng.sample(FREQUENCIES, 2)),
                    )
                    yield Op("job", {"spec": spec})

    warmup_job, warmup_evaluates = _warmup("interactive", seed)
    return Workload(
        "interactive", seed, "closed", 1, False, POLL_S["interactive"],
        RSS_AFTER_OPS["interactive"], ops,
        prefill, warmup_job, warmup_evaluates,
    )


def campaign(seed: int) -> Workload:
    """Distinct Fig. 6-scale grid campaigns, each followed by an inspection.

    Every cycle runs the five :data:`CAMPAIGN_SHAPES` in a seeded order.
    After each job the designer reads :data:`CAMPAIGN_READS` top-k pages
    and as many Pareto pages of the new result, interleaved, and evaluates
    one point of its grid.
    """

    def ops() -> Iterator[Op]:
        rng = random.Random(f"campaign:{seed}")
        jobs = itertools.count()
        while True:
            shapes = list(CAMPAIGN_SHAPES)
            rng.shuffle(shapes)
            for shape in shapes:
                spec = _shaped_spec(rng, f"campaign-{seed}-{next(jobs):04d}", shape)
                sweep = spec["sweeps"][0]
                evaluate = {
                    "network": rng.choice(spec["networks"]),
                    "device": rng.choice(spec["devices"]),
                    "m": rng.choice(M_VALUES),
                    "multiplier_budget": rng.choice(sweep["multiplier_budgets"]),
                    "frequency_mhz": rng.choice(sweep["frequencies_mhz"]),
                }
                bit_width = rng.choice(bit_widths_of(sweep))
                if bit_width is not None:
                    evaluate["bit_width"] = bit_width
                job = Op("job", {"spec": spec})
                for _ in range(CAMPAIGN_READS):
                    job.follow.append(Op("query", _query_body(rng, ("job",))))
                    job.follow.append(Op("pareto", _pareto_body(rng, ("job",))))
                job.follow.append(Op("evaluate", evaluate))
                yield job

    warmup_job, warmup_evaluates = _warmup("campaign", seed)
    return Workload(
        "campaign", seed, "closed", 1, False, POLL_S["campaign"], RSS_AFTER_OPS["campaign"],
        ops,
        [], warmup_job, warmup_evaluates,
    )


def fleet_mixed(seed: int, seconds: float) -> Workload:
    """One open-loop schedule at :data:`FLEET_RATES` for ``seconds``.

    Each class gets exactly ``rate * seconds`` arrivals, one at a seeded
    random instant inside each ``1 / rate`` slot, so every half of the
    window holds the same count.  Job shapes cycle through
    :data:`FLEET_SHAPES`; reads address the few most recently completed
    job results.
    """
    rng = random.Random(f"fleet_mixed:{seed}")
    ops: List[Op] = []
    for kind, rate in FLEET_RATES.items():
        count = round(rate * seconds)
        for slot in range(count):
            due = (slot + rng.random()) * seconds / count
            if kind == "evaluate":
                pair = 2 if rng.random() < FLEET_PAIR_SHARE else 1
                ops.extend(Op("evaluate", _evaluate_body(rng), due) for _ in range(pair))
            elif kind == "job":
                ops.append(Op("job", {}, due))
            else:
                target = ("recent", rng.randrange(FLEET_RECENT))
                body = _query_body(rng, target) if kind == "query" else _pareto_body(rng, target)
                ops.append(Op(kind, body, due))
    ops.sort(key=lambda op: (op.due, op.kind))
    shapes: List[Tuple] = []
    jobs = 0
    for op in ops:
        if op.kind != "job":
            continue
        if not shapes:
            shapes = list(FLEET_SHAPES)
            rng.shuffle(shapes)
        op.payload = {"spec": _shaped_spec(rng, f"fleet-{seed}-{jobs:04d}", shapes.pop())}
        jobs += 1
    warmup_job, warmup_evaluates = _warmup("fleet_mixed", seed)
    return Workload(
        "fleet_mixed", seed, "open", 0, True, POLL_S["fleet_mixed"], None, lambda: iter(ops),
        [], warmup_job, warmup_evaluates,
    )


def build(name: str, seed: int, seconds: float) -> Workload:
    """The named workload's inputs for ``seed`` (and window, open loop)."""
    if name == "interactive":
        return interactive(seed)
    if name == "campaign":
        return campaign(seed)
    if name == "fleet_mixed":
        return fleet_mixed(seed, seconds)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("interactive", "campaign", "fleet_mixed")
