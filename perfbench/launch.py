"""Start ``repro serve`` or ``repro worker``, optionally with layer spans.

Usage::

    python perfbench/launch.py serve --store DIR --port N -q
    python perfbench/launch.py worker --server http://127.0.0.1:N -q

The arguments go unchanged to :func:`repro.experiments.cli.main`.  When
the environment names a span file (``PERFBENCH_SPANS``), the public
functions in :data:`PATCHES` are wrapped first, each under the name its
caller looks it up by, and every call is recorded as a span: name, start,
end, parent span, the request's trace id where one is bound, and a few
size fields.  Spans stay in memory and are written when the command
returns: ``serve`` returns cleanly on SIGINT, ``worker`` on SIGTERM.

Each SIGUSR1 advances the phase counter stamped on new spans.  Phase 0 is
set-up and phase 2 the traced half of the timed window; recording pauses
in phase 1, the untraced half, which gives the tracing overhead.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import signal
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.tracing import TRACE_HEADER, current_trace_id

SPANS_ENV = "PERFBENCH_SPANS"
UNTRACED_PHASE = 1


class Tracer:
    """In-memory span recorder shared by every wrapper in one process."""

    def __init__(self) -> None:
        self.spans: List[Tuple] = []
        self.phase = 0
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._calibrated: set = set()

    def advance(self, *_signal_args: Any) -> None:
        """Move to the next phase (the SIGUSR1 handler)."""
        self.phase += 1

    def _enter(self) -> Tuple[int, Optional[int], Any, Optional[str]]:
        span_id = next(self._ids)
        parent = self._current.get()
        token = self._current.set(span_id)
        return span_id, parent, token, current_trace_id()

    def _exit(self, name, span_id, parent, token, trace, start, fields) -> None:
        end = time.perf_counter()
        self._current.reset(token)
        self.spans.append((span_id, name, start, end, parent, trace, self.phase, fields))

    def wrap(self, name: str, fn: Callable, fields: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call (sync or async).

        ``fields(args, kwargs, result)`` adds size fields to the span.
        """
        tracer = self
        fields = fields or _no_fields

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                if tracer.phase == UNTRACED_PHASE:
                    return await fn(*args, **kwargs)
                span_id, parent, token, trace = tracer._enter()
                start = time.perf_counter()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    tracer._exit(name, span_id, parent, token, trace, start,
                                 fields(args, kwargs, result))

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.phase == UNTRACED_PHASE:
                return fn(*args, **kwargs)
            span_id, parent, token, trace = tracer._enter()
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._exit(name, span_id, parent, token, trace, start,
                             fields(args, kwargs, result))

        return traced

    def calibration_fields(self, args, kwargs, result) -> Dict[str, Any]:
        """Mark the first call per (m, r, bit_width) cell in this process as cold."""
        m = args[0] if args else kwargs.get("m")
        r = args[1] if len(args) > 1 else kwargs.get("r", 3)
        bits = args[2] if len(args) > 2 else kwargs.get("bit_width")
        key = (m, r, bits)
        cold = key not in self._calibrated
        self._calibrated.add(key)
        return {"cold": cold}

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line."""
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")


def _no_fields(args, kwargs, result) -> None:
    return None


def _route_fields(args, kwargs, result):
    # ResultServer._route(self, method, target, headers, raw_body)
    path = args[2].split("?", 1)[0]
    status = result[0] if isinstance(result, tuple) else None
    return {"method": args[1], "path": path, "status": status,
            "trace": args[3].get(TRACE_HEADER.lower())}


def _submit_fields(args, kwargs, result):
    # MicroBatcher.submit(self, request, trace_id=None)
    return {"request": id(args[1])}


def _evaluate_requests_fields(args, kwargs, result):
    requests = args[0] if args else kwargs["requests"]
    return {"requests": [id(request) for request in requests]}


def _cell_batch_fields(args, kwargs, result):
    # evaluate_cell_batch(network, device, calibration, entries, ...)
    entries = args[3] if len(args) > 3 else kwargs.get("entries", ())
    return {"entries": len(entries)}


def _put_fields(args, kwargs, result):
    payload = args[1] if len(args) > 1 else kwargs["payload"]
    return {"points": len(payload.get("points", ()))}


def _encode_fields(args, kwargs, result):
    payload = args[1] if len(args) > 1 else kwargs["payload"]
    return {"points": len(payload.get("points", ())), "bytes": len(result or b"")}


def _plan_fields(args, kwargs, result):
    return {"shards": len(result or ())}


def _shard_fields(args, kwargs, result):
    return {"points": len((result or {}).get("points", ()))}


#: (module, attribute path, span name, fields) — each is patched where its
#: caller looks it up.  ``repro.service.batching`` imports
#: ``evaluate_requests`` by name, so it is patched there; functions that
#: callers import inside a function body are patched on their home module.
PATCHES: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.service.server", "ResultServer._route", "server.route", _route_fields),
    ("repro.service.batching", "MicroBatcher.submit", "batching.submit", _submit_fields),
    ("repro.service.batching", "evaluate_requests", "dse_batch.evaluate_requests",
     _evaluate_requests_fields),
    ("repro.dse.vectorized", "evaluate_cell_batch", "vectorized.evaluate_cell_batch",
     _cell_batch_fields),
    ("repro.dse.vectorized", "calibrated_error", "quantized.calibrated_error", None),
    ("repro.dse.cache", "calibrated_error", "quantized.calibrated_error", None),
    ("repro.experiments.runner", "run_experiment", "runner.run_experiment", None),
    ("repro.service.jobs", "result_to_dict", "persistence.result_to_dict", None),
    ("repro.service.jobs", "plan_shards", "jobs.plan_shards", _plan_fields),
    ("repro.service.jobs", "execute_shard", "jobs.execute_shard", _shard_fields),
    ("repro.worker.loop", "execute_shard", "jobs.execute_shard", _shard_fields),
    ("repro.service.store", "ResultStore.put_payload", "store.put_payload", _put_fields),
    ("repro.service.columnar", "encode_block", "columnar.encode_block", _encode_fields),
    ("repro.service.store", "ResultStore.query_page", "store.query_page", None),
    ("repro.service.store", "ResultStore.pareto", "store.pareto", None),
    ("repro.service.store", "ColumnarEngine", "store.engine_build", None),
    ("repro.service.queryspec", "QuerySpec.from_dict", "queryspec.from_dict", None),
)


def install(tracer: Tracer) -> None:
    """Wrap every function in :data:`PATCHES` in place."""
    for module_name, attr_path, span_name, fields in PATCHES:
        owner: Any = importlib.import_module(module_name)
        *parents, attr = attr_path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        if span_name == "quantized.calibrated_error":
            fields = tracer.calibration_fields
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(tracer.wrap(span_name, raw.__func__, fields))
        else:
            wrapped = tracer.wrap(span_name, raw, fields)
        setattr(owner, attr, wrapped)


def main(argv: List[str]) -> int:
    """Run the repro CLI with ``argv``, tracing when the span file is set."""
    from repro.experiments import cli

    spans_path = os.environ.get(SPANS_ENV)
    tracer = Tracer()
    if spans_path:
        install(tracer)
    signal.signal(signal.SIGUSR1, tracer.advance)
    # A shell without job control starts background jobs with SIGINT
    # ignored, and ``serve`` only shuts down cleanly on KeyboardInterrupt.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        return cli.main(argv)
    finally:
        if spans_path:
            tracer.dump(Path(spans_path))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
