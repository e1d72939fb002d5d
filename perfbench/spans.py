"""Spans for the traced perfbench run, recorded from outside the program.

The tracer wraps public functions of each layer where their callers look
them up (a module attribute or a class attribute), so nothing under ``src/``
knows it is traced.  A span records its name, start, end, parent and op id;
spans stay in memory and are written at exit as Chrome trace-event JSON,
which Perfetto opens.

Functions called thousands of times per op (recombination, genome keys,
cache lookups) are *leaves*: instead of one span per call they add their
call count and seconds to the enclosing span, which keeps the trace small
and the overhead near a microsecond per call.

The current span lives in a context variable, so spans nest correctly
across asyncio tasks; a span opened in an executor thread has no parent.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import functools
import importlib
import inspect
import json
import os
import threading
import time
from pathlib import Path

SPAN, LEAF, OP = "span", "leaf", "op"

#: (module, attribute, span name, kind) for every traced call.  Each entry
#: names the lookup its caller performs: ``find_congruence_classes`` is
#: patched in the pipeline module because the pipeline imported it by name.
LAYERS = (
    ("repro.machine.measurement", "Machine.measure", "machine.measure", SPAN),
    ("repro.machine.processor", "Processor.run", "machine.sim", SPAN),
    ("repro.machine.measurement", "build_loop_body", "codegen.loop_body", SPAN),
    ("repro.pmevo.pipeline", "find_congruence_classes", "pmevo.congruence", SPAN),
    ("repro.pmevo.evolution", "PortMappingEvolver.run", "pmevo.evolution", SPAN),
    ("repro.pmevo.evolution", "recombine", "pmevo.recombine", LEAF),
    ("repro.pmevo.evolution", "genome_key", "pmevo.dedup", LEAF),
    ("repro.pmevo.packed", "PackedPopulation.from_genomes", "pmevo.pack", LEAF),
    ("repro.pmevo.evolution", "local_search", "pmevo.localsearch", SPAN),
    (
        "repro.throughput.batched",
        "BatchedThroughputEvaluator.throughputs_from_packed",
        "throughput.kernel",
        SPAN,
    ),
    ("repro.throughput.batched", "FixedMappingEvaluator.throughputs", "throughput.fixed_eval", SPAN),
    ("repro.serving.server", "parse_predict_request", "serving.parse", LEAF),
    ("repro.serving.cache", "PredictionCache.get", "serving.cache", LEAF),
    ("repro.serving.cache", "PredictionCache.put", "serving.cache", LEAF),
    ("repro.serving.server", "PredictionServer.handle_predict", "serving.request", OP),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "track", "leaves")

    def __init__(self, name: str, parent: "Span | None", op: int | None, track: int):
        self.name = name
        self.parent = parent
        self.op = op
        self.track = track
        self.leaves: dict[str, list] | None = None
        self.start = time.perf_counter()
        self.end = self.start


class Tracer:
    """Collects spans from patched layer functions."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._current: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._op: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "perfbench_op", default=None
        )
        self._ops = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str, track: int) -> tuple[Span, contextvars.Token]:
        span = Span(name, self._current.get(), self._op.get(), track)
        self.spans.append(span)
        return span, self._current.set(span)

    def _close(self, span: Span, token: contextvars.Token) -> None:
        span.end = time.perf_counter()
        self._current.reset(token)

    @contextlib.contextmanager
    def op(self):
        """A root span named ``op`` with a fresh op id, around one benchmark op."""
        self._ops += 1
        op_token = self._op.set(self._ops)
        span, token = self._open("op", threading.get_ident())
        try:
            yield span
        finally:
            self._close(span, token)
            self._op.reset(op_token)

    def _span(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span, token = self._open(name, threading.get_ident())
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span, token)

        return wrapper

    def _async_op(self, fn, name: str):
        # One request per connection task at a time, so the task is a track
        # on which request spans never overlap.
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            self._ops += 1
            op_token = self._op.set(self._ops)
            span, token = self._open(name, id(asyncio.current_task()))
            try:
                return await fn(*args, **kwargs)
            finally:
                self._close(span, token)
                self._op.reset(op_token)

        return wrapper

    def _leaf(self, fn, name: str):
        current = self._current

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                parent = current.get()
                if parent is not None:
                    if parent.leaves is None:
                        parent.leaves = {}
                    entry = parent.leaves.get(name)
                    if entry is None:
                        parent.leaves[name] = [1, elapsed]
                    else:
                        entry[0] += 1
                        entry[1] += elapsed

        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self, layers=LAYERS) -> None:
        """Patch every layer function; :meth:`uninstall` restores them."""
        for module_name, attribute, name, kind in layers:
            owner = importlib.import_module(module_name)
            *path, attr = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            is_classmethod = isinstance(original, classmethod)
            fn = original.__func__ if is_classmethod else original
            if kind == OP:
                if not inspect.iscoroutinefunction(fn):
                    raise TypeError(f"{module_name}.{attribute} is not a coroutine function")
                wrapped = self._async_op(fn, name)
            elif kind == LEAF:
                wrapped = self._leaf(fn, name)
            else:
                wrapped = self._span(fn, name)
            setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- export -------------------------------------------------------------

    def events(self) -> list[dict]:
        """The spans as Chrome trace events (``ph: X``, timestamps in µs).

        ``args`` carries what the per-layer analysis needs: the span's id,
        its parent's id, its op id and its leaf totals (calls, seconds).
        Timestamps are ``time.perf_counter`` microseconds, the monotonic
        clock every process on the host shares, so a benchmark process can
        cut a server's trace to its own timing window.
        """
        ids = {id(span): index for index, span in enumerate(self.spans)}
        pid = os.getpid()
        return [
            {
                "name": span.name,
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": (span.end - span.start) * 1e6,
                "pid": pid,
                "tid": span.track,
                "args": {
                    "id": index,
                    "parent": ids.get(id(span.parent)) if span.parent is not None else None,
                    "op": span.op,
                    "leaves": span.leaves or {},
                },
            }
            for index, span in enumerate(self.spans)
        ]


def write_trace(path: Path, events: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def read_trace(path: Path) -> list[dict]:
    return json.loads(path.read_text())["traceEvents"]


def op_breakdown(events: list[dict]) -> dict[int, dict]:
    """Per op: wall seconds, and per layer its calls, total and self seconds.

    A layer's self time is its spans' durations minus their child spans and
    leaf calls; a leaf's self time is its own time.  The op root's self time
    is what no named layer covers.
    """
    spans = {event["args"]["id"]: event for event in events}
    children: dict[int, float] = {}
    for event in events:
        parent = event["args"]["parent"]
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + event["dur"] / 1e6
    ops: dict[int, dict] = {}
    for event in events:
        args = event["args"]
        if args["op"] is None:
            continue
        op = ops.setdefault(args["op"], {"wall": 0.0, "root": None, "layers": {}})
        duration = event["dur"] / 1e6
        leaf_seconds = 0.0
        for name, (calls, seconds) in args["leaves"].items():
            leaf_seconds += seconds
            layer = op["layers"].setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
            layer["calls"] += calls
            layer["total"] += seconds
            layer["self"] += seconds
        own = duration - children.get(args["id"], 0.0) - leaf_seconds
        if args["parent"] is None or spans[args["parent"]]["args"]["op"] is None:
            op["wall"] = duration
            op["root"] = event["name"]
        layer = op["layers"].setdefault(event["name"], {"calls": 0, "total": 0.0, "self": 0.0})
        layer["calls"] += 1
        layer["total"] += duration
        layer["self"] += own
    return ops
