"""The asyncio prediction server: HTTP/JSON over a mapping registry.

``repro-pmevo serve`` wraps this module; ``docs/serving.md`` is the operator
and API reference.  Everything is stdlib — ``asyncio.start_server`` plus a
deliberately small HTTP/1.1 implementation (request line, headers,
``Content-Length`` bodies, keep-alive) — so serving adds no dependencies.

Hot-path design
---------------
A ``POST /v1/predict`` batch is answered from two tiers:

1. **Cache hits** — a bounded LRU keyed by ``(mapping id, canonical
   sequence)`` (:mod:`repro.serving.cache`); hits never touch numpy.
2. **Misses** — deduplicated and evaluated as *one*
   :class:`repro.throughput.batched.FixedMappingEvaluator` call (one
   product of the batch's counts with the mapping's union-closure table,
   then a divide and a max), made directly on the event loop, then cached.

A canonical sequence is the name-sorted tuple of ``(name, count)`` pairs
(:func:`repro.serving.protocol.canonical_sequence`): the cache key and the
evaluator's input alike, so no ``Experiment`` is built on the request path.

A typical miss batch costs tens of microseconds, less than a hop to a
worker thread would, so there is no worker thread and no coalescing of
concurrent misses.  While a batch evaluates the loop serves nothing else;
``max_batch`` and ``max_sequence`` bound that stall.  With no ``await``
between a lookup, its evaluation and the cache fill, a hot reload — which
runs on the same loop — cannot land in between, so a fill is never stale.

Evaluation is exact for integer masses below 2^53, so a prediction does not
depend on batch composition: cold and warm answers are the same floats
(``tests/test_serving_equivalence.py``).  The evaluator call is also the
only check a sequence passes, once per distinct (mapping, sequence): a miss
that names an instruction the mapping does not cover, or whose total µop
mass reaches 2^53, makes the request a structured 400 before anything is
cached.  A hit is not checked again; it passed when it was first answered.

Error and shutdown discipline
-----------------------------
Every client error is a structured 4xx JSON body (never a 500, never a hung
connection — malformed framing gets a 400 and a close).  Each connection
keeps one deadline, a ``loop.call_later`` that closes its transport: it
bounds the wait for a request line by ``idle_timeout``, and the head, the
body and the response's write that follow by another ``idle_timeout``; a
read it cuts ends the connection without a response, and a write it cuts
(a client that does not read its answers) is aborted, since a close would
wait for that client.  (One timer per connection rather than a timeout per
read: before Python 3.12, ``asyncio``'s timed wait runs each read in a new
Task.)  On SIGTERM/SIGINT the server stops accepting,
drains requests already in flight — a request counts from its first byte on
the wire, so one whose body is still arriving completes too (bounded by the
grace period) — then closes remaining idle connections and exits.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import time
from collections import deque

from repro.core.errors import ExperimentError, ReproError
from repro.serving.cache import PredictionCache
from repro.serving.protocol import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_SEQUENCE,
    ProtocolError,
    error_body,
    parse_predict_request,
)
from repro.serving.registry import MappingRegistry

__all__ = ["PredictionServer"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    500: "Internal Server Error",
}

#: Bounds on HTTP framing, beyond which a connection is summarily rejected.
_MAX_REQUEST_LINE = 8 * 1024
_MAX_HEADER_BYTES = 32 * 1024

#: Most recent request latencies behind the ``/v1/stats`` percentiles.
_LATENCY_WINDOW = 2048


def _cut(transport: asyncio.WriteTransport) -> None:
    """A connection's deadline: close its transport, which ends a pending
    read with EOF, or abort it while a response waits to be written, since
    a close would first wait for the peer to read it."""
    if transport.get_write_buffer_size():
        transport.abort()
    else:
        transport.close()


class _Stats:
    """Operational counters behind ``GET /v1/stats``."""

    def __init__(self):
        self.started_at = time.monotonic()
        self.requests = 0
        self.predict_requests = 0
        self.error_responses = 0
        self.predictions = 0
        self.batches = 0
        self.batch_entries = 0
        self.max_batch = 0
        self.latencies = deque(maxlen=_LATENCY_WINDOW)

    def record_batch(self, size: int) -> None:
        self.batches += 1
        self.batch_entries += size
        self.max_batch = max(self.max_batch, size)

    @staticmethod
    def _percentile(ordered: list[float], q: float) -> float:
        index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
        return ordered[index]

    def describe(self, cache: PredictionCache, registry: MappingRegistry) -> dict:
        ordered = sorted(self.latencies)
        latency = {"count": len(ordered)}
        if ordered:
            latency["p50_ms"] = round(1000.0 * self._percentile(ordered, 0.50), 3)
            latency["p99_ms"] = round(1000.0 * self._percentile(ordered, 0.99), 3)
        return {
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "requests": {
                "total": self.requests,
                "predict": self.predict_requests,
                "errors": self.error_responses,
            },
            # Nothing is coalesced since misses are evaluated inline; the key
            # stays because clients of the schema (perfbench's traced run's
            # serving.coalesced_share among them) read it.
            "predictions": {"total": self.predictions, "coalesced": 0},
            "cache": cache.stats(),
            "batches": {
                "count": self.batches,
                "entries": self.batch_entries,
                "max": self.max_batch,
                "mean": (self.batch_entries / self.batches) if self.batches else 0.0,
            },
            "latency": latency,
            "mappings": registry.describe(),
        }


class PredictionServer:
    """Serves throughput predictions for a :class:`MappingRegistry`.

    Parameters
    ----------
    registry:
        The mappings to answer for.
    cache_size:
        LRU capacity in predictions (0 disables caching).
    max_batch / max_sequence:
        Per-request limits; violations are structured 413 errors.
    max_body_bytes:
        Request body ceiling (413 beyond it).
    idle_timeout:
        Seconds a keep-alive connection may sit between requests, and
        seconds a request's whole head and body may take to arrive and its
        response to be written, so neither half-sent requests nor unread
        responses can hang the server.
    grace:
        Seconds the shutdown path waits for received requests to finish.
    """

    def __init__(
        self,
        registry: MappingRegistry,
        *,
        cache_size: int = 4096,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_sequence: int = DEFAULT_MAX_SEQUENCE,
        max_body_bytes: int = 1024 * 1024,
        idle_timeout: float = 30.0,
        grace: float = 10.0,
    ):
        self.registry = registry
        self.cache = PredictionCache(cache_size)
        self.max_batch = max_batch
        self.max_sequence = max_sequence
        self.max_body_bytes = max_body_bytes
        self.idle_timeout = idle_timeout
        self.grace = grace
        self.stats = _Stats()
        self._server: asyncio.base_events.Server | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._busy = 0
        self._drained = asyncio.Event()
        self._draining = False
        self._shutdown_requested = asyncio.Event()

    # -- request handling (transport-independent) --------------------------

    async def handle_predict(self, payload: object) -> tuple[int, dict]:
        """Answer a decoded ``/v1/predict`` payload.

        Returns ``(status, response body)``.  Parses the request, answers
        its cache hits and evaluates its distinct misses in one call,
        without yielding to the loop.  That call is the only check a
        sequence passes (a hit passed it when first answered): when it
        refuses a miss, the request is a 400 and nothing is cached.  Public
        and socket-free so the property-test wall can drive cold and warm
        paths directly.
        """
        # Still async though nothing awaits: tracers and tests call it as a coroutine.
        request = parse_predict_request(
            payload, max_batch=self.max_batch, max_sequence=self.max_sequence
        )
        mapping_id = request.mapping_id
        if mapping_id is None:
            mapping_id = self.registry.default_id
            if mapping_id is None:
                raise ProtocolError(
                    400,
                    "ambiguous_mapping",
                    "several mappings are served; the request must name one "
                    f"of {sorted(self.registry.ids)} in its \"mapping\" field",
                )
        if mapping_id not in self.registry:
            raise ProtocolError(
                404,
                "unknown_mapping",
                f"unknown mapping id {mapping_id!r}; serving {sorted(self.registry.ids)}",
            )
        entry = self.registry.get(mapping_id)
        results: list[float | None] = [None] * len(request.sequences)
        cached = [False] * len(request.sequences)
        fresh: dict[tuple, list[int]] = {}
        for i, sequence in enumerate(request.sequences):
            hit = self.cache.get(mapping_id, sequence)
            if hit is not None:
                results[i] = hit
                cached[i] = True
            else:
                fresh.setdefault(sequence, []).append(i)

        if fresh:
            try:
                values = entry.evaluator.throughputs(list(fresh))
            except ExperimentError:
                # A miss names an instruction outside the mapping (the first
                # such name in request order is reported), or its mass
                # reaches 2^53: nothing is cached or counted as a batch.
                missing = next(
                    (name for seq in fresh for name, _ in seq if name not in entry.mapping),
                    None,
                )
                if missing is not None:
                    raise ProtocolError(
                        400,
                        "unknown_instruction",
                        f"mapping {mapping_id!r} does not cover instruction {missing!r}",
                    ) from None
                raise ProtocolError(
                    400,
                    "mass_too_large",
                    f"a sequence's total µop mass under mapping {mapping_id!r} "
                    "reaches 2^53: its throughput is not exact in float64",
                ) from None
            self.stats.record_batch(len(fresh))
            for (sequence, indices), value in zip(fresh.items(), values):
                value = float(value)
                for i in indices:
                    results[i] = value
                self.cache.put(mapping_id, sequence, value)

        self.stats.predictions += len(results)
        return 200, {
            "mapping": mapping_id,
            "generation": entry.generation,
            "throughputs": results,
            "cached": cached,
        }

    def handle_reload(self) -> tuple[int, dict]:
        """Answer ``POST /v1/reload``: re-read artifacts, invalidate caches."""
        reloaded, unchanged = self.registry.reload()
        invalidated = 0
        for mapping_id in reloaded:
            invalidated += self.cache.invalidate_mapping(mapping_id)
        return 200, {
            "reloaded": reloaded,
            "unchanged": unchanged,
            "cache_entries_invalidated": invalidated,
        }

    def handle_healthz(self) -> tuple[int, dict]:
        return 200, {
            "status": "ok",
            "mappings": sorted(self.registry.ids),
            "draining": self._draining,
        }

    def handle_stats(self) -> tuple[int, dict]:
        return 200, self.stats.describe(self.cache, self.registry)

    async def _route(self, method: str, path: str, body: bytes) -> tuple[int, dict]:
        path = path.split("?", 1)[0]
        routes = {"/healthz": "GET", "/v1/stats": "GET", "/v1/predict": "POST", "/v1/reload": "POST"}
        expected = routes.get(path)
        if expected is None:
            raise ProtocolError(404, "not_found", f"no such endpoint: {path}")
        if method != expected:
            raise ProtocolError(
                405, "method_not_allowed", f"{path} only supports {expected}"
            )
        if path == "/healthz":
            return self.handle_healthz()
        if path == "/v1/stats":
            return self.handle_stats()
        if path == "/v1/reload":
            return self.handle_reload()
        try:
            payload = json.loads(body)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ProtocolError(400, "bad_json", f"request body is not JSON: {exc}") from None
        start = time.monotonic()
        self.stats.predict_requests += 1
        status, response = await self.handle_predict(payload)
        self.stats.latencies.append(time.monotonic() - start)
        return status, response

    # -- HTTP/1.1 transport -------------------------------------------------

    @staticmethod
    def _render(status: int, body: dict, *, keep_alive: bool) -> bytes:
        payload = json.dumps(body).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        return head.encode("ascii") + payload

    async def _read_request(
        self, line: bytes | None, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes]:
        """Parse one framed request whose first line has already arrived
        (``None`` when it overran the stream's limit).

        The reads are bare: the connection's deadline bounds them.
        """
        if line is None or len(line) > _MAX_REQUEST_LINE:
            raise ProtocolError(400, "bad_http", "request line too long")
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise ProtocolError(400, "bad_http", "malformed HTTP request line")
        method, target, _version = parts
        headers: dict[str, str] = {}
        header_bytes = 0
        while True:
            try:
                line = await reader.readline()
            except ValueError:  # past the stream's limit, which drops the buffer
                raise ProtocolError(400, "bad_http", "header line too long") from None
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                raise ProtocolError(400, "bad_http", "connection closed inside headers")
            header_bytes += len(line)
            if header_bytes > _MAX_HEADER_BYTES:
                raise ProtocolError(400, "bad_http", "request headers too large")
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise ProtocolError(400, "bad_http", f"malformed header line {line!r}")
            name, value = name.strip().lower(), value.strip()
            if name == "content-length" and headers.get(name, value) != value:
                raise ProtocolError(400, "bad_http", "conflicting Content-Length headers")
            headers[name] = value
        length_text = headers.get("content-length", "0")
        try:
            # ASCII digits only: int() alone also takes "+23", "2_3" and "٢٣".
            if not (length_text.isascii() and length_text.isdigit()):
                raise ValueError(length_text)
            length = int(length_text)  # raises ValueError past int()'s digit limit
        except ValueError:
            raise ProtocolError(
                400, "bad_http", f"invalid Content-Length {length_text!r}"
            ) from None
        if length > self.max_body_bytes:
            raise ProtocolError(
                413,
                "body_too_large",
                f"request body of {length} bytes exceeds the {self.max_body_bytes} limit",
            )
        body = await reader.readexactly(length)
        return method, target, headers, body

    async def _serve_one(
        self, line: bytes | None, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Read the rest of one request and answer it, all under the
        connection's deadline; returns keep-alive."""
        try:
            method, target, headers, body = await self._read_request(line, reader)
        except (asyncio.IncompleteReadError, ConnectionError):
            return False
        except ProtocolError as exc:
            if writer.transport.is_closing():
                return False  # the deadline or shutdown cut the head: no response
            # Malformed framing: answer once, then close — a parser this
            # confused cannot safely find the next request.
            self.stats.error_responses += 1
            writer.write(
                self._render(exc.status, error_body(exc.code, exc.message), keep_alive=False)
            )
            await writer.drain()
            return False
        self.stats.requests += 1
        keep_alive = headers.get("connection", "keep-alive").lower() != "close"
        try:
            status, response = await self._route(method, target, body)
        except ProtocolError as exc:
            status, response = exc.status, error_body(exc.code, exc.message)
        except ReproError as exc:
            status, response = 500, error_body("internal", str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            print(f"serving: internal error: {exc!r}", file=sys.stderr, flush=True)
            status, response = 500, error_body("internal", "internal server error")
        if status >= 400:
            self.stats.error_responses += 1
        keep_alive = keep_alive and not self._draining
        writer.write(self._render(status, response, keep_alive=keep_alive))
        await writer.drain()
        return keep_alive

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # The connection's deadline cuts its transport (see _cut).
        loop = asyncio.get_running_loop()
        transport = writer.transport
        self._writers.add(writer)
        deadline = None
        try:
            while not self._draining:
                deadline = loop.call_later(self.idle_timeout, _cut, transport)
                try:
                    line = await reader.readline()
                except ValueError:  # past the stream's limit: a 400 below
                    line = None
                deadline.cancel()
                if line == b"" or transport.is_closing():
                    break
                # The head, the body and the response's write together get
                # one more idle_timeout.
                deadline = loop.call_later(self.idle_timeout, _cut, transport)
                # A request is in flight from its first byte on the wire:
                # shutdown drains it even if the body is still arriving.
                self._busy += 1
                try:
                    keep_alive = await self._serve_one(line, reader, writer)
                finally:
                    deadline.cancel()
                    self._busy -= 1
                    if self._draining and self._busy == 0:
                        self._drained.set()
                if not keep_alive:
                    break
        except ConnectionError:
            pass
        finally:
            if deadline is not None:
                deadline.cancel()
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    # -- lifecycle ----------------------------------------------------------

    async def start(self, host: str, port: int) -> tuple[str, int]:
        """Bind and start accepting; returns the actual (host, port)."""
        self._server = await asyncio.start_server(self._handle_connection, host, port)
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    def request_shutdown(self) -> None:
        """Signal-safe trigger for graceful shutdown."""
        self._shutdown_requested.set()

    async def shutdown(self) -> None:
        """Stop accepting, drain received requests, close connections."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Clear first: the last busy request may finish (and set the event)
        # between these two statements' scheduling otherwise.
        self._drained.clear()
        if self._busy > 0:
            try:
                await asyncio.wait_for(self._drained.wait(), self.grace)
            except asyncio.TimeoutError:
                print(
                    f"serving: grace period of {self.grace:g}s expired with "
                    f"{self._busy} request(s) still in flight",
                    file=sys.stderr,
                    flush=True,
                )
        for writer in list(self._writers):
            writer.close()

    async def run(self, host: str, port: int) -> int:
        """Serve until SIGTERM/SIGINT; returns a process exit code.

        Prints ``serving on HOST:PORT`` (flushed) once bound, so wrappers
        and tests can parse the ephemeral port.
        """
        bound_host, bound_port = await self.start(host, port)
        print(f"serving on {bound_host}:{bound_port}", flush=True)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_shutdown)
            except NotImplementedError:  # pragma: no cover - non-POSIX loops
                pass
        await self._shutdown_requested.wait()
        print("serving: shutdown requested, draining", flush=True)
        await self.shutdown()
        print("serving: drained, bye", flush=True)
        return 0
