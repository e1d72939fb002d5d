"""The asyncio prediction server: HTTP/JSON over a mapping registry.

``repro-pmevo serve`` wraps this module; ``docs/serving.md`` is the operator
and API reference.  Everything is stdlib — ``asyncio.start_server`` plus a
deliberately small HTTP/1.1 implementation (request line, headers,
``Content-Length`` bodies, keep-alive) — so serving adds no dependencies.

Hot-path design
---------------
A ``POST /v1/predict`` batch is answered from three tiers:

1. **Cache hits** — a bounded LRU keyed by ``(mapping id, canonical
   sequence)`` (:mod:`repro.serving.cache`); hits never touch numpy.
2. **Coalesced misses** — sequences some concurrent request is already
   computing; this request awaits the in-flight future instead of
   recomputing (single-flight per key).
3. **Fresh misses** — deduplicated and evaluated as *one*
   :class:`repro.throughput.batched.FixedMappingEvaluator` call (one
   product of the batch's counts with the mapping's union-closure table,
   then a divide and a max) on a single-threaded executor, so the event
   loop keeps accepting connections and serving cached hits while numpy
   runs.  Per-request cost is therefore amortized over batch width, not
   paid per sequence.

Evaluation is exact for integer masses below 2^53, so a prediction does not
depend on batch composition: the three tiers return the same floats for the
same sequence — cold, warm, and coalesced answers are indistinguishable
(``tests/test_serving_equivalence.py``).  A sequence whose total µop mass
reaches 2^53 is rejected up front with a structured 400.

Error and shutdown discipline
-----------------------------
Every client error is a structured 4xx JSON body (never a 500, never a hung
connection — malformed framing gets a 400 and a close; idle and read
timeouts bound every await).  On SIGTERM/SIGINT the server stops accepting,
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
from concurrent.futures import ThreadPoolExecutor

from repro.core.errors import ReproError, ServingError
from repro.core.experiment import Experiment
from repro.serving.cache import PredictionCache
from repro.serving.protocol import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_SEQUENCE,
    ProtocolError,
    error_body,
    parse_predict_request,
)
from repro.serving.registry import MappingRegistry
from repro.throughput.bottleneck import EXACT_MASS_LIMIT

__all__ = ["PredictionServer", "parse_bind"]

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


def parse_bind(text: str) -> tuple[str, int]:
    """Parse a ``--bind`` address: ``HOST:PORT`` or ``:PORT``.

    An empty host means loopback; port 0 asks the kernel for an ephemeral
    port (the bound address is printed at startup for clients to parse).
    """
    host, sep, port_text = text.rpartition(":")
    if not sep:
        raise ServingError(f"bind address must be HOST:PORT or :PORT, got {text!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ServingError(f"invalid port in bind address {text!r}") from None
    if not 0 <= port <= 65535:
        raise ServingError(f"port out of range in bind address {text!r}")
    return host or "127.0.0.1", port


class _Stats:
    """Operational counters behind ``GET /v1/stats``."""

    def __init__(self, latency_window: int = 2048):
        self.started_at = time.monotonic()
        self.requests = 0
        self.predict_requests = 0
        self.error_responses = 0
        self.predictions = 0
        self.coalesced = 0
        self.batches = 0
        self.batch_entries = 0
        self.max_batch = 0
        self.latencies = deque(maxlen=latency_window)

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
            "predictions": {"total": self.predictions, "coalesced": self.coalesced},
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
        Seconds a keep-alive connection may sit between requests (also the
        per-read bound, so half-sent requests cannot hang the server).
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
        self._inflight: dict[tuple[str, int, Experiment], asyncio.Future] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="predict-eval"
        )
        self._server: asyncio.base_events.Server | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._busy = 0
        self._drained = asyncio.Event()
        self._draining = False
        self._shutdown_requested = asyncio.Event()

    # -- request handling (transport-independent) --------------------------

    async def handle_predict(self, payload: object) -> tuple[int, dict]:
        """Answer a decoded ``/v1/predict`` payload.

        Returns ``(status, response body)``.  Public and socket-free so the
        property-test wall can drive cold/warm/coalesced paths directly.
        """
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
        for sequence in request.sequences:
            missing = entry.evaluator.missing_instructions(sequence)
            if missing:
                raise ProtocolError(
                    400,
                    "unknown_instruction",
                    f"mapping {mapping_id!r} does not cover instruction "
                    f"{missing[0]!r}",
                )
            mass = entry.evaluator.total_mass(sequence)
            if mass >= EXACT_MASS_LIMIT:
                raise ProtocolError(
                    400,
                    "mass_too_large",
                    f"a sequence's total µop mass under mapping {mapping_id!r} is "
                    f"{mass}, at least 2^53: its throughput is not exact in float64",
                )

        generation = entry.generation
        results: list[float | None] = [None] * len(request.sequences)
        cached = [False] * len(request.sequences)
        pending: list[tuple[int, asyncio.Future]] = []
        fresh: dict[Experiment, asyncio.Future] = {}
        loop = asyncio.get_running_loop()
        for i, sequence in enumerate(request.sequences):
            hit = self.cache.get(mapping_id, sequence)
            if hit is not None:
                results[i] = hit
                cached[i] = True
                continue
            key = (mapping_id, generation, sequence)
            future = self._inflight.get(key)
            if future is not None:
                # Some concurrent request is already computing this very
                # sequence: await its result instead of recomputing.
                self.stats.coalesced += 1
                pending.append((i, future))
                continue
            future = fresh.get(sequence)
            if future is None:
                future = loop.create_future()
                self._inflight[key] = future
                fresh[sequence] = future
            pending.append((i, future))

        if fresh:
            sequences = list(fresh)
            self.stats.record_batch(len(sequences))
            try:
                values = await loop.run_in_executor(
                    self._executor, entry.evaluator.throughputs, sequences
                )
            except BaseException as exc:
                for sequence, future in fresh.items():
                    self._inflight.pop((mapping_id, generation, sequence), None)
                    if not future.done():
                        future.set_exception(exc)
                        # This request re-raises below instead of awaiting its
                        # own futures; mark the exception retrieved so asyncio
                        # does not warn.  Coalesced waiters in other requests
                        # still receive it from their awaits.
                        future.exception()
                raise
            current = self.registry.get(mapping_id)
            for sequence, value in zip(sequences, values):
                value = float(value)
                future = fresh[sequence]
                self._inflight.pop((mapping_id, generation, sequence), None)
                future.set_result(value)
                # A hot reload may have swapped the mapping while numpy ran;
                # never let a stale generation repopulate the fresh cache.
                if current.generation == generation:
                    self.cache.put(mapping_id, sequence, value)

        for i, future in pending:
            results[i] = await future

        self.stats.predictions += len(results)
        return 200, {
            "mapping": mapping_id,
            "generation": generation,
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
        self, line: bytes, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes]:
        """Parse one framed request whose first line has already arrived."""
        if len(line) > _MAX_REQUEST_LINE:
            raise ProtocolError(400, "bad_http", "request line too long")
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise ProtocolError(400, "bad_http", "malformed HTTP request line")
        method, target, _version = parts
        headers: dict[str, str] = {}
        header_bytes = 0
        while True:
            line = await asyncio.wait_for(reader.readline(), self.idle_timeout)
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
            headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            raise ProtocolError(
                400, "bad_http", f"invalid Content-Length {length_text!r}"
            ) from None
        if length < 0:
            raise ProtocolError(400, "bad_http", "negative Content-Length")
        if length > self.max_body_bytes:
            raise ProtocolError(
                413,
                "body_too_large",
                f"request body of {length} bytes exceeds the {self.max_body_bytes} limit",
            )
        body = await asyncio.wait_for(reader.readexactly(length), self.idle_timeout)
        return method, target, headers, body

    async def _serve_one(
        self, line: bytes, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Read the rest of one request and answer it; returns keep-alive."""
        try:
            method, target, headers, body = await self._read_request(line, reader)
        except ProtocolError as exc:
            # Malformed framing: answer once, then close — a parser this
            # confused cannot safely find the next request.
            self.stats.error_responses += 1
            writer.write(
                self._render(exc.status, error_body(exc.code, exc.message), keep_alive=False)
            )
            await writer.drain()
            return False
        except (asyncio.TimeoutError, asyncio.IncompleteReadError, ConnectionError):
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
        self._writers.add(writer)
        try:
            while True:
                if self._draining:
                    break
                try:
                    line = await asyncio.wait_for(reader.readline(), self.idle_timeout)
                except (asyncio.TimeoutError, ConnectionError):
                    break
                if not line:
                    break
                # A request is in flight from its first byte on the wire:
                # shutdown drains it even if the body is still arriving.
                self._busy += 1
                try:
                    keep_alive = await self._serve_one(line, reader, writer)
                finally:
                    self._busy -= 1
                    if self._draining and self._busy == 0:
                        self._drained.set()
                if not keep_alive:
                    break
        except ConnectionError:
            pass
        finally:
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
        self._executor.shutdown(wait=True)

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
