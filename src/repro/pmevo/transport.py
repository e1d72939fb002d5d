"""Migration transports: how island states move during an epoch.

:meth:`~repro.pmevo.evolution.PortMappingEvolver.run` drives K populations
through alternating *epochs* (``migration_interval`` generations of
independent evolution) and *migrations* (elite exchange around the ring).
The epoch is embarrassingly parallel, and everything an epoch needs travels
inside the :class:`~repro.pmevo.evolution.EvolutionState` — so the island
loop does not care *where* an epoch runs.  This module makes that explicit: a
:class:`MigrationTransport` ships states out, advances them, and ships them
back, and the evolver is written against the protocol alone.

Protocol contract
-----------------
A transport has three methods, called in this order by one driving thread:

``start(evolver)``
    Called once before the first epoch with the fully constructed
    :class:`~repro.pmevo.evolution.PortMappingEvolver` (the heavy shared
    object: evaluator, measurement matrices, config).  The transport may
    distribute it to workers here; it crosses any process/network boundary
    exactly once per run.
``advance(jobs, generations)``
    ``jobs`` is a list of ``(island_index, state)`` pairs.  The transport
    must return ``(island_index, advanced_state)`` for *every* job (any
    order), where ``advanced_state`` is exactly
    ``evolver.advance(state, generations)``.  It must not advance a state it
    was not given and must not reorder generations within a state.
``close()``
    Called once (also on error paths); releases sockets and reaps forked
    workers.  Idempotent.

Two transports implement it.  :class:`SerialTransport` runs epochs in the
calling process.  :class:`SocketTransport` leases them to ``repro-pmevo
worker`` processes over TCP; given ``local_workers=N`` it forks N of those
workers itself onto the loopback interface, which is how ``infer --workers
N`` parallelizes on one host.  Local and remote workers therefore share one
code path: the same frames, leases, requeue and work stealing.

States cross process and network boundaries only in the
:meth:`~repro.pmevo.evolution.EvolutionState.to_jsonable` wire form, whose
population travels as a packed base64 npz blob
(:class:`~repro.pmevo.packed.PackedPopulation`).

Reproducibility guarantee
-------------------------
``evolver.advance`` is a pure function of ``(state, generations)`` — each
state carries its own numpy generator — so *who* computes an epoch cannot
change its result.  All transports therefore produce bit-identical runs for
a fixed seed; ``tests/test_transport_equivalence.py`` pins serial = forked
local workers = socket workers = resumed down to the serialized result bytes.

Failure semantics
-----------------
:class:`SerialTransport` fails loudly (errors propagate).
:class:`SocketTransport` degrades instead: workers announce
themselves with a hello/version handshake, send heartbeats while computing,
and are declared dead after ``heartbeat_timeout`` seconds of silence (or any
socket/framing error), at which point the islands they were computing are
requeued or re-leased to live workers.  If every worker dies the coordinator
finishes the epoch in-process — a run that started always completes, and
because of the purity argument above the recovery path cannot change the
result.  Startup is the exception: fewer than ``min_workers`` connections
within ``start_timeout`` raises :class:`repro.core.errors.TransportError`.
``close()`` sends each worker ``shutdown`` and waits up to :data:`CLOSE_GRACE`
seconds for it to hang up, discarding any lost race's result meanwhile.

Leases and work stealing
------------------------
Within an epoch the coordinator leases islands to workers in *batches*
(the pending islands split evenly over the idle workers, one ``job`` frame
per batch) and workers stream one ``result`` frame back per island, so the
coordinator observes per-island completions, not per-batch ones.  Once the
pending queue drains, idle workers *steal*: the slowest outstanding island
(fewest live leases, then oldest lease) is re-leased under a fresh
``job_id``, and the first result wins.  The epoch barrier ends every lease
and job ids never repeat, so a result counts only if it answers a lease its
worker holds for an island nobody has finished; any other (never issued,
from before the barrier, or a lost race) is discarded into
``stats["stale_results"]`` — harmless rather than wrong, because island
advancement is a pure function of its state.  Stealing keeps heterogeneous
or flaky workers from gating the epoch barrier at its tail.

Coordinator crash recovery
--------------------------
The coordinator itself may be killed: runs driven with a
:class:`~repro.pmevo.checkpoint.Checkpointer` journal every completed epoch
at the barrier (with one-deep ``.prev`` retention), and a restarted
coordinator — ``infer --resume`` pointed at the same ``--bind`` address —
rehydrates from the latest snapshot and simply replays any epochs lost
after it.  Workers that lose the connection mid-service do not exit: they
re-attach with capped exponential backoff plus deterministic jitter
(:func:`backoff_delays`), re-perform the hello/setup handshake, and discard
any in-flight lease (a result travels only on the connection whose job it
answers, so no stray result reaches the new coordinator incarnation).  A
worker exits with code 0 only once the coordinator is confirmed gone —
the full reconnect window elapsed without a successful attach.

Wire format (socket transport)
------------------------------
Frames are length-prefixed JSON: a 4-byte big-endian unsigned length
followed by that many bytes of UTF-8 JSON.  Messages carry a ``"type"``
key: ``hello`` (worker → coordinator, with ``"protocol"``), ``setup``
(coordinator → worker, the serialized problem), ``job`` (coordinator →
worker: a ``job_id``, never repeated within one coordinator, plus a batch
of ``[island, state]`` pairs), ``result`` (worker → coordinator, one per
completed island, echoing ``job_id``), ``heartbeat`` (worker →
coordinator, periodic), and ``shutdown`` (coordinator → worker).
"""

from __future__ import annotations

import contextlib
import json
import math
import multiprocessing
import os
import select
import socket
import struct
import threading
import time
from collections import deque
from collections.abc import Callable, Iterator, Mapping
from typing import Protocol, runtime_checkable

from repro.core.errors import CheckpointError, ReproError, TransportError
from repro.core.experiment import Experiment, ExperimentSet
from repro.core.ports import PortSpace
from repro.pmevo.evolution import (
    EvolutionState,
    PortMappingEvolver,
    config_from_jsonable,
    config_to_jsonable,
)

__all__ = [
    "MigrationTransport",
    "SerialTransport",
    "SocketTransport",
    "run_worker",
    "backoff_delays",
    "parse_address",
    "problem_to_jsonable",
    "evolver_from_jsonable",
    "PROTOCOL_VERSION",
    "DEFAULT_HEARTBEAT_INTERVAL",
    "DEFAULT_HEARTBEAT_TIMEOUT",
    "DEFAULT_START_TIMEOUT",
]

#: Version tag of the hello handshake; bumped on incompatible frame changes.
#: v2: ``job`` frames lease a batch of ``[island, state]`` pairs and
#: ``result`` frames answer one island at a time (work-stealing leases).
PROTOCOL_VERSION = 2

#: Default seconds between worker heartbeats (CLI ``worker --heartbeat-interval``).
DEFAULT_HEARTBEAT_INTERVAL = 2.0

#: Default per-worker silence budget before a lease is re-leased
#: (CLI ``infer --heartbeat-timeout``).
DEFAULT_HEARTBEAT_TIMEOUT = 30.0

#: Default seconds :meth:`SocketTransport.start` waits for ``min_workers``
#: (CLI ``infer --start-timeout``).
DEFAULT_START_TIMEOUT = 120.0

#: Ceiling of the capped exponential reconnect backoff.
BACKOFF_CAP = 8.0

#: Seconds an island's oldest lease must be outstanding before it may be
#: stolen.  The grace keeps a homogeneous cluster, whose workers finish
#: within milliseconds of each other, from burning CPU on duplicate leases
#: that the original worker wins anyway; a slow or dead worker blows past it.
STEAL_DELAY = 0.25

#: Live leases one island may accumulate through stealing: the original
#: lease plus one steal, bounding redundant compute.
MAX_ISLAND_LEASES = 2

#: Seconds :meth:`SocketTransport.close` waits for its workers to hang up,
#: so one still sending a lost race's result reads its shutdown frame
#: instead of a connection reset.
CLOSE_GRACE = 5.0

#: Initial connection attempts of :func:`run_worker` while the coordinator's
#: listener comes up, and the first delay of their backoff schedule (also
#: the first delay of every reconnect schedule).
CONNECT_ATTEMPTS = 10
RETRY_DELAY = 0.25

#: Upper bound on a single frame (guards against garbage length prefixes).
_MAX_FRAME_BYTES = 1 << 29

_LENGTH = struct.Struct(">I")


# -- framing -----------------------------------------------------------------


def send_frame(sock: socket.socket, message: Mapping, lock: threading.Lock | None = None) -> None:
    """Send one length-prefixed JSON frame (optionally under ``lock``)."""
    payload = json.dumps(message).encode("utf-8")
    if len(payload) > _MAX_FRAME_BYTES:
        raise TransportError(f"frame of {len(payload)} bytes exceeds the limit")
    data = _LENGTH.pack(len(payload)) + payload
    if lock is None:
        sock.sendall(data)
    else:
        with lock:
            sock.sendall(data)


def _recv_exact(sock: socket.socket, count: int) -> bytes | None:
    """Read exactly ``count`` bytes; ``None`` on EOF at a frame boundary."""
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if not chunks:
                return None
            raise TransportError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> dict | None:
    """Receive one frame; ``None`` on a clean EOF between frames.

    Raises :class:`TransportError` on truncated frames, oversized lengths,
    or payloads that are not a JSON object.
    """
    header = _recv_exact(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > _MAX_FRAME_BYTES:
        raise TransportError(f"announced frame of {length} bytes exceeds the limit")
    payload = _recv_exact(sock, length)
    if payload is None:
        raise TransportError("connection closed between length and payload")
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TransportError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict):
        raise TransportError(f"frame is not a JSON object: {message!r}")
    return message


def parse_address(text: str) -> tuple[str, int]:
    """Parse a ``HOST:PORT`` or ``:PORT`` string (every ``--bind`` and
    ``--connect``).

    An empty host means loopback; port 0 binds an ephemeral port, whose
    address the binding command prints for clients to parse.
    """
    host, sep, port_text = text.rpartition(":")
    if not sep:
        raise TransportError(f"expected HOST:PORT or :PORT, got {text!r}")
    try:
        port = int(port_text)
    except ValueError as exc:
        raise TransportError(f"invalid port in {text!r}") from exc
    if not 0 <= port <= 65535:
        raise TransportError(f"port out of range in {text!r}")
    return host or "127.0.0.1", port


# -- problem serialization ----------------------------------------------------


def problem_to_jsonable(evolver: PortMappingEvolver) -> dict:
    """JSON-safe description of an evolver's inference problem.

    Captures everything a remote worker needs to rebuild an equivalent
    :class:`PortMappingEvolver`: the port space, the measured experiments
    (insertion order preserved — fitness evaluation iterates them), the
    singleton throughputs, and the evolution config.
    """
    return {
        "ports": list(evolver.ports.names),
        "experiments": [
            {"counts": dict(item.experiment.counts), "throughput": item.throughput}
            for item in evolver.measurements
        ],
        "singleton_throughputs": dict(evolver.singleton_throughputs),
        "config": config_to_jsonable(evolver.config),
    }


def evolver_from_jsonable(data: Mapping) -> PortMappingEvolver:
    """Rebuild a :class:`PortMappingEvolver` from :func:`problem_to_jsonable`.

    Raises :class:`TransportError`, and nothing else, on a malformed
    problem: missing keys, values of the wrong type or out of range, or a
    problem the evolver refuses (no experiments, duplicate port names), so
    a worker reads a bad setup frame as a failed handshake.
    """
    try:
        ports = PortSpace(data["ports"])
        measurements = ExperimentSet()
        for entry in data["experiments"]:
            measurements.add(Experiment(entry["counts"]), float(entry["throughput"]))
        singles = {
            str(name): float(value)
            for name, value in dict(data["singleton_throughputs"]).items()
        }
        config = config_from_jsonable(data["config"])
        return PortMappingEvolver(ports, measurements, singles, config)
    except (ReproError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise TransportError(f"malformed problem payload: {exc}") from exc


# -- the protocol and the in-process transports -------------------------------


@runtime_checkable
class MigrationTransport(Protocol):
    """Where epochs run; see the module docstring for the full contract."""

    def start(self, evolver: PortMappingEvolver) -> None:
        """Prepare for epochs of ``evolver`` (distribute it to workers)."""

    def advance(
        self, jobs: list[tuple[int, EvolutionState]], generations: int
    ) -> list[tuple[int, EvolutionState]]:
        """Advance every ``(island, state)`` job by ``generations``."""

    def close(self) -> None:
        """Release resources; idempotent, called on error paths too."""


class SerialTransport:
    """Runs every epoch in the calling process.  Zero dependencies, zero
    overhead; the reference against which the other transports are pinned."""

    def __init__(self) -> None:
        self._evolver: PortMappingEvolver | None = None

    def start(self, evolver: PortMappingEvolver) -> None:
        self._evolver = evolver

    def advance(
        self, jobs: list[tuple[int, EvolutionState]], generations: int
    ) -> list[tuple[int, EvolutionState]]:
        assert self._evolver is not None, "start() was not called"
        return [(k, self._evolver.advance(state, generations)) for k, state in jobs]

    def close(self) -> None:
        self._evolver = None


# -- the socket transport -----------------------------------------------------


class _Lease:
    """One leased island: the job (``job_id``) that carried it, and when."""

    __slots__ = ("job_id", "island", "started")

    def __init__(self, job_id: int, island: int, started: float):
        self.job_id = job_id
        self.island = island
        self.started = started


class _RemoteWorker:
    """Coordinator-side bookkeeping for one connected worker.

    ``leases`` holds the islands the worker was sent this epoch and has not
    answered, lost races included; the epoch barrier clears them.
    """

    __slots__ = ("sock", "last_seen", "leases")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.last_seen = time.monotonic()
        self.leases: list[_Lease] = []


class SocketTransport:
    """TCP coordinator that leases epochs to ``repro-pmevo worker`` processes.

    Workers connect (possibly from other machines), complete a
    hello/version handshake, and receive the serialized inference problem
    once.  Each epoch the coordinator splits the pending islands into
    per-worker lease batches, streams per-island results back, requeues the
    islands of workers that died (socket error, malformed frame, or
    ``heartbeat_timeout`` seconds without a frame), and — once the pending
    queue is empty — re-leases the slowest outstanding islands to idle
    workers (*work stealing* after :data:`STEAL_DELAY`, at most
    :data:`MAX_ISLAND_LEASES` live leases per island; first result wins).
    Late joiners are accepted mid-run and start receiving leases at the
    next assignment opportunity.  If the last worker dies, the remaining
    islands of the epoch run in the coordinator process — see the module
    docstring for why no recovery path can change results.

    Parameters
    ----------
    host, port:
        Bind address; port 0 picks an ephemeral port (``address`` holds the
        actual one after :meth:`listen`).
    min_workers:
        How many workers :meth:`start` waits for before the first epoch
        (default: the ``local_workers`` it forks, at least one).
    heartbeat_timeout:
        Seconds of per-worker silence before its leases are given up on.
    start_timeout:
        Seconds :meth:`start` waits for ``min_workers`` connections.
    local_workers:
        Worker processes :meth:`start` forks onto the loopback interface
        (:func:`run_worker` against this coordinator) and :meth:`close`
        reaps; 0 leaves every worker to be started by hand.

    ``stats`` counts scheduling/recovery events (leases, steals, every
    discarded result as ``stale_results``, requeues, drops, local fallbacks,
    late joiners) for operator visibility; it is telemetry only and never
    feeds back into scheduling.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        min_workers: int | None = None,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        start_timeout: float = DEFAULT_START_TIMEOUT,
        local_workers: int = 0,
    ):
        if min_workers is None:
            min_workers = max(1, local_workers)
        if min_workers < 1:
            raise TransportError("socket transport needs at least one worker")
        if heartbeat_timeout <= 0 or start_timeout <= 0:
            raise TransportError("timeouts must be positive")
        self._bind = (host, port)
        self.min_workers = min_workers
        self.heartbeat_timeout = heartbeat_timeout
        self.start_timeout = start_timeout
        self.local_workers = local_workers
        self._children: list[multiprocessing.Process] = []
        self.address: tuple[str, int] | None = None
        self.stats: dict[str, int] = {
            "epochs": 0,
            "leases": 0,
            "batches": 0,
            "steals": 0,
            "stale_results": 0,
            "requeued": 0,
            "local_islands": 0,
            "workers_dropped": 0,
            "late_joiners": 0,
        }
        self._listener: socket.socket | None = None
        self._workers: dict[socket.socket, _RemoteWorker] = {}
        self._evolver: PortMappingEvolver | None = None
        self._setup_payload: dict | None = None
        self._next_job_id = 0
        self._started = False
        # Per-advance() context (None between epochs).
        self._pending: deque[int] | None = None
        self._payloads: dict[int, dict] | None = None
        self._results: dict[int, EvolutionState] | None = None

    # -- lifecycle ---------------------------------------------------------

    def listen(self) -> tuple[str, int]:
        """Open the listening socket (idempotent) and return its address.

        Split out from :meth:`start` so a CLI can print the ephemeral port
        for workers to connect to *before* the (potentially long)
        measurement phase that precedes the first epoch.
        """
        if self._listener is None:
            self._listener = socket.create_server(self._bind, backlog=16)
            self.address = self._listener.getsockname()[:2]
        return self.address

    def start(self, evolver: PortMappingEvolver) -> None:
        self._evolver = evolver
        self._setup_payload = {"type": "setup", "problem": problem_to_jsonable(evolver)}
        host, port = self.listen()
        # Fork every local worker before accepting any connection: a child
        # forked later would inherit the coordinator's end of its siblings'
        # connections, so closing one of them would not reach its worker.
        context = multiprocessing.get_context("fork")
        for _ in range(self.local_workers):
            child = context.Process(
                target=_local_worker, args=(self._listener, host, port), daemon=True
            )
            child.start()
            self._children.append(child)
        deadline = time.monotonic() + self.start_timeout
        while len(self._workers) < self.min_workers:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TransportError(
                    f"timed out after {self.start_timeout:.0f}s waiting for "
                    f"{self.min_workers} worker(s) on {self.address[0]}:{self.address[1]} "
                    f"({len(self._workers)} connected); start workers with "
                    f"`repro-pmevo worker --connect HOST:PORT`"
                )
            self._poll(min(remaining, 0.5))
        self._started = True

    def close(self) -> None:
        deadline = time.monotonic() + CLOSE_GRACE
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        for worker in list(self._workers.values()):
            try:
                send_frame(worker.sock, {"type": "shutdown"})
            except OSError:
                self._drop(worker)
        # Wait for every worker to hang up: one still sending a lost race's
        # result has it read and discarded, then reads its shutdown frame
        # (closing under that send would reset the connection instead).
        while self._workers and (remaining := deadline - time.monotonic()) > 0:
            self._poll(min(remaining, 0.2))
        for worker in list(self._workers.values()):
            worker.sock.close()
        self._workers.clear()
        # Local workers exit on their shutdown frame or on the closed
        # connection; one still computing a lost race is cut short.
        for child in self._children:
            child.join(max(0.0, deadline - time.monotonic()))
            if child.is_alive():
                child.terminate()
                child.join()
        self._children.clear()

    # -- worker management -------------------------------------------------

    def _accept_one(self) -> None:
        """Accept one pending connection and complete the handshake."""
        assert self._listener is not None
        try:
            sock, address = self._listener.accept()
        except OSError:
            return
        # The handshake runs on the coordinator's only thread: keep its
        # timeout short so a silent connection (port scanner, half-open
        # socket) cannot stall epoch collection for heartbeat_timeout.
        sock.settimeout(min(5.0, self.heartbeat_timeout))
        try:
            hello = recv_frame(sock)
            if (
                hello is None
                or hello.get("type") != "hello"
                or hello.get("protocol") != PROTOCOL_VERSION
            ):
                raise TransportError(f"bad handshake from {address}: {hello!r}")
            if self._setup_payload is not None:
                send_frame(sock, self._setup_payload)
        except (OSError, TransportError):
            sock.close()
            return
        sock.settimeout(self.heartbeat_timeout)
        self._workers[sock] = _RemoteWorker(sock)
        if self._started:
            self.stats["late_joiners"] += 1

    def _poll(self, timeout: float) -> None:
        """Handle what arrives within ``timeout`` seconds (a connection, a
        frame, a hang-up), then reap workers silent past ``heartbeat_timeout``."""
        sockets = list(self._workers)
        if self._listener is not None:
            sockets.append(self._listener)
        readable, _, _ = select.select(sockets, [], [], timeout)
        now = time.monotonic()
        for sock in readable:
            if sock is self._listener:
                self._accept_one()
                continue
            worker = self._workers.get(sock)
            if worker is None:
                continue
            try:
                frame = recv_frame(sock)
            except (OSError, TransportError):
                frame = None
            if frame is None:
                self._drop(worker)
                continue
            worker.last_seen = now
            if frame.get("type") == "result":
                self._take_result(worker, frame)
            # Anything else is a heartbeat (or junk we tolerate).
        for worker in list(self._workers.values()):
            if now - worker.last_seen > self.heartbeat_timeout:
                self._drop(worker)

    def _idle_workers(self) -> list[_RemoteWorker]:
        """Workers whose every leased island is already finished."""
        done = self._results
        return [w for w in self._workers.values() if all(l.island in done for l in w.leases)]

    def _drop(self, worker: _RemoteWorker) -> None:
        """Forget a dead worker, requeueing islands only it was computing."""
        self._workers.pop(worker.sock, None)
        worker.sock.close()
        # close() closes the listener first: a worker that hangs up after
        # that is answering its shutdown frame, not dying.
        if self._listener is not None:
            self.stats["workers_dropped"] += 1
        # Newest-first so appendleft restores the original queue order.
        # (Leases exist only inside advance(), where the queue does too.)
        for lease in reversed(worker.leases):
            island = lease.island
            if island in self._results or island in self._pending:
                continue
            if any(l.island == island for w in self._workers.values() for l in w.leases):
                continue  # a live steal still covers this island
            self._pending.appendleft(island)
            self.stats["requeued"] += 1

    def _assign(
        self, worker: _RemoteWorker, islands: list[int], generations: int
    ) -> bool:
        """Lease a batch of islands to ``worker``; False if it died sending.

        The leases are recorded BEFORE sending: if sendall raises (worker
        died between epochs), :meth:`_drop` finds them on the worker and
        requeues the islands — otherwise they would be lost and
        :meth:`advance` could never complete.
        """
        assert self._payloads is not None
        self._next_job_id += 1
        job_id = self._next_job_id
        now = time.monotonic()
        worker.leases.extend(_Lease(job_id, island, now) for island in islands)
        self.stats["leases"] += len(islands)
        self.stats["batches"] += 1
        try:
            send_frame(
                worker.sock,
                {
                    "type": "job",
                    "job_id": job_id,
                    "generations": generations,
                    "islands": [[island, self._payloads[island]] for island in islands],
                },
            )
        except OSError:
            self._drop(worker)
            return False
        return True

    def _lease_pending(self, generations: int) -> None:
        """Split the pending queue into batches over the idle workers."""
        assert self._pending is not None
        while self._pending and self._workers:
            idle = self._idle_workers()
            if not idle:
                return
            share = -(-len(self._pending) // len(idle))  # ceil division
            for worker in idle:
                if not self._pending:
                    return
                batch = [
                    self._pending.popleft()
                    for _ in range(min(share, len(self._pending)))
                ]
                if not self._assign(worker, batch, generations):
                    # The worker died sending: its islands are requeued and
                    # the idle snapshot is stale — recompute the split.
                    break

    def _steal(self, generations: int) -> None:
        """Re-lease the slowest outstanding islands to idle workers."""
        idle = self._idle_workers()
        if not idle:
            return
        live: dict[int, tuple[int, float]] = {}  # island -> (leases, oldest)
        for worker in self._workers.values():
            for lease in worker.leases:
                if lease.island in self._results:
                    continue
                count, oldest = live.get(lease.island, (0, lease.started))
                live[lease.island] = (count + 1, min(oldest, lease.started))
        now = time.monotonic()
        for worker in idle:
            candidates = [
                (count, oldest, island)
                for island, (count, oldest) in live.items()
                if count < MAX_ISLAND_LEASES and now - oldest >= STEAL_DELAY
            ]
            if not candidates:
                return
            count, oldest, island = min(candidates)
            if self._assign(worker, [island], generations):
                self.stats["steals"] += 1
                live[island] = (count + 1, oldest)

    def _take_result(self, worker: _RemoteWorker, frame: dict) -> None:
        """Accept one ``result`` frame, or discard it as stale.

        It is accepted only when it answers a lease its worker holds and no
        worker has finished that island yet.  Job ids never repeat within
        one coordinator and the epoch barrier clears every lease, so a
        result for a lease issued before the barrier matches none.
        """
        key = (frame.get("job_id"), frame.get("island"))
        lease = next((l for l in worker.leases if (l.job_id, l.island) == key), None)
        if lease is None or lease.island in self._results:
            # Never issued, issued before the barrier, or it lost a race.
            # Deterministic advancement makes a duplicate redundant, not
            # wrong — but an old epoch's state must not reach this barrier.
            if lease is not None:
                worker.leases.remove(lease)
            self.stats["stale_results"] += 1
            return
        try:
            state = EvolutionState.from_jsonable(frame["state"])
        except (KeyError, CheckpointError):
            # The lease is still on the worker, so _drop requeues its island.
            self._drop(worker)
            return
        worker.leases.remove(lease)
        self._results[lease.island] = state

    # -- the epoch ---------------------------------------------------------

    def advance(
        self, jobs: list[tuple[int, EvolutionState]], generations: int
    ) -> list[tuple[int, EvolutionState]]:
        assert self._evolver is not None, "start() was not called"
        self.stats["epochs"] += 1
        # States are serialized once up front; the payloads double as the
        # requeue/re-lease tickets when workers die or islands are stolen.
        self._payloads = {island: state.to_jsonable() for island, state in jobs}
        self._pending = deque(island for island, _ in jobs)
        self._results = {}
        try:
            while len(self._results) < len(jobs):
                # Lease pending islands to idle workers, in batches.
                self._lease_pending(generations)

                # Everyone is gone: check for a late joiner first, then
                # advance one pending island locally (deterministic — the
                # same advance() a worker would have computed) and look
                # again, so replacement workers are picked up between
                # islands instead of idling until the run ends.
                if not self._workers:
                    self._poll(0)
                    if not self._workers and self._pending:
                        island = self._pending.popleft()
                        state = EvolutionState.from_jsonable(self._payloads[island])
                        self._results[island] = self._evolver.advance(
                            state, generations
                        )
                        self.stats["local_islands"] += 1
                    continue

                # The queue is drained but the barrier is not met: steal the
                # slowest outstanding islands onto idle workers.
                if not self._pending:
                    self._steal(generations)
                self._poll(0.5)

            return [(island, self._results[island]) for island, _ in jobs]
        finally:
            # The epoch barrier: every lease ends here, so a result still on
            # its way (a race it lost) matches none and is discarded.
            for worker in self._workers.values():
                worker.leases.clear()
            self._payloads = None
            self._pending = None
            self._results = None


# -- the worker process --------------------------------------------------------


def backoff_delays(attempts: int, seed: int | None = None) -> Iterator[float]:
    """Yield ``attempts`` (re)connect delays: capped exponential, jittered.

    The delay doubles from :data:`RETRY_DELAY` up to :data:`BACKOFF_CAP`;
    each is scaled by a jitter factor in ``[0.5, 1.5)`` drawn from a tiny
    LCG seeded with ``seed`` (the process id by default), so the workers of
    one host fan out instead of hammering a restarting coordinator in
    lockstep — yet a fixed seed replays the exact schedule, which the chaos
    tests rely on.
    """
    state = ((os.getpid() if seed is None else seed) ^ 0x5DEECE66D) & 0x7FFFFFFF
    state = state or 1
    for attempt in range(attempts):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        jitter = 0.5 + state / 0x80000000
        yield min(BACKOFF_CAP, RETRY_DELAY * (1 << attempt)) * jitter


def _serve_connection(sock: socket.socket, heartbeat_interval: float) -> str:
    """Serve one coordinator connection until it ends.

    Returns ``"shutdown"`` on an orderly end of service (a ``shutdown``
    frame), ``"handshake"`` when the connection ended before a usable setup
    frame arrived, and ``"lost"`` when it died after the handshake or the
    coordinator spoke garbage — the caller decides whether to re-attach.
    Closes ``sock``.
    """
    send_lock = threading.Lock()
    stop = threading.Event()
    evolver = None

    def _heartbeat() -> None:
        while not stop.wait(heartbeat_interval):
            try:
                send_frame(sock, {"type": "heartbeat"}, lock=send_lock)
            except OSError:
                return

    try:
        send_frame(
            sock, {"type": "hello", "protocol": PROTOCOL_VERSION}, lock=send_lock
        )
        setup = recv_frame(sock)
        if setup is None or setup.get("type") != "setup":
            return "handshake"
        evolver = evolver_from_jsonable(setup["problem"])

        beater = threading.Thread(target=_heartbeat, daemon=True)
        beater.start()

        while True:
            message = recv_frame(sock)
            if message is None:
                return "lost"
            if message.get("type") == "shutdown":
                return "shutdown"
            if message.get("type") != "job":
                continue
            job_id = message["job_id"]
            generations = int(message["generations"])
            # One result frame per island, streamed as each finishes, so
            # the coordinator sees per-island completions (work stealing
            # keys off them) rather than one response per batch.
            for island, payload in message["islands"]:
                state = EvolutionState.from_jsonable(payload)
                advanced = evolver.advance(state, generations)
                send_frame(
                    sock,
                    {
                        "type": "result",
                        "job_id": job_id,
                        "island": int(island),
                        "state": advanced.to_jsonable(),
                    },
                    lock=send_lock,
                )
    except (OSError, ReproError, KeyError, TypeError, ValueError):
        # Connection died mid-frame, or this coordinator incarnation sent
        # something unusable (a job the evolver refuses included): treat both
        # as a lost connection and let the caller's reconnect loop decide if
        # the coordinator is really gone.
        return "handshake" if evolver is None else "lost"
    finally:
        stop.set()
        sock.close()


def run_worker(
    host: str,
    port: int,
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    max_reconnect_attempts: int = 10,
    reconnect_window: float = 60.0,
    jitter_seed: int | None = None,
    wrap_socket: Callable[[socket.socket], socket.socket] | None = None,
) -> int:
    """Serve epochs for a :class:`SocketTransport` coordinator; returns an
    exit code.

    Connects (with capped exponential backoff + deterministic jitter while
    the coordinator's listener comes up — see :func:`backoff_delays`; the
    schedule starts at :data:`RETRY_DELAY` and runs :data:`CONNECT_ATTEMPTS`
    attempts), performs the hello/version handshake, rebuilds the evolver
    from the setup frame, then loops: receive a leased island batch,
    advance each island, stream the results back.  A daemon thread emits
    heartbeats every ``heartbeat_interval`` seconds per connection, so the
    coordinator can tell a slow epoch from a dead worker.  The worker waits
    for the setup frame as long as the coordinator takes to send it (a
    coordinator measures its experiments after its listener opens).

    Once its first connection ends, the worker re-attaches within a
    *reconnect budget*: up to ``max_reconnect_attempts`` backoff attempts
    within ``reconnect_window`` seconds, each re-performing the handshake
    against whatever coordinator incarnation answers (a restarted
    ``infer --resume`` on the same address included).  A refused connect
    and a connection that ends before its handshake completes each spend
    one attempt and wait its backoff delay; a connection lost after its
    handshake — coordinator crash, dropped lease after a stall, network
    blip — starts a fresh budget.  Any in-flight lease is discarded — the
    new incarnation re-leases it, and a stray result matches no lease.

    The worker exits 0 on an explicit ``shutdown`` frame, or once the
    budget runs out after it has served (the coordinator is confirmed
    gone).  It raises :class:`TransportError` when the initial connect
    fails, or when the budget runs out before any handshake completed:
    there was never a coordinator to outlive.

    ``jitter_seed`` pins the backoff schedule (tests); ``wrap_socket``
    lets a test interpose a socket proxy on each connection (the
    fault-injection harness's ``FaultySocket``, in ``tests/faults.py``).
    """

    def budget() -> tuple[deque[float], float]:
        delays = backoff_delays(max_reconnect_attempts, seed=jitter_seed)
        return deque(delays), time.monotonic() + reconnect_window

    # One delay per attempt, drawn when it starts and waited when it fails.
    delays = deque(backoff_delays(CONNECT_ATTEMPTS, seed=jitter_seed))
    deadline = math.inf
    attached = served = False
    failure: object = None
    while delays:
        delay = delays.popleft()
        try:
            sock = socket.create_connection((host, port), timeout=30.0)
        except OSError as exc:
            failure = exc
        else:
            sock.settimeout(None)
            if wrap_socket is not None:
                sock = wrap_socket(sock)
            outcome = _serve_connection(sock, heartbeat_interval)
            if outcome == "shutdown":
                return 0
            if outcome == "lost" or not attached:
                # The budget opens when the first connection ends, however
                # long it waited for its setup, and again after each one
                # that completed its handshake.
                delays, deadline = budget()
            attached = True
            if outcome == "lost":
                served = True
                continue  # re-attach at once
            failure = "it sent no usable setup frame"
        if not delays:
            break
        pause = min(delay, deadline - time.monotonic())
        if pause < 0:
            break
        time.sleep(pause)
    if served:
        # The coordinator is confirmed gone (unreachable for the whole
        # reconnect budget): an orderly end of service, not a worker failure.
        return 0
    if not attached:
        raise TransportError(f"could not connect to coordinator at {host}:{port}: {failure}")
    raise TransportError(f"no handshake with a coordinator at {host}:{port}: {failure}")


def _openblas_function(name: str, restype, argtypes: list):
    """A function of the OpenBLAS bundled with numpy's wheels, declared with
    ``restype`` and ``argtypes``, or ``None`` when there is no such library
    or symbol (another numpy build)."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            function = getattr(ctypes.CDLL(path), name)
        except (OSError, AttributeError):
            continue
        function.restype, function.argtypes = restype, argtypes
        return function
    return None


def _local_worker(listener: socket.socket, host: str, port: int) -> None:
    """Body of a worker that :class:`SocketTransport` forked for itself.

    It closes its copy of the coordinator's listener, so a dead
    coordinator's port refuses connections instead of queueing them.  It
    leaves Ctrl-C to the coordinator, whose ``close()`` shuts it down, and
    it serves only that coordinator: once the connection ends, it exits.
    It runs one BLAS thread: forked workers would otherwise each inherit
    the coordinator's thread count and oversubscribe the cores between
    them.  The fitness kernel is exact, so no result depends on it.
    """
    import ctypes
    import signal

    listener.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    set_threads = _openblas_function(
        "scipy_openblas_set_num_threads64_", None, [ctypes.c_int]
    )
    if set_threads is not None:
        set_threads(1)
    # A coordinator that went away before the handshake has no use for an
    # error from this worker.
    with contextlib.suppress(TransportError):
        run_worker(host, port, max_reconnect_attempts=0)
