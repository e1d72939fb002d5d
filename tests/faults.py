"""Deterministic fault injection for the distributed transport layer.

The recovery guarantees of :mod:`repro.pmevo.transport` — requeued leases,
work stealing, worker reconnects, coordinator resume — are only worth
trusting if something adversarial exercises them on purpose.  This module is
that something: in-process wrappers that misbehave at *scripted* points, so
chaos tests are reproducible instead of sleep-and-hope.

Two layers:

:class:`FaultySocket`
    Wraps a connected socket and injects a fault at the *n*-th outgoing
    frame: close the connection instead of sending (``drop_at``), send a
    truncated frame and then close (``truncate_at``), flip a payload byte so
    the frame arrives undecodable (``corrupt_at``), or sleep before
    forwarding (``delay`` / ``delay_results`` — the knob that simulates a
    slow worker for work-stealing tests).  Frame indices count calls to
    :meth:`FaultySocket.sendall`, which is one per protocol frame.  Pass it
    as ``run_worker(..., wrap_socket=...)`` or wrap a manually driven
    connection.

:class:`FaultyTransport`
    Wraps any :class:`~repro.pmevo.transport.MigrationTransport` and raises
    :class:`InjectedFault` before or after a scripted
    epoch — the in-process analogue of SIGKILLing the coordinator between
    epoch barriers, used to drive checkpoint/resume recovery tests without
    subprocesses.

Everything here raises/propagates :class:`InjectedFault` for scripted
failures so tests can distinguish an injected crash from a genuine bug.
``tools/chaos.py`` is the subprocess counterpart that kills real processes
with real SIGKILL; ``tests/test_chaos.py`` uses both.
"""

from __future__ import annotations

import time
from typing import Any

from repro.core.errors import ReproError
from repro.pmevo.evolution import EvolutionState, PortMappingEvolver
from repro.pmevo.transport import MigrationTransport

__all__ = ["InjectedFault", "FaultySocket", "FaultyTransport"]


class InjectedFault(ReproError, ConnectionError):
    """Raised by this harness, never by the package.

    :class:`FaultyTransport` and :class:`FaultySocket` raise it at scripted
    points to simulate crashes, so chaos tests can tell an injected failure
    from a genuine bug (a genuine bug raises anything *but* this).

    Also a :class:`ConnectionError` (hence :class:`OSError`) on purpose:
    an injected connection drop then takes exactly the code path a real
    dead socket would — the recovery logic under test cannot tell the
    difference — while scripted crashes that nothing is supposed to catch
    (e.g. :class:`FaultyTransport` killing a coordinator) still surface
    under their own type.
    """


#: Byte needle identifying result frames (json.dumps uses ", "/": "
#: separators, so serialized frames contain exactly this substring).
_RESULT_NEEDLE = b'"type": "result"'


class FaultySocket:
    """A socket proxy that injects one scripted fault at a frame boundary.

    Only the methods the framing layer uses (``sendall``, ``recv``,
    ``close``, ``settimeout``) are interposed; everything else delegates to
    the wrapped socket.  Frame indices are 0-based over *outgoing* frames.

    Parameters
    ----------
    sock:
        The connected socket to wrap.
    drop_at:
        Close the connection instead of sending frame ``drop_at`` (a worker
        dying mid-lease, from the coordinator's point of view).
    truncate_at:
        Send only half of frame ``truncate_at`` and then close (a crash
        mid-``sendall``; the receiver sees "connection closed mid-frame").
    corrupt_at:
        XOR one payload byte of frame ``corrupt_at`` (the length prefix
        stays intact, so the receiver reads a full frame and fails to
        decode it).
    delay:
        Seconds to sleep before forwarding every frame from ``delay_from``
        on (a slow or congested link).
    delay_results:
        Like ``delay`` but only for ``result`` frames — a worker that
        computes promptly but delivers slowly, the shape that makes work
        stealing win races deterministically in tests.
    """

    def __init__(
        self,
        sock,
        *,
        drop_at: int | None = None,
        truncate_at: int | None = None,
        corrupt_at: int | None = None,
        delay: float = 0.0,
        delay_from: int = 0,
        delay_results: float = 0.0,
    ):
        self._sock = sock
        self._sent = 0
        self._drop_at = drop_at
        self._truncate_at = truncate_at
        self._corrupt_at = corrupt_at
        self._delay = delay
        self._delay_from = delay_from
        self._delay_results = delay_results

    # -- the interposed surface -------------------------------------------

    def sendall(self, data: bytes) -> None:
        index = self._sent
        self._sent += 1
        if self._drop_at is not None and index >= self._drop_at:
            self._sock.close()
            raise InjectedFault(f"dropped connection at frame {index}")
        if self._truncate_at is not None and index >= self._truncate_at:
            self._sock.sendall(data[: max(1, len(data) // 2)])
            self._sock.close()
            raise InjectedFault(f"truncated frame {index}")
        if self._corrupt_at is not None and index == self._corrupt_at:
            payload = bytearray(data)
            # Flip a byte beyond the 4-byte length prefix, so the receiver
            # reads the full frame and chokes on the JSON, not the framing.
            payload[4 + (len(payload) - 4) // 2] ^= 0xFF
            data = bytes(payload)
        if self._delay and index >= self._delay_from:
            time.sleep(self._delay)
        if self._delay_results and _RESULT_NEEDLE in data:
            time.sleep(self._delay_results)
        self._sock.sendall(data)

    def recv(self, count: int) -> bytes:
        return self._sock.recv(count)

    def close(self) -> None:
        self._sock.close()

    def settimeout(self, value) -> None:
        self._sock.settimeout(value)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._sock, name)


class FaultyTransport:
    """Wrap a transport and crash at a scripted epoch.

    Counts :meth:`advance` calls; raises
    :class:`InjectedFault` *before* delegating at epoch
    ``fail_before_epoch`` (the coordinator dies with the epoch's work lost —
    it must be replayed from the last snapshot) or *after* delegating at
    epoch ``fail_after_epoch`` (the coordinator dies between the epoch's
    completion and its checkpoint — the sharpest spot, because the epoch's
    results exist but were never journaled).  Epochs are 1-based.

    Delegates ``start``/``close`` untouched, so it composes with any
    transport — including :class:`~repro.pmevo.transport.SocketTransport`,
    whose workers then also experience the coordinator vanishing.
    """

    def __init__(
        self,
        inner: MigrationTransport,
        fail_before_epoch: int | None = None,
        fail_after_epoch: int | None = None,
    ):
        self.inner = inner
        self.fail_before_epoch = fail_before_epoch
        self.fail_after_epoch = fail_after_epoch
        self.epochs = 0

    def start(self, evolver: PortMappingEvolver) -> None:
        self.inner.start(evolver)

    def advance(
        self, jobs: list[tuple[int, EvolutionState]], generations: int
    ) -> list[tuple[int, EvolutionState]]:
        self.epochs += 1
        if self.fail_before_epoch == self.epochs:
            raise InjectedFault(f"injected crash before epoch {self.epochs}")
        advanced = self.inner.advance(jobs, generations)
        if self.fail_after_epoch == self.epochs:
            raise InjectedFault(f"injected crash after epoch {self.epochs}")
        return advanced

    def close(self) -> None:
        self.inner.close()
