"""Closed-loop HTTP load for serve-zipf.

Each keep-alive connection sends its next ``POST /v1/predict`` only once
the previous reply has arrived, as compilers and analyzers querying a
throughput model do.  Bodies are joined from sequences JSON-encoded during
set-up, and replies are kept as raw bytes and parsed after timing, so the
client spends a few microseconds of CPU per request.
"""

from __future__ import annotations

import selectors
import socket
import time

_HEAD = (
    b"POST /v1/predict HTTP/1.1\r\nHost: perfbench\r\n"
    b"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n"
)


def _split_reply(buffer: bytes) -> tuple[int, bytes] | None:
    """(status, body) once ``buffer`` holds one whole response, else None."""
    end = buffer.find(b"\r\n\r\n")
    if end < 0:
        return None
    lines = buffer[:end].split(b"\r\n")
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    if len(buffer) < end + 4 + length:
        return None
    return int(lines[0].split()[1]), buffer[end + 4 : end + 4 + length]


class ClosedLoop:
    """``connections`` keep-alive sockets to one server, driven from one thread.

    ``body_of(i)`` returns the JSON body of request ``i``.
    """

    def __init__(self, host: str, port: int, body_of, connections: int):
        self.body_of = body_of
        self.sockets = [socket.create_connection((host, port)) for _ in range(connections)]
        for sock in self.sockets:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def run(self, first: int, *, count: int | None = None, seconds: float | None = None):
        """Send requests ``first``, ``first + 1``, ... until ``count`` are sent
        or ``seconds`` have passed, then wait for the replies in flight.

        Returns ``(request, sent, done, status, body)`` per reply, with
        ``time.perf_counter`` timestamps.
        """
        deadline = time.perf_counter() + seconds if seconds is not None else None
        issued = 0
        pending: dict[socket.socket, list] = {}
        replies = []

        def more(now: float) -> bool:
            if count is not None:
                return issued < count
            return now < deadline

        def issue(sock: socket.socket) -> None:
            nonlocal issued
            request = first + issued
            issued += 1
            body = self.body_of(request)
            pending[sock] = [request, time.perf_counter(), b""]
            sock.sendall(_HEAD % len(body) + body)

        with selectors.DefaultSelector() as selector:
            for sock in self.sockets:
                selector.register(sock, selectors.EVENT_READ)
                if more(time.perf_counter()):
                    issue(sock)
            while pending:
                ready = selector.select(timeout=30.0)
                if not ready:
                    raise TimeoutError("no reply from the server within 30 s")
                for key, _ in ready:
                    sock = key.fileobj
                    if sock not in pending:
                        selector.unregister(sock)
                        continue
                    chunk = sock.recv(1 << 16)
                    if not chunk:
                        raise ConnectionError("the server closed a keep-alive connection")
                    state = pending[sock]
                    state[2] += chunk
                    reply = _split_reply(state[2])
                    if reply is None:
                        continue
                    done = time.perf_counter()
                    replies.append((state[0], state[1], done, *reply))
                    del pending[sock]
                    if more(done):
                        issue(sock)
        return replies

    def close(self) -> None:
        for sock in self.sockets:
            sock.close()
