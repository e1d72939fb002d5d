"""End-to-end drills of ``repro-pmevo serve`` as a real subprocess.

These spawn the actual CLI on an ephemeral port (``--bind :0``), parse the
``serving on HOST:PORT`` startup line, hit it with concurrent HTTP clients,
and exercise the graceful-shutdown contract: SIGTERM stops accepting but
drains requests already in flight — including one whose body is still
arriving — before the process exits 0.

Marked ``serving``: CI runs them in their own job under pytest-timeout so a
wedged server cannot hang the suite; they also pass in the plain tier.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core import Experiment, PortSpace, ThreeLevelMapping
from repro.throughput import FixedMappingEvaluator

pytestmark = pytest.mark.serving

REPO_ROOT = Path(__file__).resolve().parent.parent

_SERVING_LINE = re.compile(r"^serving on (?P<host>[^\s:]+):(?P<port>\d+)$")


def _mapping() -> ThreeLevelMapping:
    return ThreeLevelMapping(
        PortSpace.numbered(3),
        {"add": {0b001: 1}, "mul": {0b110: 2}, "ld": {0b011: 1}, "st": {0b100: 2}},
    )


class ServeProcess:
    """A ``repro-pmevo serve`` subprocess with line-buffered stdout capture."""

    def __init__(self, mapping_path: Path, *extra: str, bind: str = "127.0.0.1:0"):
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--mapping",
                str(mapping_path),
                "--bind",
                bind,
                *extra,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        self.lines: list[str] = []
        self._queue: "queue.Queue[str | None]" = queue.Queue()
        self._reader = threading.Thread(
            target=self._pump, args=(self.proc.stdout,), daemon=True
        )
        self._reader.start()
        self.host, self.port = self._await_serving_line()

    def _pump(self, stream) -> None:
        for line in stream:
            self._queue.put(line.rstrip("\n"))
        self._queue.put(None)

    def _await_serving_line(self, timeout: float = 30.0) -> tuple[str, int]:
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.kill()
                raise AssertionError(
                    f"server never printed its bind line; stdout so far: {self.lines}"
                )
            try:
                line = self._queue.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                stderr = self.proc.stderr.read()
                self.kill()
                raise AssertionError(
                    f"server exited before binding; stdout: {self.lines}; stderr: {stderr}"
                )
            self.lines.append(line)
            match = _SERVING_LINE.match(line)
            if match:
                return match.group("host"), int(match.group("port"))

    def drain_stdout(self) -> list[str]:
        """Collect whatever stdout the reader thread has seen so far."""
        while True:
            try:
                line = self._queue.get_nowait()
            except queue.Empty:
                break
            if line is None:
                break
            self.lines.append(line)
        return self.lines

    def terminate_and_wait(self, timeout: float = 20.0) -> int:
        self.proc.send_signal(signal.SIGTERM)
        code = self.proc.wait(timeout=timeout)
        self._close_pipes()
        return code

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10)
        self._close_pipes()

    def _close_pipes(self) -> None:
        """Once the process has exited: let the reader reach EOF, keep its
        lines, and close both pipes."""
        self._reader.join(timeout=5)
        self.drain_stdout()
        self.proc.stdout.close()
        self.proc.stderr.close()


@pytest.fixture
def served(tmp_path):
    path = tmp_path / "toy.json"
    path.write_text(_mapping().to_json())
    server = ServeProcess(path, "--grace", "10")
    yield server
    server.kill()


def _request(host: str, port: int, method: str, path: str, payload=None):
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestServeEndToEnd:
    def test_ephemeral_bind_colon_zero_spelling(self, tmp_path):
        # `--bind :0`: empty host means loopback, port 0 is kernel-assigned,
        # and the printed line is the only way to learn the port — parse it.
        path = tmp_path / "toy.json"
        path.write_text(_mapping().to_json())
        server = ServeProcess(path, bind=":0")
        try:
            assert server.host == "127.0.0.1"
            assert 0 < server.port <= 65535
            status, body = _request(server.host, server.port, "GET", "/healthz")
            assert status == 200
            assert body == {"status": "ok", "mappings": ["toy"], "draining": False}
        finally:
            assert server.terminate_and_wait() == 0

    def test_startup_describes_each_mapping(self, served):
        banner = "\n".join(served.lines)
        assert "mapping 'toy'" in banner
        assert "4 instructions" in banner and "3 ports" in banner

    def test_concurrent_clients_get_exact_predictions(self, served):
        mapping = _mapping()
        evaluator = FixedMappingEvaluator(mapping)
        pool = [
            {"add": 1},
            {"mul": 2},
            {"add": 2, "ld": 1},
            {"st": 3, "mul": 1},
            {"add": 1, "mul": 1, "ld": 1, "st": 1},
        ]
        expected = {
            json.dumps(seq, sort_keys=True): evaluator.throughput(Experiment(seq))
            for seq in pool
        }
        failures: list[str] = []

        def client(worker: int) -> None:
            for round_ in range(6):
                batch = pool[(worker + round_) % len(pool) :] or pool
                status, body = _request(
                    served.host, served.port, "POST", "/v1/predict",
                    {"sequences": batch},
                )
                if status != 200:
                    failures.append(f"worker {worker}: status {status}: {body}")
                    return
                for seq, got in zip(batch, body["throughputs"]):
                    want = expected[json.dumps(seq, sort_keys=True)]
                    if got != want:
                        failures.append(
                            f"worker {worker}: {seq} -> {got!r}, expected {want!r}"
                        )

        threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not failures, failures

        status, stats = _request(served.host, served.port, "GET", "/v1/stats")
        assert status == 200
        assert stats["requests"]["predict"] == 48
        assert stats["cache"]["hits"] > 0
        assert stats["latency"]["count"] == 48
        assert server_exit_ok(served)

    def test_sigterm_drains_request_with_body_still_arriving(self, served):
        # The sharpest drain case: SIGTERM lands while a request's body is
        # mid-flight.  The server must stop accepting, *wait* for this
        # request, answer it, and only then exit 0.
        payload = json.dumps({"sequences": [["add", "mul"]]}).encode()
        head = (
            b"POST /v1/predict HTTP/1.1\r\n"
            b"Content-Length: %d\r\n\r\n" % len(payload)
        )
        split = len(payload) // 2
        with socket.create_connection((served.host, served.port), timeout=15) as sock:
            sock.sendall(head + payload[:split])
            time.sleep(0.5)  # let the server park in the body read
            served.proc.send_signal(signal.SIGTERM)
            time.sleep(0.5)  # let the drain path start waiting on us

            # New connections are refused once draining has closed the
            # listener, while our in-flight request keeps its socket.
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                try:
                    probe = socket.create_connection(
                        (served.host, served.port), timeout=1
                    )
                    probe.close()
                    time.sleep(0.1)
                except OSError:
                    break
            else:
                pytest.fail("listener still accepting long after SIGTERM")

            sock.sendall(payload[split:])
            response = b""
            while b"\r\n\r\n" not in response:
                chunk = sock.recv(4096)
                assert chunk, f"connection closed before a response: {response!r}"
                response += chunk
            head_text, _, rest = response.partition(b"\r\n\r\n")
            assert head_text.startswith(b"HTTP/1.1 200")
            length = int(
                re.search(rb"content-length:\s*(\d+)", head_text, re.I).group(1)
            )
            while len(rest) < length:
                rest += sock.recv(4096)
            body = json.loads(rest[:length])
            assert body["throughputs"] == [
                FixedMappingEvaluator(_mapping()).throughput(
                    Experiment({"add": 1, "mul": 1})
                )
            ]

        assert served.proc.wait(timeout=20) == 0
        served.drain_stdout()
        assert "serving: shutdown requested, draining" in served.lines
        assert "serving: drained, bye" in served.lines

    def test_sigterm_on_idle_server_exits_promptly(self, served):
        status, _ = _request(served.host, served.port, "GET", "/healthz")
        assert status == 200
        start = time.monotonic()
        assert served.terminate_and_wait() == 0
        assert time.monotonic() - start < 10, "idle shutdown must not eat the grace period"
        assert "serving: drained, bye" in served.lines


def server_exit_ok(server: ServeProcess) -> bool:
    return server.terminate_and_wait() == 0
