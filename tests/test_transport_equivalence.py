"""Cross-transport equivalence of the island migration transports.

The island model is only trustworthy if *where* an epoch runs cannot change
*what* it computes: the in-process transport, a loopback socket coordinator
that forks two local workers (``SocketTransport(local_workers=2)``), a socket
coordinator with hand-started workers — and a run that was killed at a
checkpoint and resumed — must all produce byte-identical serialized
:class:`EvolutionResult`\\ s for a fixed seed.  This is the transport
analogue of ``tests/test_backend_equivalence.py``, which pins the throughput
backends against each other.

Results are normalized before comparison by zeroing ``wall_seconds``, the
one field that may legitimately differ between equivalent runs.
"""

from __future__ import annotations

import ctypes
import dataclasses
import json
import multiprocessing
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from planted_truth import measurements_from_truth as _measurements_from_truth
from repro.core import PortSpace, TransportError
from repro.pmevo import (
    Checkpointer,
    EvolutionConfig,
    PortMappingEvolver,
    SerialTransport,
    SocketTransport,
    load_checkpoint,
    run_worker,
)
from repro.pmevo import transport
from repro.pmevo.transport import (
    PROTOCOL_VERSION,
    parse_address,
    recv_frame,
    send_frame,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Keep threaded workers from spending tens of seconds in the reconnect
#: backoff if a shutdown frame is ever lost — tests must fail fast, not hang.
FAST_RECONNECT = dict(max_reconnect_attempts=2, reconnect_window=2.0, jitter_seed=1)


CONFIG = EvolutionConfig(
    population_size=16,
    max_generations=16,
    seed=7,
    islands=3,
    migration_interval=4,
    migration_size=1,
)


def _evolver():
    truth = {"ad": {0b011: 1}, "mu": {0b100: 2}, "st": {0b011: 1, 0b100: 1}}
    names = ("ad", "mu", "st")
    measured, singles = _measurements_from_truth(truth, names, 3)
    return PortMappingEvolver(PortSpace.numbered(3), measured, singles, CONFIG)


def _normalized(result) -> str:
    """Serialized result with its timing zeroed."""
    return dataclasses.replace(result, wall_seconds=0.0).to_json()


@pytest.fixture(scope="module")
def serial_result():
    return _evolver().run(transport=SerialTransport())


class TestTransportEquivalence:
    def test_forked_workers_match_serial(self, serial_result):
        forked = _evolver().run(transport=SocketTransport(local_workers=2))
        assert _normalized(forked) == _normalized(serial_result)

    def test_socket_matches_serial(self, serial_result):
        transport = SocketTransport(min_workers=2, heartbeat_timeout=15.0)
        host, port = transport.listen()
        threads = [
            threading.Thread(
                target=run_worker, args=(host, port), kwargs=FAST_RECONNECT, daemon=True
            )
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        result = _evolver().run(transport=transport)
        for thread in threads:
            thread.join(timeout=15)
            assert not thread.is_alive()
        assert _normalized(result) == _normalized(serial_result)
        assert result.transport_stats["epochs"] > 0
        assert result.transport_stats["leases"] >= result.transport_stats["epochs"]

    def test_socket_single_island_batches_matches_serial(self, serial_result):
        # One worker per island makes the even split lease one island per
        # job frame: the finest-grained leasing path (maximum requeue/steal
        # surface) — still byte-identical.
        transport = SocketTransport(min_workers=3, heartbeat_timeout=15.0)
        host, port = transport.listen()
        threads = [
            threading.Thread(
                target=run_worker, args=(host, port), kwargs=FAST_RECONNECT, daemon=True
            )
            for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        result = _evolver().run(transport=transport)
        for thread in threads:
            thread.join(timeout=15)
        # One-island batches mean at least one lease per island per epoch.
        assert result.transport_stats["leases"] >= 3 * result.transport_stats["epochs"]
        assert _normalized(result) == _normalized(serial_result)

    def test_auto_transport_matches_explicit_serial(self, serial_result):
        # Without a transport, run() runs every epoch in-process.
        assert _normalized(_evolver().run()) == _normalized(serial_result)


class TestSingleIslandParity:
    """Opting into a transport must not change results.

    A one-island run given a transport must reproduce the plain sequential
    run bit-for-bit, or adding ``--bind`` to a command would silently
    change the inferred mapping.
    """

    def test_pipeline_with_transport_matches_plain_run(self, quiet_toy_machine):
        from repro.pmevo import PMEvoConfig, infer_port_mapping

        config = PMEvoConfig(
            evolution=EvolutionConfig(
                population_size=20, max_generations=10, seed=0
            )
        )
        plain = infer_port_mapping(quiet_toy_machine, config=config)
        forced = infer_port_mapping(
            quiet_toy_machine, config=config, transport=SerialTransport()
        )
        assert forced.mapping == plain.mapping
        assert forced.evolution.davg == plain.evolution.davg
        assert forced.evolution.history == plain.evolution.history


class TestSocketFaultTolerance:
    @staticmethod
    def _bad_worker(host, port):
        """Connects, leases one epoch, and dies without answering."""
        import socket as socket_module

        sock = socket_module.create_connection((host, port), timeout=15)
        try:
            send_frame(sock, {"type": "hello", "protocol": PROTOCOL_VERSION})
            setup = recv_frame(sock)
            assert setup["type"] == "setup"
            job = recv_frame(sock)
            assert job["type"] == "job"
        finally:
            sock.close()

    def test_dead_worker_epoch_is_reassigned(self, serial_result):
        # One worker takes a lease and vanishes; a healthy worker picks up
        # the reassigned epoch and the result is unchanged.
        transport = SocketTransport(min_workers=2, heartbeat_timeout=15.0)
        host, port = transport.listen()
        bad = threading.Thread(target=self._bad_worker, args=(host, port), daemon=True)
        good = threading.Thread(
            target=run_worker, args=(host, port), kwargs=FAST_RECONNECT, daemon=True
        )
        bad.start()
        good.start()
        result = _evolver().run(transport=transport)
        bad.join(timeout=15)
        good.join(timeout=15)
        assert _normalized(result) == _normalized(serial_result)

    def test_all_workers_dead_falls_back_to_local(self, serial_result):
        # The lone worker dies mid-lease; the coordinator finishes every
        # epoch in-process rather than stalling, with identical results.
        transport = SocketTransport(min_workers=1, heartbeat_timeout=15.0)
        host, port = transport.listen()
        bad = threading.Thread(target=self._bad_worker, args=(host, port), daemon=True)
        bad.start()
        result = _evolver().run(transport=transport)
        bad.join(timeout=15)
        assert _normalized(result) == _normalized(serial_result)

    def test_worker_rst_after_setup_does_not_lose_lease(self, serial_result):
        # A worker that resets the connection right after setup can make
        # the coordinator's job send() itself fail; the lease must be
        # requeued (not lost) and the run must still complete identically.
        import socket as socket_module
        import struct as struct_module

        transport = SocketTransport(min_workers=1, heartbeat_timeout=15.0)
        host, port = transport.listen()

        def rst_worker():
            sock = socket_module.create_connection((host, port), timeout=15)
            send_frame(sock, {"type": "hello", "protocol": PROTOCOL_VERSION})
            recv_frame(sock)  # setup
            sock.setsockopt(
                socket_module.SOL_SOCKET,
                socket_module.SO_LINGER,
                struct_module.pack("ii", 1, 0),
            )
            sock.close()  # RST instead of FIN

        thread = threading.Thread(target=rst_worker, daemon=True)
        thread.start()
        result = _evolver().run(transport=transport)
        thread.join(timeout=15)
        assert _normalized(result) == _normalized(serial_result)

    def test_worker_exits_cleanly_when_coordinator_vanishes(self):
        # A coordinator that drops a worker mid-service (reassigned lease,
        # crash) must not crash the worker: run_worker returns 0.
        import socket as socket_module

        from repro.pmevo.transport import problem_to_jsonable

        problem = problem_to_jsonable(_evolver())
        listener = socket_module.create_server(("127.0.0.1", 0))
        host, port = listener.getsockname()[:2]

        def fake_coordinator():
            sock, _ = listener.accept()
            recv_frame(sock)  # hello
            send_frame(sock, {"type": "setup", "problem": problem})
            state = _evolver().init_state().to_jsonable()
            frame = {
                "type": "job",
                "job_id": 1,
                "generations": 2,
                "islands": [[0, state]],
            }
            send_frame(sock, frame)
            sock.close()  # vanish before the result arrives
            listener.close()

        thread = threading.Thread(target=fake_coordinator, daemon=True)
        thread.start()
        # With the listener closed, every reconnect attempt is refused; the
        # worker must conclude the coordinator is gone and exit 0 — within
        # the (deliberately small) reconnect budget, not the default minute.
        assert (
            run_worker(host, port, heartbeat_interval=0.2, **FAST_RECONNECT) == 0
        )
        thread.join(timeout=15)

    def test_start_times_out_without_workers(self):
        transport = SocketTransport(min_workers=1, start_timeout=0.2)
        with pytest.raises(TransportError, match="waiting for 1 worker"):
            _evolver().run(transport=transport)

    def test_parse_address(self):
        assert parse_address("127.0.0.1:8080") == ("127.0.0.1", 8080)
        assert parse_address(":8123") == ("127.0.0.1", 8123)
        with pytest.raises(TransportError):
            parse_address("no-port")
        with pytest.raises(TransportError):
            parse_address("host:99999")


class TestResumeEquivalence:
    class _KillAfter(Checkpointer):
        """Checkpointer that kills the run right after its Nth snapshot —
        the closest in-process analogue of SIGKILL at an epoch barrier."""

        def __init__(self, path, kill_after: int):
            super().__init__(path, interval=1)
            self.kill_after = kill_after

        def after_epoch(self, snapshot):
            saved = super().after_epoch(snapshot)
            if self.saves >= self.kill_after:
                raise KeyboardInterrupt
            return saved

    @pytest.mark.parametrize("kill_after", [1, 2])
    def test_killed_and_resumed_equals_uninterrupted(
        self, tmp_path, serial_result, kill_after
    ):
        path = tmp_path / "snapshot.json"
        with pytest.raises(KeyboardInterrupt):
            _evolver().run(checkpointer=self._KillAfter(path, kill_after))
        snapshot = load_checkpoint(path)
        assert snapshot.epochs == kill_after
        resumed = _evolver().run(resume=snapshot)
        assert _normalized(resumed) == _normalized(serial_result)

    def test_resume_across_transports(self, tmp_path, serial_result):
        # Checkpoint under the serial transport, resume on forked local
        # workers: the snapshot is transport-agnostic.
        path = tmp_path / "snapshot.json"
        with pytest.raises(KeyboardInterrupt):
            _evolver().run(checkpointer=self._KillAfter(path, 1))
        resumed = _evolver().run(
            transport=SocketTransport(local_workers=2), resume=load_checkpoint(path)
        )
        assert _normalized(resumed) == _normalized(serial_result)

    def test_resuming_a_finished_run_waits_for_no_worker(self, tmp_path, serial_result):
        # A coordinator killed after the last barrier resumes to the result
        # at once: no island has work, so no worker is awaited.
        path = tmp_path / "snapshot.json"
        _evolver().run(checkpointer=Checkpointer(path))
        coordinator = SocketTransport(min_workers=2, start_timeout=1.0)
        resumed = _evolver().run(transport=coordinator, resume=load_checkpoint(path))
        assert _normalized(resumed) == _normalized(serial_result)


class TestForkedWorkers:
    def test_no_process_left_behind(self, tmp_path):
        # The forked workers are reaped on a normal return and when the
        # run is interrupted at an epoch barrier.
        result = _evolver().run(transport=SocketTransport(local_workers=2))
        assert result.transport_stats["leases"] > 0
        assert multiprocessing.active_children() == []
        kill = TestResumeEquivalence._KillAfter(tmp_path / "snapshot.json", 1)
        with pytest.raises(KeyboardInterrupt):
            _evolver().run(transport=SocketTransport(local_workers=2), checkpointer=kill)
        assert multiprocessing.active_children() == []


    def test_forked_worker_runs_one_blas_thread(self, monkeypatch):
        get_threads = transport._openblas_function(
            "scipy_openblas_get_num_threads64_", ctypes.c_int, []
        )
        if get_threads is None:
            pytest.skip("this numpy does not bundle scipy-openblas")
        context = multiprocessing.get_context("fork")
        reader, writer = context.Pipe(duplex=False)
        # The forked child inherits the patch: it reports its thread count
        # where it would start serving.
        monkeypatch.setattr(
            transport, "run_worker", lambda *args, **kwargs: writer.send(get_threads())
        )
        listener = socket.create_server(("127.0.0.1", 0))
        try:
            child = context.Process(
                target=transport._local_worker, args=(listener, "127.0.0.1", 0)
            )
            child.start()
            child.join(30)
            assert child.exitcode == 0
            assert reader.poll(5) and reader.recv() == 1
        finally:
            listener.close()
            reader.close()
            writer.close()


class TestSocketCLIEndToEnd:
    """A localhost socket run with two real worker processes via the CLI."""

    @staticmethod
    def _cli_env():
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return env

    @classmethod
    def _infer_command(cls, output: Path, extra: list[str]) -> list[str]:
        return [
            sys.executable,
            "-m",
            "repro.cli",
            "infer",
            "SKL",
            "-o",
            str(output),
            "--forms",
            "6",
            "--population",
            "16",
            "--generations",
            "6",
            "--islands",
            "2",
            "--seed",
            "0",
            *extra,
        ]

    def test_two_worker_socket_inference(self, tmp_path):
        env = self._cli_env()
        socket_out = tmp_path / "socket.json"
        coordinator = subprocess.Popen(
            self._infer_command(
                socket_out,
                ["--bind", "127.0.0.1:0", "--min-workers", "2"],
            ),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        workers: list[subprocess.Popen] = []
        try:
            # The coordinator prints its ephemeral address first.
            address = None
            deadline = time.monotonic() + 60
            while address is None and time.monotonic() < deadline:
                line = coordinator.stdout.readline()
                if not line and coordinator.poll() is not None:
                    break
                if line.startswith("socket transport listening on "):
                    address = line.split()[-1].strip()
            assert address, "coordinator never announced its address"

            workers = [
                subprocess.Popen(
                    [sys.executable, "-m", "repro.cli", "worker", "--connect", address],
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                    env=env,
                    cwd=REPO_ROOT,
                )
                for _ in range(2)
            ]
            output = coordinator.stdout.read()
            assert coordinator.wait(timeout=300) == 0, output
            for worker in workers:
                assert worker.wait(timeout=30) == 0
        finally:
            for proc in [coordinator, *workers]:
                if proc.poll() is None:
                    proc.kill()
            coordinator.stdout.close()
        assert socket_out.exists()

        # The distributed mapping is byte-identical to a serial CLI run.
        serial_out = tmp_path / "serial.json"
        subprocess.run(
            self._infer_command(serial_out, []),
            check=True,
            capture_output=True,
            env=env,
            cwd=REPO_ROOT,
            timeout=300,
        )
        assert socket_out.read_text() == serial_out.read_text()
        assert json.loads(socket_out.read_text())["ports"]
