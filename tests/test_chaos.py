"""Fault-injection tests: scripted crashes must never change the answer.

Two tiers share this file:

* **Fast, in-process** (no marker): :class:`repro.pmevo.FaultySocket` /
  :class:`repro.pmevo.FaultyTransport` inject frame corruption, connection
  drops, slow links, and scripted coordinator crashes without real
  processes or real sleeps beyond fractions of a second.
* **Subprocess drills** (``@pytest.mark.chaos``): ``tools/chaos.py`` runs a
  real CLI cluster and SIGKILLs the coordinator or a worker at a scripted
  epoch, then checks the recovered run byte-for-byte.

Every test's oracle is the same: the result must be *byte-identical* to an
uninterrupted serial run — recovery that changes the answer is not
recovery.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.pmevo.testing import measurements_from_truth as _measurements_from_truth
from repro.core import InjectedFault, PortSpace
from repro.pmevo import (
    Checkpointer,
    EvolutionConfig,
    FaultySocket,
    FaultyTransport,
    PortMappingEvolver,
    SerialTransport,
    SocketTransport,
    load_checkpoint,
    previous_path,
    run_worker,
)
from repro.pmevo.transport import (
    PROTOCOL_VERSION,
    evolver_from_jsonable,
    recv_frame,
    send_frame,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

FAST_RECONNECT = dict(max_reconnect_attempts=4, reconnect_window=5.0, jitter_seed=1)

CONFIG = EvolutionConfig(
    population_size=16,
    max_generations=12,
    seed=7,
    islands=3,
    migration_interval=4,
    migration_size=1,
)


def _evolver(config=CONFIG):
    truth = {"ad": {0b011: 1}, "mu": {0b100: 2}, "st": {0b011: 1, 0b100: 1}}
    names = ("ad", "mu", "st")
    measured, singles = _measurements_from_truth(truth, names, 3)
    return PortMappingEvolver(PortSpace.numbered(3), measured, singles, config)


def _normalized(result) -> str:
    return dataclasses.replace(result, wall_seconds=0.0, workers=0).to_json()


@pytest.fixture(scope="module")
def serial_result():
    return _evolver().run(transport=SerialTransport())


def _once(factory):
    """Wrap only the worker's first connection; reconnects get clean sockets."""
    used = []

    def wrap(sock):
        if used:
            return sock
        used.append(True)
        return factory(sock)

    return wrap


class TestInjectedSocketFaults:
    """FaultySocket-injected failures on a live in-process cluster."""

    @pytest.mark.parametrize(
        "fault",
        [
            dict(drop_at=1),  # dies instead of delivering its first result
            dict(truncate_at=1),  # crashes mid-sendall: a torn frame
            dict(corrupt_at=1),  # delivers a full frame of garbage JSON
        ],
        ids=["drop", "truncate", "corrupt"],
    )
    def test_faulted_worker_run_is_identical(self, serial_result, fault):
        # Whatever the fault, the coordinator must drop the worker, requeue
        # its islands, accept the worker back after it reconnects with a
        # clean socket, and produce the exact serial bytes.
        transport = SocketTransport(min_workers=1, heartbeat_timeout=15.0)
        host, port = transport.listen()
        thread = threading.Thread(
            target=run_worker,
            args=(host, port),
            kwargs=dict(
                wrap_socket=_once(lambda s: FaultySocket(s, **fault)),
                **FAST_RECONNECT,
            ),
            daemon=True,
        )
        thread.start()
        result = _evolver().run(transport=transport)
        thread.join(timeout=15)
        assert not thread.is_alive()
        assert result.transport_stats["workers_dropped"] >= 1
        assert _normalized(result) == _normalized(serial_result)

    def test_slow_worker_islands_are_stolen(self, serial_result):
        # Both workers deliver results slowly (compute fine, slow link).
        # With 3 islands on 2 workers, one worker always goes idle while
        # the other still owes an island older than the steal grace — so a
        # steal must fire, the first result must win, and the late
        # duplicate must be discarded, all invisible in the output bytes.
        config = dataclasses.replace(CONFIG, max_generations=8)
        serial = _evolver(config).run(transport=SerialTransport())
        transport = SocketTransport(min_workers=2, heartbeat_timeout=15.0)
        host, port = transport.listen()
        threads = [
            threading.Thread(
                target=run_worker,
                args=(host, port),
                kwargs=dict(
                    wrap_socket=lambda s: FaultySocket(s, delay_results=0.4),
                    **FAST_RECONNECT,
                ),
                daemon=True,
            )
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        result = _evolver(config).run(transport=transport)
        for thread in threads:
            thread.join(timeout=20)
            assert not thread.is_alive()
        assert result.transport_stats["steals"] >= 1
        assert _normalized(result) == _normalized(serial)

    def test_bogus_and_duplicate_results_are_ignored(self, serial_result):
        # A confused (or malicious) worker sends results for leases that
        # were never issued and repeats every real result. None of it may
        # reach the barrier twice.
        transport = SocketTransport(min_workers=1, heartbeat_timeout=15.0)
        host, port = transport.listen()

        def noisy_worker():
            import socket as socket_module

            sock = socket_module.create_connection((host, port), timeout=15)
            try:
                send_frame(sock, {"type": "hello", "protocol": PROTOCOL_VERSION})
                setup = recv_frame(sock)
                evolver = evolver_from_jsonable(setup["problem"])
                while True:
                    message = recv_frame(sock)
                    if message is None or message.get("type") == "shutdown":
                        return
                    if message.get("type") != "job":
                        continue
                    for island, payload in message["islands"]:
                        from repro.pmevo import EvolutionState

                        advanced = evolver.advance(
                            EvolutionState.from_jsonable(payload),
                            int(message["generations"]),
                        )
                        frame = {
                            "type": "result",
                            "job_id": message["job_id"],
                            "island": int(island),
                            "state": advanced.to_jsonable(),
                        }
                        # A result for a lease this coordinator never issued…
                        send_frame(sock, dict(frame, job_id=message["job_id"] + 1000))
                        # …the real thing…
                        send_frame(sock, frame)
                        # …and the real thing again.
                        send_frame(sock, frame)
            except OSError:
                return
            finally:
                sock.close()

        thread = threading.Thread(target=noisy_worker, daemon=True)
        thread.start()
        result = _evolver().run(transport=transport)
        thread.join(timeout=15)
        assert _normalized(result) == _normalized(serial_result)

    def test_overflowing_result_drops_the_worker(self, serial_result):
        # A worker answers its lease with a state whose generation count
        # overflows int() (JSON reads 1e400 as inf).  The coordinator must
        # drop it like any other malformed result, not end the run, and
        # finish the epochs itself with the serial bytes.
        transport = SocketTransport(min_workers=1, heartbeat_timeout=15.0)
        host, port = transport.listen()

        def overflowing_worker():
            import socket as socket_module

            sock = socket_module.create_connection((host, port), timeout=15)
            try:
                send_frame(sock, {"type": "hello", "protocol": PROTOCOL_VERSION})
                recv_frame(sock)  # setup
                job = recv_frame(sock)
                island, payload = job["islands"][0]
                frame = {
                    "type": "result",
                    "job_id": job["job_id"],
                    "island": island,
                    "state": dict(payload, generation="OVERFLOW"),
                }
                text = json.dumps(frame).replace('"OVERFLOW"', "1e400").encode()
                sock.sendall(struct.pack(">I", len(text)) + text)
                while sock.recv(4096):  # until the coordinator hangs up
                    pass
            except OSError:
                pass
            finally:
                sock.close()

        thread = threading.Thread(target=overflowing_worker, daemon=True)
        thread.start()
        result = _evolver().run(transport=transport)
        thread.join(timeout=15)
        assert not thread.is_alive()
        assert result.transport_stats["workers_dropped"] >= 1
        assert _normalized(result) == _normalized(serial_result)

    def test_late_joiner_is_picked_up_mid_run(self, serial_result):
        # The only worker takes every lease and goes silent; a replacement
        # shows up while the epoch is stuck on the mute worker. It must be
        # accepted mid-epoch, the mute worker's islands must reach it (by
        # steal or by requeue after the heartbeat reap), and the bytes must
        # not change.
        transport = SocketTransport(min_workers=1, heartbeat_timeout=1.0)
        host, port = transport.listen()

        def mute_worker():
            import socket as socket_module

            sock = socket_module.create_connection((host, port), timeout=15)
            try:
                send_frame(sock, {"type": "hello", "protocol": PROTOCOL_VERSION})
                recv_frame(sock)  # setup
                # Swallow every job without answering or heartbeating,
                # until the coordinator reaps us and closes the socket.
                while sock.recv(4096):
                    pass
            except OSError:
                pass
            finally:
                sock.close()

        def late_worker():
            time.sleep(0.3)
            run_worker(host, port, **FAST_RECONNECT)

        mute = threading.Thread(target=mute_worker, daemon=True)
        late = threading.Thread(target=late_worker, daemon=True)
        mute.start()
        late.start()
        result = _evolver().run(transport=transport)
        mute.join(timeout=15)
        late.join(timeout=15)
        assert not late.is_alive()
        assert result.transport_stats["late_joiners"] >= 1
        assert _normalized(result) == _normalized(serial_result)


class TestInjectedCoordinatorCrash:
    """FaultyTransport: the in-process analogue of SIGKILLing the coordinator."""

    def test_crash_after_epoch_then_resume_is_identical(
        self, tmp_path, serial_result
    ):
        # Dying *after* the epoch but *before* its checkpoint is the
        # sharpest spot: epoch 2's results exist but were never journaled,
        # so the snapshot still says epoch 1 and the resume replays the
        # lost epoch from there.
        path = tmp_path / "snapshot.json"
        faulty = FaultyTransport(SerialTransport(), fail_after_epoch=2)
        with pytest.raises(InjectedFault):
            _evolver().run(
                transport=faulty, checkpointer=Checkpointer(path, interval=1)
            )
        snapshot = load_checkpoint(path)
        assert snapshot.epochs == 1
        resumed = _evolver().run(resume=snapshot)
        assert _normalized(resumed) == _normalized(serial_result)

    def test_crash_before_epoch_then_resume_is_identical(
        self, tmp_path, serial_result
    ):
        # Dying *before* an epoch loses that epoch's work; the resume must
        # replay it from the last snapshot without drift.
        path = tmp_path / "snapshot.json"
        faulty = FaultyTransport(SerialTransport(), fail_before_epoch=3)
        with pytest.raises(InjectedFault):
            _evolver().run(
                transport=faulty, checkpointer=Checkpointer(path, interval=1)
            )
        resumed = _evolver().run(resume=load_checkpoint(path))
        assert _normalized(resumed) == _normalized(serial_result)

    def test_resume_survives_torn_snapshot_via_prev(self, tmp_path, serial_result):
        # The crash also tore the latest snapshot (e.g. disk full at the
        # worst moment): load falls back to the `.prev` generation, which
        # replays one extra epoch and still lands on the serial bytes.
        path = tmp_path / "snapshot.json"
        faulty = FaultyTransport(SerialTransport(), fail_before_epoch=3)
        with pytest.raises(InjectedFault):
            _evolver().run(
                transport=faulty, checkpointer=Checkpointer(path, interval=1)
            )
        assert previous_path(path).exists()
        path.write_text("torn mid-write")
        with pytest.warns(UserWarning, match="falling back to the previous"):
            snapshot = load_checkpoint(path)
        assert snapshot.epochs == 1
        resumed = _evolver().run(resume=snapshot)
        assert _normalized(resumed) == _normalized(serial_result)


@pytest.mark.chaos
class TestSubprocessDrills:
    """Real processes, real SIGKILL, via the tools/chaos.py runner."""

    @staticmethod
    def _run_drill(extra: list[str], tmp_path: Path):
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "tools" / "chaos.py"),
                "--forms",
                "5",
                "--population",
                "16",
                "--generations",
                "6",
                "--islands",
                "2",
                "--migration-interval",
                "2",
                "--heartbeat-interval",
                "0.5",
                "--heartbeat-timeout",
                "2.5",
                "--timeout",
                "240",
                "--scratch",
                str(tmp_path / "scratch"),
                *extra,
            ],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
            timeout=300,
        )

    def test_worker_sigkill_mid_lease(self, tmp_path):
        proc = self._run_drill(["--kill", "worker", "--at-epoch", "1"], tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "byte-identical" in proc.stdout

    def test_coordinator_sigkill_and_resume(self, tmp_path):
        proc = self._run_drill(["--kill", "coordinator", "--at-epoch", "1"], tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "byte-identical" in proc.stdout
