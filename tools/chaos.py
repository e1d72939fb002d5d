#!/usr/bin/env python3
"""Chaos runner: SIGKILL a live cluster and check the mapping survives.

This is the subprocess half of the fault-injection harness (the in-process
half is ``tests/faults.py``).  It drives a real ``repro-pmevo infer
--bind`` cluster of hand-started workers through a scripted kill:

1. run a serial baseline (``infer`` without ``--bind``, every epoch
   in-process) to get the ground truth mapping bytes,
2. start a socket coordinator with ``--checkpoint`` (interval 1) and the
   requested number of worker processes,
3. poll the checkpoint until the run reaches ``--at-epoch``,
4. SIGKILL the victim: ``--kill coordinator`` (then restart it with
   ``--resume`` at the *same* ``--bind`` address, so the surviving workers
   re-attach to it) or ``--kill worker`` (the coordinator requeues the
   dead worker's leases),
5. compare the final mapping bytes against the baseline.

A coordinator drill fails when the snapshot the restarted coordinator
resumes from has no active island (every island stopped or at
``max_generations``): the kill then landed after the last epoch, and the
drill would pass without exercising any recovery.  The closing line reports
the epoch the kill landed at against the run's total.

Exit status 0 means the interrupted run produced byte-identical output
after a mid-run kill; anything else is a recovery bug or a drill too short
to interrupt.  Used manually by operators rehearsing
failure drills and by ``tests/test_chaos.py`` (the ``chaos`` marker).

Usage::

    python tools/chaos.py --kill coordinator --at-epoch 2
    python tools/chaos.py --kill worker --at-epoch 1 --workers 3 --seed 1
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _free_port() -> int:
    with socket.create_server(("127.0.0.1", 0)) as listener:
        return listener.getsockname()[1]


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _infer_command(args: argparse.Namespace, output: Path, extra: list[str]) -> list[str]:
    return [
        sys.executable,
        "-m",
        "repro.cli",
        "infer",
        args.machine,
        "-o",
        str(output),
        "--forms",
        str(args.forms),
        "--population",
        str(args.population),
        "--generations",
        str(args.generations),
        "--islands",
        str(args.islands),
        "--migration-interval",
        str(args.migration_interval),
        "--seed",
        str(args.seed),
        *extra,
    ]


def _poll_epochs(checkpoint: Path, target: int, deadline: float) -> None:
    """Block until the checkpoint reports ``epochs >= target``."""
    while time.monotonic() < deadline:
        try:
            if json.loads(checkpoint.read_text()).get("epochs", 0) >= target:
                return
        except (OSError, json.JSONDecodeError):
            pass  # not written yet, or caught mid-replace
        time.sleep(0.05)
    raise TimeoutError(f"checkpoint never reached epoch {target}")


def _snapshot_progress(checkpoint: Path) -> tuple[int, bool]:
    """The snapshot's epoch count, and whether any of its islands is still
    active: not stopped, and below ``max_generations``."""
    data = json.loads(checkpoint.read_text())
    budget = data["config"]["max_generations"]
    active = any(
        not (state["converged"] or state["stale_exhausted"] or state["target_reached"])
        and state["generation"] < budget
        for state in data["states"]
    )
    return data["epochs"], active


def _spawn_workers(args: argparse.Namespace, address: str, count: int) -> list:
    return [
        subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "worker",
                "--connect",
                address,
                "--heartbeat-interval",
                str(args.heartbeat_interval),
                "--reconnect-window",
                str(args.reconnect_window),
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=_env(),
            cwd=REPO_ROOT,
        )
        for _ in range(count)
    ]


def run_drill(args: argparse.Namespace, scratch: Path) -> int:
    env = _env()
    deadline = time.monotonic() + args.timeout

    baseline = scratch / "baseline.json"
    print("chaos: running serial baseline", flush=True)
    subprocess.run(
        _infer_command(args, baseline, []),
        check=True,
        stdout=subprocess.DEVNULL,
        env=env,
        cwd=REPO_ROOT,
        timeout=args.timeout,
    )

    bind = f"127.0.0.1:{_free_port()}"
    checkpoint = scratch / "snapshot.json"
    cluster_out = scratch / "cluster.json"
    cluster_flags = [
        "--bind",
        bind,
        "--min-workers",
        str(args.workers),
        "--checkpoint",
        str(checkpoint),
        "--checkpoint-interval",
        "1",
        "--heartbeat-timeout",
        str(args.heartbeat_timeout),
    ]
    print(f"chaos: starting coordinator on {bind}", flush=True)
    coordinator = subprocess.Popen(
        _infer_command(args, cluster_out, cluster_flags),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=env,
        cwd=REPO_ROOT,
    )
    workers = _spawn_workers(args, bind, args.workers)
    procs = [coordinator, *workers]
    try:
        _poll_epochs(checkpoint, args.at_epoch, deadline)

        if args.kill == "worker":
            victim = workers[0]
            print(f"chaos: SIGKILL worker pid {victim.pid}", flush=True)
            victim.send_signal(signal.SIGKILL)
            victim.wait()
            killed_at, _ = _snapshot_progress(checkpoint)
        else:
            print(f"chaos: SIGKILL coordinator pid {coordinator.pid}", flush=True)
            coordinator.send_signal(signal.SIGKILL)
            coordinator.wait()
            killed_at, active = _snapshot_progress(checkpoint)
            if not active:
                print(
                    f"chaos: FAIL — the kill landed after the last epoch "
                    f"({killed_at}); size the run so that it lands mid-run",
                    flush=True,
                )
                return 1
            # Restart at the SAME address with --resume: the surviving
            # workers' reconnect loops re-attach to the new process.
            print("chaos: restarting coordinator with --resume", flush=True)
            coordinator = subprocess.Popen(
                _infer_command(
                    args, cluster_out, [*cluster_flags, "--resume", str(checkpoint)]
                ),
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                env=env,
                cwd=REPO_ROOT,
            )
            procs.append(coordinator)

        code = coordinator.wait(timeout=max(1.0, deadline - time.monotonic()))
        if code != 0:
            print(f"chaos: FAIL — coordinator exited {code}", flush=True)
            return 1
        for worker in workers[1 if args.kill == "worker" else 0 :]:
            code = worker.wait(timeout=max(1.0, deadline - time.monotonic()))
            if code != 0:
                print(f"chaos: FAIL — worker exited {code}", flush=True)
                return 1
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()

    if cluster_out.read_bytes() != baseline.read_bytes():
        print("chaos: FAIL — interrupted run diverged from the baseline", flush=True)
        return 1
    total, _ = _snapshot_progress(checkpoint)
    print(
        f"chaos: OK — {args.kill} killed at epoch {killed_at} of {total}, "
        "mapping byte-identical to the serial baseline",
        flush=True,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--kill",
        choices=["coordinator", "worker"],
        required=True,
        help="which process receives SIGKILL",
    )
    parser.add_argument(
        "--at-epoch",
        type=int,
        default=1,
        help="kill once the checkpoint reports this many epochs (default 1)",
    )
    parser.add_argument("--machine", default="SKL", choices=["SKL", "ZEN", "A72"])
    parser.add_argument("--forms", type=int, default=6)
    parser.add_argument("--population", type=int, default=16)
    parser.add_argument("--generations", type=int, default=8)
    parser.add_argument("--islands", type=int, default=2)
    parser.add_argument("--migration-interval", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=2, help="worker processes")
    parser.add_argument(
        "--heartbeat-interval",
        type=float,
        default=0.5,
        help="worker heartbeat period (small, so drills finish fast)",
    )
    parser.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=5.0,
        help="coordinator silence threshold before dropping a worker",
    )
    parser.add_argument(
        "--reconnect-window",
        type=float,
        default=60.0,
        help="how long workers keep trying to re-attach after a drop",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="overall drill budget in seconds",
    )
    parser.add_argument(
        "--scratch",
        type=Path,
        default=None,
        help="directory for baseline/checkpoint/output files "
        "(default: a fresh temporary directory)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.scratch is not None:
        args.scratch.mkdir(parents=True, exist_ok=True)
        return run_drill(args, args.scratch)
    import tempfile

    with tempfile.TemporaryDirectory(prefix="pmevo-chaos-") as tmp:
        return run_drill(args, Path(tmp))


if __name__ == "__main__":
    sys.exit(main())
