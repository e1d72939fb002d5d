"""Migration-transport overhead: serial vs local workers vs socket on one host.

This bench records what each way of running an epoch costs per epoch
barrier on a localhost workload, so the distributed setup's break-even
point is documented: off-process epochs pay JSON serialization plus TCP
round trips, which is only worth it when another core buys back more than
that.  The rows are the in-process transport, the default ``workers=2``
path (a loopback socket coordinator that forks its two workers, start-up
included), and a socket coordinator fed by two hand-started worker threads.

All three must return byte-identical results (also pinned by
``tests/test_transport_equivalence.py``); here the interesting number is
epochs/second.
"""

from __future__ import annotations

import dataclasses
import threading
import time

from bench_lib import stratified_forms, write_result
from repro.analysis import format_table
from repro.core import ExperimentSet, PortSpace
from repro.machine import MeasurementConfig, skl_machine
from repro.pmevo import (
    EvolutionConfig,
    PortMappingEvolver,
    SerialTransport,
    SocketTransport,
    run_worker,
)
from repro.pmevo.expgen import pair_experiments, singleton_experiments

ISLANDS = 4
POPULATION = 24
GENERATIONS = 24
MIGRATION_INTERVAL = 4


def _problem():
    machine = skl_machine(measurement=MeasurementConfig(noisy=False))
    names = stratified_forms(machine, per_class=1, limit=8)
    measured = ExperimentSet()
    singles: dict[str, float] = {}
    for experiment in singleton_experiments(names):
        throughput = machine.measure(experiment)
        measured.add(experiment, throughput)
        singles[experiment.support[0]] = throughput
    for experiment in pair_experiments(names, singles):
        measured.add(experiment, machine.measure(experiment))
    return machine.config.ports, measured, singles


def _config():
    return EvolutionConfig(
        population_size=POPULATION,
        max_generations=GENERATIONS,
        seed=0,
        islands=ISLANDS,
        workers=2,
        migration_interval=MIGRATION_INTERVAL,
        migration_size=2,
    )


def _run(ports, measured, singles, transport=None):
    evolver = PortMappingEvolver(ports, measured, singles, _config())
    start = time.perf_counter()
    result = evolver.run(transport=transport)
    return result, time.perf_counter() - start


def test_transport_overhead_record():
    ports, measured, singles = _problem()

    serial, serial_wall = _run(ports, measured, singles, SerialTransport())
    local, local_wall = _run(ports, measured, singles)

    socket_transport = SocketTransport(min_workers=2, heartbeat_timeout=30.0)
    host, port = socket_transport.listen()
    reconnect = dict(max_reconnect_attempts=2, reconnect_window=2.0, jitter_seed=1)
    workers = [
        threading.Thread(
            target=run_worker, args=(host, port), kwargs=reconnect, daemon=True
        )
        for _ in range(2)
    ]
    for worker in workers:
        worker.start()
    socket_result, socket_wall = _run(ports, measured, singles, socket_transport)
    for worker in workers:
        worker.join(timeout=30)

    def normalized(result) -> str:
        return dataclasses.replace(result, wall_seconds=0.0, workers=0).to_json()

    assert normalized(local) == normalized(serial)
    assert normalized(socket_result) == normalized(serial)
    assert serial.epochs >= 2

    rows = []
    for label, result, wall in (
        ("serial", serial, serial_wall),
        ("workers=2 (forked)", local, local_wall),
        ("socket(2 local)", socket_result, socket_wall),
    ):
        rows.append(
            [
                label,
                f"{wall:.2f}",
                f"{result.epochs / wall:.2f}",
                f"{(wall - serial_wall) / result.epochs * 1000:+.0f}",
            ]
        )
    table = format_table(
        ["transport", "wall (s)", "epochs/s", "overhead/epoch vs serial (ms)"],
        rows,
        title=(
            f"transport overhead, {ISLANDS}x{POPULATION} islands, "
            f"{GENERATIONS} generations (identical results pinned)"
        ),
    )
    write_result("transport_overhead", table)
