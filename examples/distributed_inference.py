#!/usr/bin/env python3
"""Distributed inference: socket transport and checkpoint/resume.

The island model parallelizes the evolutionary search on one host; the
migration transport scales it beyond it.  This walkthrough demonstrates the
two pieces on a laptop-scale SKL problem:

1. **Socket transport.**  An inference run leases island epochs over TCP to
   worker processes.  Here the workers are threads in this process for
   convenience; on a cluster you run ``repro-pmevo infer ... --bind
   0.0.0.0:5555`` on the coordinator and ``repro-pmevo worker --connect
   COORDINATOR:5555`` on every core of every machine — the code path is
   identical.
2. **Checkpoint/resume.**  The same epoch-barrier serialization is written
   to disk as atomic snapshots; we kill a run mid-flight, resume it, and
   verify the result is byte-identical to never having been interrupted.

Run:  python examples/distributed_inference.py [--forms N] [--islands K]
"""

import argparse
import dataclasses
import tempfile
import threading
from pathlib import Path

from repro.machine import MeasurementConfig, skl_machine
from repro.pmevo import (
    Checkpointer,
    EvolutionConfig,
    PMEvoConfig,
    SocketTransport,
    infer_port_mapping,
    load_checkpoint,
    run_worker,
)


def stratified_subset(machine, limit: int) -> list[str]:
    by_class: dict[str, str] = {}
    for form in machine.isa:
        by_class.setdefault(form.semantic_class, form.name)
    return sorted(by_class.values())[:limit]


def pmevo_config(args) -> PMEvoConfig:
    return PMEvoConfig(
        evolution=EvolutionConfig(
            population_size=args.population,
            max_generations=40,
            seed=0,
            islands=args.islands,
            migration_interval=5,
            migration_size=2,
        )
    )


def normalized(result) -> str:
    """Serialized result minus its timing (the comparison the equivalence
    tests use)."""
    return dataclasses.replace(result.evolution, wall_seconds=0.0).to_json()


def demo_socket(machine, names, args):
    print("== socket transport: leasing epochs to 2 workers over TCP ==")
    transport = SocketTransport(min_workers=2)
    host, port = transport.listen()
    print(f"coordinator listening on {host}:{port}")
    workers = [
        threading.Thread(target=run_worker, args=(host, port), daemon=True)
        for _ in range(2)
    ]
    for worker in workers:
        worker.start()
    result = infer_port_mapping(
        machine, names=names, config=pmevo_config(args), transport=transport
    )
    for worker in workers:
        worker.join(timeout=30)
    print(
        f"distributed run: D_avg={result.evolution.davg:.4f} over "
        f"{result.evolution.epochs} epochs, {result.evolution.migrations} migrations"
    )
    return result


class KillAfter(Checkpointer):
    """Aborts the run right after the Nth snapshot — a stand-in for SIGKILL,
    a crashed node, or a spot instance reclaim."""

    def __init__(self, path, kill_after: int):
        super().__init__(path, interval=1)
        self.kill_after = kill_after

    def after_epoch(self, snapshot):
        saved = super().after_epoch(snapshot)
        if self.saves >= self.kill_after:
            raise KeyboardInterrupt
        return saved


def demo_checkpoint(machine, names, args, reference):
    print("\n== checkpoint/resume: kill after the first epoch, then resume ==")
    snapshot_path = Path(tempfile.mkdtemp()) / "snapshot.json"
    try:
        infer_port_mapping(
            machine,
            names=names,
            config=pmevo_config(args),
            checkpointer=KillAfter(snapshot_path, kill_after=1),
        )
    except KeyboardInterrupt:
        print(f"run killed; snapshot at {snapshot_path}")
    snapshot = load_checkpoint(snapshot_path)
    print(f"resuming from epoch {snapshot.epochs}")
    resumed = infer_port_mapping(
        machine, names=names, config=pmevo_config(args), resume=snapshot
    )
    identical = normalized(resumed) == normalized(reference)
    print(f"resumed == uninterrupted (byte-identical): {identical}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--forms", type=int, default=8)
    parser.add_argument("--population", type=int, default=20, help="per-island population")
    parser.add_argument("--islands", type=int, default=3)
    args = parser.parse_args()

    machine = skl_machine(measurement=MeasurementConfig(noisy=False))
    names = stratified_subset(machine, args.forms)
    print(f"machine: {machine.describe()}, {len(names)} instruction forms\n")

    reference = demo_socket(machine, names, args)
    demo_checkpoint(machine, names, args, reference)


if __name__ == "__main__":
    main()
