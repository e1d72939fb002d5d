#!/usr/bin/env python3
"""Parallel port-mapping inference with the island model.

PMEvo's reference implementation runs its evolutionary algorithm in parallel
on multicore machines (Section 4.5: evaluation speed "directly corresponds
to the quality of the obtained solution").  This walkthrough shows the
reproduction's equivalent — island-model search — and the two properties
that make it safe to use:

* **Speed**: K islands of population p evolve concurrently in worker
  processes, so a generation costs roughly 1/K of a single population of
  size K·p while exploring the same gene pool.  The workers are forked by a
  loopback socket coordinator, ``SocketTransport(local_workers=W)``, passed
  as the pipeline's ``transport``; without one, every epoch runs in-process.
* **Reproducibility**: island seeds derive from one root seed and workers
  only transport island states, so any worker count produces byte-identical
  mappings — parallelism cannot silently change results.

Run:  python examples/parallel_inference.py [--forms N] [--islands K] [--workers W]
"""

import argparse
import time

from repro.analysis import format_table
from repro.machine import MeasurementConfig, skl_machine
from repro.pmevo import (
    EvolutionConfig,
    PMEvoConfig,
    SocketTransport,
    infer_port_mapping,
)


def stratified_subset(machine, limit: int) -> list[str]:
    by_class: dict[str, str] = {}
    for form in machine.isa:
        by_class.setdefault(form.semantic_class, form.name)
    return sorted(by_class.values())[:limit]


def run_once(machine, names, population, islands, workers, seed):
    config = PMEvoConfig(
        evolution=EvolutionConfig(
            population_size=population,
            max_generations=60,
            seed=seed,
            islands=islands,
            migration_interval=5,
            migration_size=2,
        )
    )
    workers = min(workers, islands)
    transport = SocketTransport(local_workers=workers) if workers > 1 else None
    start = time.perf_counter()
    result = infer_port_mapping(machine, names=names, config=config, transport=transport)
    return result, time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--forms", type=int, default=14)
    parser.add_argument("--population", type=int, default=40, help="per-island population")
    parser.add_argument("--islands", type=int, default=4)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    machine = skl_machine(measurement=MeasurementConfig(noisy=False))
    names = stratified_subset(machine, args.forms)
    print(f"machine: {machine.describe()}")
    print(f"instruction forms: {len(names)}")
    print()

    # One big sequential population vs. the same gene pool split across
    # islands — the comparison Section 4.5's parallelization argument makes.
    total = args.population * args.islands
    print(f"[1/3] sequential baseline: one population of {total} ...")
    baseline, baseline_seconds = run_once(machine, names, total, 1, 1, args.seed)

    print(f"[2/3] island model: {args.islands} x {args.population} on "
          f"{args.workers} workers ...")
    parallel, parallel_seconds = run_once(
        machine, names, args.population, args.islands, args.workers, args.seed
    )

    print(f"[3/3] reproducibility: same root seed on 1 worker ...")
    serial, _ = run_once(machine, names, args.population, args.islands, 1, args.seed)

    rows = [
        ["sequential", "1", "1", f"{baseline.evolution.davg:.4f}",
         f"{baseline.evolution.evaluations}", f"{baseline_seconds:.2f}s"],
        [f"islands ({args.islands}x{args.population})", str(args.islands),
         str(args.workers), f"{parallel.evolution.davg:.4f}",
         f"{parallel.evolution.evaluations}", f"{parallel_seconds:.2f}s"],
    ]
    print()
    print(format_table(
        ["configuration", "islands", "workers", "D_avg", "evaluations", "wall"],
        rows,
        title="island-model parallel inference",
    ))
    print()
    evo = parallel.evolution
    print(f"epochs: {evo.epochs}, migrations: {evo.migrations}, "
          f"winning island: {evo.best_island}")
    print(f"per-island best D_avg: "
          + ", ".join(f"{d:.4f}" for d in evo.island_davgs))
    print(f"speedup over sequential: {baseline_seconds / parallel_seconds:.2f}x")
    identical = serial.evolution.mapping == parallel.evolution.mapping
    print(f"workers=1 reproduces workers={args.workers} bit-for-bit: {identical}")


if __name__ == "__main__":
    main()
