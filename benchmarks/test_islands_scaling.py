"""Island-model scaling: time-to-target-quality versus a single population.

The paper parallelizes its evolutionary algorithm because evaluation speed
"directly corresponds to the quality of the obtained solution" (Section
4.5).  This bench quantifies the reproduction's island model on the SKL
preset:

* a sequential single-population baseline (population ``4p``) establishes a
  target fitness (its best training D_avg),
* 4 islands of ``p`` (same total gene pool) run in time-to-target mode and
  must reach that fitness with at most the baseline's evaluation count —
  so with ``W`` workers on ``W`` cores the wall-clock to baseline quality
  is at most ``1/W`` of the work ratio; with 4 workers and the measured
  ratio this is well under the 0.5x bound,
* the same root seed is re-run with 1 and 4 workers to record that the
  parallel path is bit-reproducible.

Wall-clock is asserted directly only when the host actually has multiple
cores (CI containers often pin one); the work ratio, which wall-clock
tracks, is asserted unconditionally.
"""

from __future__ import annotations

import os
import time

import pytest

from bench_lib import stratified_forms, write_result
from repro.machine import MeasurementConfig, skl_machine
from repro.pmevo import EvolutionConfig, PMEvoConfig, SocketTransport, infer_port_mapping

ISLANDS = 4
ISLAND_POPULATION = 40
BASELINE_GENERATIONS = 40
ROOT_SEED = 0


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


@pytest.fixture(scope="module")
def skl_preset():
    machine = skl_machine(measurement=MeasurementConfig(noisy=False))
    return machine, stratified_forms(machine, per_class=1, limit=8)


def _run(machine, names, *, population, islands, workers, target=None,
         max_generations=BASELINE_GENERATIONS):
    config = PMEvoConfig(
        evolution=EvolutionConfig(
            population_size=population,
            max_generations=max_generations,
            seed=ROOT_SEED,
            islands=islands,
            migration_interval=4,
            migration_size=3,
            target_davg=target,
        )
    )
    transport = SocketTransport(local_workers=workers) if workers > 1 else None
    start = time.perf_counter()
    result = infer_port_mapping(machine, names=names, config=config, transport=transport)
    return result, time.perf_counter() - start


def _history_best(evolution) -> float:
    histories = getattr(evolution, "island_histories", None) or [evolution.history]
    return min(min(s.best_davg for s in h) for h in histories)


def test_islands_reach_baseline_fitness_faster(skl_preset):
    machine, names = skl_preset
    cpus = _available_cpus()

    baseline, baseline_wall = _run(
        machine, names, population=ISLANDS * ISLAND_POPULATION, islands=1, workers=1
    )
    target = _history_best(baseline.evolution)

    workers = min(ISLANDS, cpus)
    parallel, parallel_wall = _run(
        machine, names, population=ISLAND_POPULATION, islands=ISLANDS,
        workers=workers, target=target, max_generations=100,
    )
    serial, serial_wall = _run(
        machine, names, population=ISLAND_POPULATION, islands=ISLANDS,
        workers=1, target=target, max_generations=100,
    )

    reached = _history_best(parallel.evolution) <= target
    work_ratio = parallel.evolution.evaluations / baseline.evolution.evaluations
    wall_ratio = parallel_wall / baseline_wall
    # Perfect-scaling bound: epochs advance the islands independently, so W
    # cores divide the serial island time by W between migration barriers.
    projected_ratio = (serial_wall / ISLANDS) / baseline_wall
    reproducible = (
        serial.evolution.mapping == parallel.evolution.mapping
        and serial.evolution.history == parallel.evolution.history
    )

    lines = [
        "island-model scaling vs single population (SKL preset, "
        f"{len(names)} forms, root seed {ROOT_SEED})",
        f"baseline: population {ISLANDS * ISLAND_POPULATION}, "
        f"{baseline.evolution.generations} generations, "
        f"{baseline.evolution.evaluations} evaluations, {baseline_wall:.2f}s, "
        f"best training D_avg {target:.4f}",
        f"islands:  {ISLANDS} x {ISLAND_POPULATION}, time-to-target mode, "
        f"{parallel.evolution.generations} generations, "
        f"{parallel.evolution.evaluations} evaluations, {parallel_wall:.2f}s "
        f"({workers} workers, {cpus} cpus visible)",
        f"target fitness reached: {reached}",
        f"evaluations-to-target ratio: {work_ratio:.2f}",
        f"measured wall-clock ratio: {wall_ratio:.2f}",
        f"projected wall-clock ratio on {ISLANDS} cores: {projected_ratio:.2f}",
        f"migrations: {parallel.evolution.migrations} "
        f"(every {4} generations, ring of {ISLANDS})",
        f"bit-reproducible across worker counts: {reproducible}",
    ]
    write_result("islands_scaling", "\n".join(lines))

    assert reached, "islands never reached the baseline's best fitness"
    assert reproducible, "worker count changed the inferred mapping"
    # Reaching target quality with at most the baseline's evaluation count
    # means ISLANDS truly parallel workers have at least a 2x margin under
    # the 0.5x wall bound (work_ratio / ISLANDS <= 0.25 at perfect scaling).
    # Only assert the measured wall when that many cores really exist;
    # fewer cores (work_ratio / cpus plus pool overhead) could straddle the
    # bound and make the bench flaky on small runners.
    assert work_ratio <= 1.0
    if cpus >= ISLANDS:
        assert wall_ratio <= 0.5, (
            f"islands took {wall_ratio:.2f}x the baseline wall-clock "
            f"with {cpus} cpus available"
        )
