"""Fitness-kernel throughput: legacy per-genome dict path vs packed kernel.

PR 6 replaced the evolver's fitness evaluation — per-genome ``uop_matrix``
scatters and per-genome Python ``genome_volume`` sums — with the packed
structure-of-arrays kernel (:class:`repro.pmevo.packed.PackedPopulation` +
:meth:`~repro.throughput.batched.BatchedThroughputEvaluator.throughputs_from_packed`
+ vectorized :meth:`~repro.pmevo.packed.PackedPopulation.volumes`).
Section 4.5 of the paper motivates exactly this: fitness-evaluation speed
"directly corresponds to the quality of the obtained solution", which is
why the original PMEvo drops to a C++ core for it.

Both paths produce bit-identical fitness values (pinned by
``tests/test_packed.py`` and ``tests/test_backend_equivalence.py``); the
interesting numbers here are genomes/second through each path, on two
problem shapes:

* ``a72`` — a real machine subsample (7 ports, pair experiments).  Here
  the dense einsum/zeta math over the ``2^|P|`` mask space dominates both
  paths equally, so the packed win is the workspace reuse and the removal
  of per-genome allocation churn — real but modest.
* ``wide-isa`` — many instruction forms over a small port count (the
  Figure 8a low-port regime).  Here the per-genome Python traffic is the
  wall, and packing removes it wholesale; this is the regime the >= 3x
  acceptance bar targets.

Each path is timed as best-of-N process CPU seconds
(:func:`time.process_time`), which hypervisor steal cannot inflate the way
it inflates wall time on a shared host; the wall-clock rates are printed
beside them.  With ``REPRO_BENCH_RECORD=1`` results are *appended* to
``benchmarks/results/fitness_kernel.txt`` so speedups accumulate as history
across runs.
"""

from __future__ import annotations

import time

import numpy as np

from bench_lib import append_result, scaled, stratified_forms
from repro.core import Experiment, ExperimentSet
from repro.machine import MeasurementConfig, a72_machine
from repro.pmevo import (
    EvolutionConfig,
    PackedPopulation,
    PortMappingEvolver,
    random_population,
)
from repro.pmevo.expgen import pair_experiments, singleton_experiments
from repro.pmevo.population import genome_volume
from repro.throughput import BatchedThroughputEvaluator, bottleneck_rows

POPULATION = 256
CHUNK = 64
REPEATS = 3
EVOLVER_GENERATIONS = 8
MIN_SPEEDUP = 3.0


def _a72_problem():
    """A real-machine shape: 7 ports, subsampled forms, pair experiments."""
    machine = a72_machine(measurement=MeasurementConfig(noisy=False))
    names = stratified_forms(machine, per_class=1, limit=16)
    measured = ExperimentSet()
    singles: dict[str, float] = {}
    for experiment in singleton_experiments(names):
        throughput = machine.measure(experiment)
        measured.add(experiment, throughput)
        singles[experiment.support[0]] = throughput
    for experiment in pair_experiments(names, singles):
        measured.add(experiment, machine.measure(experiment))
    return machine.config.ports.num_ports, measured, singles


def _wide_isa_problem(num_instructions=160, num_experiments=48, num_ports=4):
    """A wide-ISA shape: many forms, few ports, few experiments.

    Synthetic, like the Figure 8 scaling benches: the point is the shape of
    the work, not any particular machine's numbers.
    """
    rng = np.random.default_rng(1)
    names = tuple(f"op{i}" for i in range(num_instructions))
    singles = {name: float(rng.uniform(0.5, 3.0)) for name in names}
    measured = ExperimentSet()
    for i in range(num_experiments):
        left = names[(2 * i) % num_instructions]
        right = names[(2 * i + 1) % num_instructions]
        experiment = Experiment({left: 1, right: 1})
        measured.add(experiment, float(rng.uniform(0.5, 4.0)))
    return num_ports, measured, singles


def _legacy_fitness(evaluator, genomes, chunk):
    """The pre-packed ``_evaluate``: per-genome dict scatter + Python sums."""
    predicted = np.empty(
        (len(genomes), evaluator.num_experiments), dtype=np.float64
    )
    for start in range(0, len(genomes), chunk):
        part = genomes[start : start + chunk]
        matrices = np.stack([evaluator.uop_matrix(genome) for genome in part])
        predicted[start : start + len(part)] = bottleneck_rows(evaluator.counts, matrices)
    davgs = evaluator.davg_from_throughputs(predicted)
    volumes = np.empty(len(genomes), dtype=np.float64)
    for i, genome in enumerate(genomes):
        volumes[i] = genome_volume(genome)
    return davgs, volumes


def _packed_fitness(evaluator, genomes, names, workspace):
    """The PR 6 ``_evaluate``: pack once, evaluate population-wide."""
    packed = PackedPopulation.from_genomes(genomes, names)
    predicted = evaluator.throughputs_from_packed(packed, workspace=workspace)
    davgs = evaluator.davg_from_throughputs(predicted)
    volumes = packed.volumes().astype(np.float64)
    return davgs, volumes


def _best_seconds(fn, repeats=REPEATS):
    """Best-of-``repeats`` process CPU seconds and wall seconds of ``fn``."""
    best_cpu = best_wall = float("inf")
    result = None
    for _ in range(repeats):
        cpu_start, wall_start = time.process_time(), time.perf_counter()
        result = fn()
        best_wall = min(best_wall, time.perf_counter() - wall_start)
        best_cpu = min(best_cpu, time.process_time() - cpu_start)
    return best_cpu, best_wall, result


def _legacy_kernel(evaluator, genomes, chunk):
    """Legacy throughput kernel alone: per-genome scatter + chunked einsum."""
    predicted = np.empty(
        (len(genomes), evaluator.num_experiments), dtype=np.float64
    )
    for start in range(0, len(genomes), chunk):
        part = genomes[start : start + chunk]
        matrices = np.stack([evaluator.uop_matrix(genome) for genome in part])
        predicted[start : start + len(part)] = bottleneck_rows(evaluator.counts, matrices)
    return predicted


def _time_shape(label, num_ports, measured, singles, names=None):
    if names is None:
        names = tuple(measured.instruction_names())
    evaluator = BatchedThroughputEvaluator(measured, names, num_ports)
    population_size = scaled(POPULATION, minimum=CHUNK)
    rng = np.random.default_rng(0)
    genomes = random_population(rng, population_size, names, num_ports, singles)
    workspace = evaluator.packed_workspace(CHUNK)

    # Kernel proper: dense scatter + evaluation, population already packed.
    packed = PackedPopulation.from_genomes(genomes, names)
    kernel_legacy_cpu, kernel_legacy_wall, kernel_legacy_out = _best_seconds(
        lambda: _legacy_kernel(evaluator, genomes, CHUNK)
    )
    kernel_packed_cpu, kernel_packed_wall, kernel_packed_out = _best_seconds(
        lambda: evaluator.throughputs_from_packed(packed, workspace=workspace)
    )
    assert np.array_equal(kernel_legacy_out, kernel_packed_out)

    # End to end, as `_evaluate` runs it: pack + kernel + D_avg + volumes.
    legacy_cpu, legacy_wall, legacy_out = _best_seconds(
        lambda: _legacy_fitness(evaluator, genomes, CHUNK)
    )
    packed_cpu, packed_wall, packed_out = _best_seconds(
        lambda: _packed_fitness(evaluator, genomes, names, workspace)
    )
    assert np.array_equal(legacy_out[0], packed_out[0])
    assert np.array_equal(legacy_out[1], packed_out[1])

    kernel_speedup = kernel_legacy_cpu / kernel_packed_cpu
    fitness_speedup = legacy_cpu / packed_cpu
    lines = [
        f"  {label:9s} pop={population_size} instr={len(names)} "
        f"ports={num_ports} experiments={evaluator.num_experiments}",
        f"    throughput kernel : "
        f"{population_size / kernel_legacy_cpu:10.1f} -> "
        f"{population_size / kernel_packed_cpu:10.1f} genomes/CPU-s "
        f"({kernel_speedup:.1f}x; wall {kernel_legacy_wall / kernel_packed_wall:.1f}x)",
        f"    full fitness      : "
        f"{population_size / legacy_cpu:10.1f} -> "
        f"{population_size / packed_cpu:10.1f} genomes/CPU-s "
        f"({fitness_speedup:.1f}x; wall {legacy_wall / packed_wall:.1f}x; "
        "includes dict->packed conversion)",
    ]
    return kernel_speedup, lines


def test_fitness_kernel_speedup():
    report = ["fitness-kernel (legacy dict path -> packed kernel)"]

    a72_speedup, lines = _time_shape("a72", *_a72_problem())
    report.extend(lines)
    num_ports, measured, singles = _wide_isa_problem()
    wide_names = tuple(f"op{i}" for i in range(160))
    wide_speedup, lines = _time_shape(
        "wide-isa", num_ports, measured, singles, names=wide_names
    )
    report.extend(lines)

    # Whole-evolver rate on the packed hot path (fitness + operators).
    num_ports, measured, singles = _wide_isa_problem(num_instructions=48)
    from repro.core import PortSpace

    evolver = PortMappingEvolver(
        PortSpace.numbered(num_ports),
        measured,
        singles,
        EvolutionConfig(
            population_size=scaled(POPULATION, minimum=CHUNK),
            max_generations=EVOLVER_GENERATIONS,
            seed=0,
        ),
    )
    state = evolver.init_state()
    epoch_start = time.perf_counter()
    evolver.advance(state, EVOLVER_GENERATIONS)
    epochs_per_second = EVOLVER_GENERATIONS / (time.perf_counter() - epoch_start)
    report.append(
        f"  evolver (48 instr, packed hot path): "
        f"{epochs_per_second:.2f} epochs/s (generations/s)"
    )

    append_result("fitness_kernel", "\n".join(report))

    best = max(a72_speedup, wide_speedup)
    assert best >= MIN_SPEEDUP, (
        f"packed kernel peaks at {best:.2f}x the legacy path "
        f"(need >= {MIN_SPEEDUP}x)"
    )
