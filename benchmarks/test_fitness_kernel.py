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
  the math over the ``2^|P|`` mask space dominates.  The legacy path
  zeta-transforms every experiment's mass row and divides all ``2^|P|``
  masses; the packed kernel zeta-transforms each genome's µop stack
  instead (16 instruction rows against 214 experiment rows) before the
  product with the counts, and divides only the ``|P|`` per-size maxima.
  It must be >= 2x cheaper in CPU here.
* ``wide-isa`` — many instruction forms over a small port count (the
  Figure 8a low-port regime).  Here the per-genome Python traffic is the
  wall, and packing removes it wholesale; the best of the two shapes must
  reach >= 3x.

The packed side calls the kernel as the evolver does, so it runs at the
kernel's own block of genomes, and the record names that block; the legacy
side stacks ``CHUNK`` genomes per dense product.

A third record is the whole evolver on the a72 shape at population 256:
generations per CPU second, and a generation's CPU time over the CPU time
spent inside ``throughputs_from_packed``.  That ratio must stay <= 2.5, so
the Python around the kernel (recombination, deduplicating selection,
bookkeeping) cannot creep back; it compares two figures of one run, so a
slow host cannot fail it.

Each path is timed as best-of-N process CPU seconds
(:func:`time.process_time`), which hypervisor steal cannot inflate the way
it inflates wall time on a shared host; the legacy and packed runs
alternate, and the wall-clock rates are printed beside them.  With
``REPRO_BENCH_RECORD=1`` results are *appended* to
``benchmarks/results/fitness_kernel.txt`` so speedups accumulate as history
across runs.
"""

from __future__ import annotations

import time

import numpy as np

from bench_lib import (
    a72_problem,
    append_result,
    scaled,
    stacked_bottleneck_rows,
    uop_matrix,
)
from repro.core import Experiment, ExperimentSet
from repro.pmevo import (
    EvolutionConfig,
    PackedPopulation,
    PortMappingEvolver,
    random_population,
)
from repro.pmevo.population import genome_volume
from repro.throughput import BatchedThroughputEvaluator
from repro.throughput.batched import _PACKED_BLOCK

POPULATION = 256
CHUNK = 64
REPEATS = 5
EVOLVER_GENERATIONS = 20
MIN_SPEEDUP = 3.0
MIN_A72_SPEEDUP = 2.0
MAX_GENERATION_OVER_KERNEL = 2.5


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
        matrices = np.stack([uop_matrix(evaluator, genome) for genome in part])
        predicted[start : start + len(part)] = stacked_bottleneck_rows(evaluator.counts, matrices)
    davgs = evaluator.davg_from_throughputs(predicted)
    volumes = np.empty(len(genomes), dtype=np.float64)
    for i, genome in enumerate(genomes):
        volumes[i] = genome_volume(genome)
    return davgs, volumes


def _packed_fitness(evaluator, genomes, names):
    """The evolver's ``_evaluate``: pack once, evaluate population-wide."""
    packed = PackedPopulation.from_genomes(genomes, names)
    predicted = evaluator.throughputs_from_packed(packed)
    davgs = evaluator.davg_from_throughputs(predicted)
    volumes = packed.volumes().astype(np.float64)
    return davgs, volumes


def _best_seconds(legacy, packed, repeats=REPEATS):
    """Best-of-``repeats`` process CPU seconds and wall seconds of
    ``legacy`` and of ``packed``, each with its last result.  The two run
    alternately, so a burst of host noise hits both sides alike."""
    best = {fn: [float("inf"), float("inf"), None] for fn in (legacy, packed)}
    for _ in range(repeats):
        for fn, record in best.items():
            cpu_start, wall_start = time.process_time(), time.perf_counter()
            record[2] = fn()
            record[1] = min(record[1], time.perf_counter() - wall_start)
            record[0] = min(record[0], time.process_time() - cpu_start)
    return best[legacy], best[packed]


def _legacy_kernel(evaluator, genomes, chunk):
    """Legacy throughput kernel alone: per-genome scatter + chunked einsum."""
    predicted = np.empty(
        (len(genomes), evaluator.num_experiments), dtype=np.float64
    )
    for start in range(0, len(genomes), chunk):
        part = genomes[start : start + chunk]
        matrices = np.stack([uop_matrix(evaluator, genome) for genome in part])
        predicted[start : start + len(part)] = stacked_bottleneck_rows(evaluator.counts, matrices)
    return predicted


def _time_shape(label, num_ports, measured, singles, names=None):
    if names is None:
        names = tuple(measured.instruction_names())
    evaluator = BatchedThroughputEvaluator(measured, names, num_ports)
    population_size = scaled(POPULATION, minimum=CHUNK)
    rng = np.random.default_rng(0)
    packed = random_population(rng, population_size, names, num_ports, singles)
    genomes = packed.to_genomes()

    # Kernel proper: dense scatter + evaluation, population already packed.
    kernel_legacy, kernel_packed = _best_seconds(
        lambda: _legacy_kernel(evaluator, genomes, CHUNK),
        lambda: evaluator.throughputs_from_packed(packed),
    )
    kernel_legacy_cpu, kernel_legacy_wall, kernel_legacy_out = kernel_legacy
    kernel_packed_cpu, kernel_packed_wall, kernel_packed_out = kernel_packed
    assert np.array_equal(kernel_legacy_out, kernel_packed_out)

    # End to end, as `_evaluate` runs it: pack + kernel + D_avg + volumes.
    (legacy_cpu, legacy_wall, legacy_out), (packed_cpu, packed_wall, packed_out) = _best_seconds(
        lambda: _legacy_fitness(evaluator, genomes, CHUNK),
        lambda: _packed_fitness(evaluator, genomes, names),
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


def _generation_cost(num_ports, measured, singles):
    """CPU seconds of the evolver's generations, and of the kernel calls
    inside them, on one problem at the bench population."""
    from repro.core import PortSpace

    evolver = PortMappingEvolver(
        PortSpace.numbered(num_ports),
        measured,
        singles,
        EvolutionConfig(
            population_size=scaled(POPULATION, minimum=CHUNK),
            max_generations=EVOLVER_GENERATIONS,
            patience=EVOLVER_GENERATIONS,
            seed=0,
        ),
    )
    kernel = evolver.evaluator.throughputs_from_packed
    kernel_cpu = [0.0]

    def timed_kernel(*args, **kwargs):
        start = time.process_time()
        try:
            return kernel(*args, **kwargs)
        finally:
            kernel_cpu[0] += time.process_time() - start

    evolver.evaluator.throughputs_from_packed = timed_kernel
    state = evolver.init_state()
    kernel_cpu[0] = 0.0
    start = time.process_time()
    evolver.advance(state, EVOLVER_GENERATIONS)
    return state.generation, time.process_time() - start, kernel_cpu[0]


def test_fitness_kernel_speedup():
    report = [
        f"fitness-kernel (legacy dict path, {CHUNK} genomes per product -> "
        f"packed kernel, blocks of {_PACKED_BLOCK} genomes)"
    ]

    a72 = a72_problem()
    a72_speedup, lines = _time_shape("a72", *a72)
    report.extend(lines)
    num_ports, measured, singles = _wide_isa_problem()
    wide_names = tuple(f"op{i}" for i in range(160))
    wide_speedup, lines = _time_shape(
        "wide-isa", num_ports, measured, singles, names=wide_names
    )
    report.extend(lines)

    # Whole-evolver rate on the a72 shape (operators, selection, kernel).
    generations, generation_cpu, kernel_cpu = _generation_cost(*a72)
    over_kernel = generation_cpu / kernel_cpu
    report.append(
        f"  evolver (a72, pop={scaled(POPULATION, minimum=CHUNK)}): "
        f"{generations / generation_cpu:.1f} generations/CPU-s; a generation "
        f"costs {over_kernel:.2f}x its kernel CPU"
    )

    append_result("fitness_kernel", "\n".join(report))

    best = max(a72_speedup, wide_speedup)
    assert best >= MIN_SPEEDUP, (
        f"packed kernel peaks at {best:.2f}x the legacy path "
        f"(need >= {MIN_SPEEDUP}x)"
    )
    assert a72_speedup >= MIN_A72_SPEEDUP, (
        f"packed kernel is {a72_speedup:.2f}x the legacy path on a72 "
        f"(need >= {MIN_A72_SPEEDUP}x)"
    )
    assert over_kernel <= MAX_GENERATION_OVER_KERNEL, (
        f"a generation costs {over_kernel:.2f}x the CPU of its kernel calls "
        f"(need <= {MAX_GENERATION_OVER_KERNEL}x)"
    )
