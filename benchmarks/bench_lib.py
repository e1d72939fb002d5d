"""Shared helpers for the reproduction benchmarks (see conftest.py)."""

from __future__ import annotations

import os
from collections.abc import Mapping
from pathlib import Path

import numpy as np

from repro.core import ExperimentSet, MappingError
from repro.machine import Machine, MeasurementConfig, a72_machine
from repro.pmevo.expgen import pair_experiments, singleton_experiments
from repro.throughput import BatchedThroughputEvaluator
from repro.throughput.bottleneck import bottleneck_max, popcounts, zeta_transform

RESULTS_DIR = Path(__file__).parent / "results"

#: Global workload multiplier (paper-scale would be ~100).
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled(value: int, minimum: int = 1) -> int:
    """Scale an integer workload knob by ``REPRO_BENCH_SCALE``."""
    return max(minimum, int(round(value * SCALE)))


#: Records are written only when this is set, so an ordinary test run leaves
#: the tracked files alone; the nightly benchmark job sets it.
RECORD = os.environ.get("REPRO_BENCH_RECORD") == "1"


def write_result(name: str, text: str) -> None:
    """Print a bench's table/figure text; with ``REPRO_BENCH_RECORD=1``
    also persist it under benchmarks/results/."""
    print()
    print(text)
    if RECORD:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def append_result(name: str, text: str) -> None:
    """Print a bench's record; with ``REPRO_BENCH_RECORD=1`` also append it
    under benchmarks/results/ (kept across runs, so regressions show up as
    history rather than overwrites)."""
    print()
    print(text)
    if RECORD:
        RESULTS_DIR.mkdir(exist_ok=True)
        with open(RESULTS_DIR / f"{name}.txt", "a", encoding="utf-8") as handle:
            handle.write(text + "\n")


def stratified_forms(machine: Machine, per_class: int = 1, limit: int = 24) -> list[str]:
    """A deterministic, semantically diverse subsample of instruction forms.

    Takes up to ``per_class`` forms from every semantic class (so dividers,
    stores, shuffles etc. are all represented), capped at ``limit``.
    """
    by_class: dict[str, list[str]] = {}
    for form in machine.isa:
        by_class.setdefault(form.semantic_class, []).append(form.name)
    names: list[str] = []
    for cls in sorted(by_class):
        names.extend(by_class[cls][:per_class])
    return names[:limit]


def a72_problem() -> tuple[int, ExperimentSet, dict[str, float]]:
    """The kernel benches' real-machine shape: A72's 7 ports, one form per
    semantic class (16 forms), and their singleton and pair experiments
    measured noise-free.  Returns ``(ports, measurements, singletons)``."""
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


def uop_matrix(
    evaluator: BatchedThroughputEvaluator, genome: Mapping[str, Mapping[int, int]]
) -> np.ndarray:
    """Scatter a genome (``name -> {mask -> multiplicity}``) into a dense
    ``[instruction, 2^|P|]`` multiplicity matrix over ``evaluator``'s
    instruction universe: the dense reference the kernel benches time
    against ``bottleneck_rows`` and :func:`stacked_bottleneck_rows`.

    Instructions outside the universe are skipped (genomes may cover
    more instructions than the experiments use).
    """
    size = 1 << evaluator.num_ports
    matrix = np.zeros((len(evaluator._index), size), dtype=np.float64)
    for name, uops in genome.items():
        row = evaluator._index.get(name)
        if row is None:
            continue
        for mask, mult in uops.items():
            if mask <= 0 or mask >= size:
                raise MappingError(f"mask {mask:#x} invalid for {evaluator.num_ports} ports")
            matrix[row, mask] += float(mult)
    return matrix


def stacked_bottleneck_rows(counts: np.ndarray, uops: np.ndarray) -> np.ndarray:
    """``bottleneck_rows`` for a stack of mappings at once: ``uops[population,
    instruction, 2^|P|]`` against ``counts[experiment, instruction]`` gives
    the throughputs as ``[population, experiment]``.

    The legacy fitness path the kernel bench times: one dense mass product
    over the stack, then the zeta transform, the divide by ``|Q|`` and the
    max over all ``2^|P|`` sets of every experiment row.
    """
    num_ports = uops.shape[-1].bit_length() - 1
    masses = np.einsum("ei,piu->peu", counts, uops, optimize=True)
    zeta_transform(masses, num_ports)
    divisors = popcounts(num_ports).copy()
    divisors[0] = np.inf  # the empty set's zero mass never wins the max
    return bottleneck_max(masses, divisors)
