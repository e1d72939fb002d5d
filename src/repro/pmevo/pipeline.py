"""The end-to-end PMEvo pipeline (Figure 5).

::

    ISA ──> Experiment Generation ──> Throughput Measurement
                                          │
                                          v
    port mapping <── Evolutionary  <── Congruence
                     Optimization       Filtering

:func:`infer_port_mapping` wires the stages together against a
:class:`repro.machine.Machine` (or anything with the same ``measure``/
``isa`` interface) and returns the inferred mapping extended back to the
full instruction set, plus the statistics the paper's Table 2 reports.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.experiment import Experiment, ExperimentSet
from repro.core.mapping import ThreeLevelMapping
from repro.core.ports import PortSpace
from repro.machine.measurement import Machine
from repro.pmevo.checkpoint import Checkpointer, CheckpointSnapshot
from repro.pmevo.congruence import CongruencePartition, find_congruence_classes
from repro.pmevo.evolution import EvolutionConfig, EvolutionResult, PortMappingEvolver
from repro.pmevo.expgen import pair_experiments, singleton_experiments
from repro.pmevo.transport import MigrationTransport

__all__ = ["PMEvoConfig", "PMEvoResult", "infer_port_mapping"]


@dataclass(frozen=True)
class PMEvoConfig:
    """Configuration of the full pipeline.

    ``num_ports`` is the user-supplied port count of Figure 5 (defaults to
    the machine's true port count, which is what the paper's evaluation
    does: Table 1 lists the known port counts).  ``epsilon`` is the
    congruence tolerance of Section 4.3.
    """

    epsilon: float = 0.05
    num_ports: int | None = None
    evolution: EvolutionConfig = EvolutionConfig()


@dataclass
class PMEvoResult:
    """Everything the pipeline produced, including Table 2 statistics."""

    mapping: ThreeLevelMapping
    representative_mapping: ThreeLevelMapping
    partition: CongruencePartition
    evolution: EvolutionResult
    measurements: ExperimentSet
    benchmarking_seconds: float
    inference_seconds: float

    @property
    def congruent_fraction(self) -> float:
        """Fraction of instruction forms filtered as congruent (Table 2)."""
        return self.partition.congruent_fraction()

    @property
    def num_uops(self) -> int:
        """Number of distinct µops in the inferred mapping (Table 2)."""
        return len(self.representative_mapping.distinct_uops())

    def table2_row(self) -> dict[str, float | int | str]:
        """The Table 2 row for this run."""
        return {
            "benchmarking time (s)": round(self.benchmarking_seconds, 2),
            "inference time (s)": round(self.inference_seconds, 2),
            "insns found congruent": f"{100 * self.congruent_fraction:.0f}%",
            "number of uops": self.num_uops,
        }


def infer_port_mapping(
    machine: Machine,
    names: Sequence[str] | None = None,
    config: PMEvoConfig | None = None,
    *,
    transport: MigrationTransport | None = None,
    checkpointer: Checkpointer | None = None,
    resume: CheckpointSnapshot | None = None,
) -> PMEvoResult:
    """Run the full PMEvo pipeline against a machine.

    Parameters
    ----------
    machine:
        The processor under test; only its measurement interface is used.
    names:
        Instruction form names to infer a mapping for (defaults to the
        machine's full ISA).
    config:
        Pipeline configuration.
    transport:
        Where island epochs run (see :mod:`repro.pmevo.transport`).
    checkpointer:
        Writes atomic evolution snapshots at epoch barriers.
    resume:
        A loaded checkpoint to continue from.  The measurement and
        congruence stages are deterministic for a fixed machine/seed, so
        re-running them and resuming the evolution reproduces the
        uninterrupted run bit-identically.
    """
    config = config or PMEvoConfig()
    universe = tuple(names if names is not None else machine.isa.names)

    # Stage 1+2: experiment generation and throughput measurement.
    bench_start = time.perf_counter()
    singles = singleton_experiments(universe)
    measured = ExperimentSet()
    singleton_throughputs: dict[str, float] = {}
    for experiment in singles:
        throughput = machine.measure(experiment)
        measured.add(experiment, throughput)
        singleton_throughputs[experiment.support[0]] = throughput
    for experiment in pair_experiments(universe, singleton_throughputs):
        measured.add(experiment, machine.measure(experiment))
    benchmarking_seconds = time.perf_counter() - bench_start

    # Stage 3: congruence filtering.
    inference_start = time.perf_counter()
    partition = find_congruence_classes(
        measured, epsilon=config.epsilon, names=universe
    )
    representatives = set(partition.representatives)
    reduced = measured.restricted_to(representatives)

    # Stage 4: evolutionary optimization over the representatives.
    num_ports = config.num_ports or machine.config.ports.num_ports
    ports = (
        machine.config.ports
        if num_ports == machine.config.ports.num_ports
        else PortSpace.numbered(num_ports)
    )
    # A single island is exactly the sequential Algorithm 1; more than one
    # is the island-model parallel search (Section 4.5's "parallelized
    # implementation of a genetic algorithm").
    representative_singles = {
        k: v for k, v in singleton_throughputs.items() if k in representatives
    }
    evolution = PortMappingEvolver(
        ports, reduced, representative_singles, config.evolution
    ).run(transport=transport, checkpointer=checkpointer, resume=resume)

    # Extend the representative mapping to all congruent instructions.
    full_mapping = evolution.mapping.extended_by(partition.translation())
    inference_seconds = time.perf_counter() - inference_start

    return PMEvoResult(
        mapping=full_mapping,
        representative_mapping=evolution.mapping,
        partition=partition,
        evolution=evolution,
        measurements=measured,
        benchmarking_seconds=benchmarking_seconds,
        inference_seconds=inference_seconds,
    )
