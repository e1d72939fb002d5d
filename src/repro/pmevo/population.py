"""Genomes and population initialization (Section 4.4).

The evolutionary algorithm's representation scheme is the three-level port
mapping itself: a *genome* maps each instruction name to its µop
decomposition ``{port mask -> multiplicity}``.  µops are identified with the
set of ports that can execute them, so any non-empty subset of P is a valid
µop.

Initialization follows the paper: for each instruction, sample 1..|P|
distinct µops; the multiplicity of a µop ``u`` is drawn from
``[1, ceil(t*(i) · |u|)]`` — an instruction with ``ceil(t·|u|)`` copies of
``u`` can achieve no throughput below ``t``, so higher multiplicities can
never help explain the measured singleton throughput ``t*(i)``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.errors import InferenceError
from repro.core.ports import mask_size

__all__ = [
    "Genome",
    "random_genome",
    "random_population",
    "genome_volume",
    "genome_key",
    "copy_genome",
    "genome_to_jsonable",
]

#: A genome: instruction name -> (port mask -> µop multiplicity).
Genome = dict[str, dict[int, int]]


def copy_genome(genome: Genome) -> Genome:
    """Deep copy (two levels) of a genome."""
    return {name: dict(uops) for name, uops in genome.items()}


def genome_key(genome: Genome) -> tuple:
    """Canonical hashable identity of a genome (for deduplication)."""
    return tuple(
        (name, tuple(sorted(uops.items()))) for name, uops in sorted(genome.items())
    )


def genome_to_jsonable(genome: Genome) -> dict[str, dict[str, int]]:
    """JSON-safe form of a genome (mask keys become strings).

    Insertion order of instructions and µops is preserved, so the
    serialized bytes pin the genome's dict iteration order too.
    """
    return {
        name: {str(mask): count for mask, count in uops.items()}
        for name, uops in genome.items()
    }


def genome_volume(genome: Genome) -> int:
    """The µop volume ``V = Σ n·|u|`` of a genome (Section 4.4)."""
    return sum(
        count * mask_size(mask)
        for uops in genome.values()
        for mask, count in uops.items()
    )


def multiplicity_bound(throughput: float, width: int) -> int:
    """Upper bound ``ceil(t*(i) · |u|)`` for a µop's multiplicity."""
    return max(1, math.ceil(throughput * width - 1e-12))


def random_genome(
    rng: np.random.Generator,
    names: Sequence[str],
    num_ports: int,
    singleton_throughputs: Mapping[str, float],
) -> Genome:
    """Sample one genome per the paper's initialization scheme."""
    if num_ports <= 0:
        raise InferenceError(f"number of ports must be positive, got {num_ports}")
    num_masks = (1 << num_ports) - 1
    genome: Genome = {}
    for name in names:
        throughput = singleton_throughputs.get(name)
        if throughput is None:
            raise InferenceError(f"missing singleton throughput for {name!r}")
        uop_count = int(rng.integers(1, num_ports + 1))
        uop_count = min(uop_count, num_masks)
        masks = rng.choice(num_masks, size=uop_count, replace=False) + 1
        uops: dict[int, int] = {}
        for mask in masks.tolist():
            bound = multiplicity_bound(throughput, mask_size(mask))
            uops[mask] = int(rng.integers(1, bound + 1))
        genome[name] = uops
    return genome


def random_population(
    rng: np.random.Generator,
    size: int,
    names: Sequence[str],
    num_ports: int,
    singleton_throughputs: Mapping[str, float],
) -> list[Genome]:
    """Sample the initial population of ``size`` genomes."""
    if size <= 0:
        raise InferenceError(f"population size must be positive, got {size}")
    return [
        random_genome(rng, names, num_ports, singleton_throughputs)
        for _ in range(size)
    ]
