"""Dict genomes and the initialization bound (Section 4.4).

The evolutionary algorithm's representation scheme is the three-level port
mapping itself: a *genome* maps each instruction name to its µop
decomposition ``{port mask -> multiplicity}``.  µops are identified with the
set of ports that can execute them, so any non-empty subset of P is a valid
µop.  The evolver keeps its population packed
(:class:`~repro.pmevo.packed.PackedPopulation`); dict genomes appear at
local search and export, and in the mutation ablation.

Initialization follows the paper: for each instruction, sample 1..|P|
distinct µops; the multiplicity of a µop ``u`` is drawn from
``[1, ceil(t*(i) · |u|)]`` (:func:`multiplicity_bound`) — an instruction
with ``ceil(t·|u|)`` copies of ``u`` can achieve no throughput below ``t``,
so higher multiplicities can never help explain the measured singleton
throughput ``t*(i)``.  :func:`repro.pmevo.operators.random_population`
samples a whole packed population this way.
"""

from __future__ import annotations

import math

from repro.core.ports import mask_size

__all__ = [
    "Genome",
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
