"""The evolver's original dict-genome sampler and recombination, kept as
test oracles.

These are initialization and recombination as they were before the
population operators: one genome, or one parent pair, at a time, over dict
genomes, drawing from the generator as they go.  ``tests/test_population.py``
requires :func:`repro.pmevo.operators.random_population` to equal packing
:func:`random_population`'s genomes, and ``tests/test_operators.py``
requires :func:`repro.pmevo.operators.recombine` to return exactly the
children :func:`recombine_population` builds, both from the same generator,
in the same dict insertion orders, and leaving the generator in the same
state.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.errors import InferenceError
from repro.core.ports import mask_size
from repro.pmevo.population import Genome, multiplicity_bound

__all__ = ["random_genome", "random_population", "recombine_pair", "recombine_population"]


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


def _merge_edges(target: dict[int, int], mask: int, count: int) -> None:
    if count > 0:
        target[mask] = target.get(mask, 0) + count


def recombine_pair(
    rng: np.random.Generator, parent_a: Genome, parent_b: Genome
) -> tuple[Genome, Genome]:
    """Binary recombination: per-instruction random split of pooled edges.

    Both parents must cover the same instruction set.  Returns two children.
    """
    child_a: Genome = {}
    child_b: Genome = {}
    for name, uops_a in parent_a.items():
        uops_b = parent_b[name]
        pooled = [(mask, count) for mask, count in uops_a.items()]
        pooled += [(mask, count) for mask, count in uops_b.items()]
        side = rng.integers(0, 2, size=len(pooled))
        to_a: dict[int, int] = {}
        to_b: dict[int, int] = {}
        for (mask, count), bit in zip(pooled, side):
            _merge_edges(to_a if bit == 0 else to_b, mask, count)
        # Re-establish the "at least one µop" invariant: hand a random
        # pooled edge to the empty side (both sides can't be empty).
        if not to_a:
            mask, count = pooled[int(rng.integers(0, len(pooled)))]
            _merge_edges(to_a, mask, count)
        if not to_b:
            mask, count = pooled[int(rng.integers(0, len(pooled)))]
            _merge_edges(to_b, mask, count)
        child_a[name] = to_a
        child_b[name] = to_b
    return child_a, child_b


def recombine_population(
    rng: np.random.Generator, population: list[Genome], count: int
) -> list[Genome]:
    """The evolver's child loop: two uniform parent draws, then one
    :func:`recombine_pair`, per pair, until ``count`` children exist."""
    children: list[Genome] = []
    while len(children) < count:
        i = int(rng.integers(0, len(population)))
        j = int(rng.integers(0, len(population)))
        child_a, child_b = recombine_pair(rng, population[i], population[j])
        children.append(child_a)
        if len(children) < count:
            children.append(child_b)
    return children
