"""The evolver's original per-pair recombination, kept as a test oracle.

This is recombination as it was before the population operator: one
parent pair at a time, over dict genomes, drawing from the generator as it
goes.  ``tests/test_operators.py`` requires
:func:`repro.pmevo.operators.recombine` to return exactly the children
:func:`recombine_population` builds from the same generator, in the same
dict insertion orders, and to leave the generator in the same state.
"""

from __future__ import annotations

import numpy as np

from repro.pmevo.population import Genome

__all__ = ["recombine_pair", "recombine_population"]


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
