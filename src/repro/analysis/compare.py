"""Comparing port mappings: behavioural distance and structural equivalence.

Throughput measurements cannot distinguish mappings that differ only by a
*renaming of ports* (the paper: "the found compact mappings are not
necessarily identical to the port mappings that are really used in the
processor"), and many structurally different mappings induce identical
throughput functions.  This module provides the two useful notions of
"same mapping":

* :func:`throughput_distance` — behavioural: how differently two mappings
  predict a set of experiments (what PMEvo optimizes; 0 means the mappings
  are indistinguishable on those experiments);
* :func:`find_port_permutation` / :func:`permutation_equivalent` —
  structural: is one mapping exactly the other with ports renamed?  This
  is what "PMEvo recovered the ground truth" means in the strongest sense.

:func:`mapping_diff` renders a per-instruction comparison for humans.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.errors import MappingError
from repro.core.experiment import Experiment
from repro.core.mapping import ThreeLevelMapping
from repro.core.ports import indices_from_mask, mask_from_indices, mask_size
from repro.throughput.batched import FixedMappingEvaluator

__all__ = [
    "throughput_distance",
    "find_port_permutation",
    "permutation_equivalent",
    "canonical_experiments",
    "mapping_diff",
    "MappingComparison",
]


def _check_comparable(a: ThreeLevelMapping, b: ThreeLevelMapping) -> None:
    if a.ports.num_ports != b.ports.num_ports:
        raise MappingError(
            f"mappings have different port counts: "
            f"{a.ports.num_ports} vs {b.ports.num_ports}"
        )
    if set(a.instructions) != set(b.instructions):
        only_a = set(a.instructions) - set(b.instructions)
        only_b = set(b.instructions) - set(a.instructions)
        raise MappingError(
            f"mappings cover different instructions "
            f"(only in first: {sorted(only_a)[:3]}..., "
            f"only in second: {sorted(only_b)[:3]}...)"
        )


def canonical_experiments(names: Sequence[str]) -> list[Experiment]:
    """The experiment family PMEvo observes: singletons, pairs, and 1:3
    weighted pairs.

    Two mappings agreeing on these agree on everything PMEvo can measure
    about them with its standard experiment design.
    """
    experiments = [Experiment({name: 1}) for name in names]
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            experiments.append(Experiment({a: 1, b: 1}))
            experiments.append(Experiment({a: 1, b: 3}))
            experiments.append(Experiment({a: 3, b: 1}))
    return experiments


def throughput_distance(
    first: ThreeLevelMapping,
    second: ThreeLevelMapping,
    experiments: Iterable[Experiment] | None = None,
) -> float:
    """Mean relative throughput disagreement over ``experiments``.

    Defaults to :func:`canonical_experiments` over the common instruction
    set.  Returns 0.0 iff the mappings are observationally identical on
    the experiment family.  Each mapping predicts the whole family in one
    :meth:`~repro.throughput.batched.FixedMappingEvaluator.throughputs`
    call, which bounds its own count matrix however large the family.
    """
    _check_comparable(first, second)
    if experiments is None:
        experiments = canonical_experiments(sorted(first.instructions))
    experiments = list(experiments)
    if not experiments:
        raise MappingError("no experiments to compare on")
    t1 = FixedMappingEvaluator(first).throughputs(experiments)
    t2 = FixedMappingEvaluator(second).throughputs(experiments)
    return float(np.mean(np.abs(t1 - t2) / np.maximum(t1, t2)))


def _port_signature(mapping: ThreeLevelMapping, port: int) -> tuple:
    """Permutation-invariant description of one port's role.

    For every instruction, collect the (µop width, multiplicity) pairs of
    the µops executable on this port.  Any port renaming preserves widths
    and multiplicities, so matched ports must have equal signatures.
    """
    entries = []
    for name in mapping.instructions:
        uops = mapping.uops_of(name)
        touching = sorted(
            (mask_size(mask), count)
            for mask, count in uops.items()
            if mask & (1 << port)
        )
        if touching:
            entries.append((name, tuple(touching)))
    return tuple(entries)


def _apply_permutation(mask: int, permutation: Sequence[int]) -> int:
    return mask_from_indices(permutation[i] for i in indices_from_mask(mask))


def find_port_permutation(
    first: ThreeLevelMapping, second: ThreeLevelMapping
) -> tuple[int, ...] | None:
    """A port permutation turning ``first`` into ``second``, or ``None``.

    The returned tuple maps first-mapping port index ``i`` to second-mapping
    port index ``perm[i]``.  The search is brute force over permutations,
    but only within groups of ports with equal signatures, which keeps it
    tiny for realistic machines.
    """
    _check_comparable(first, second)
    num_ports = first.ports.num_ports

    signatures_first = [_port_signature(first, p) for p in range(num_ports)]
    signatures_second = [_port_signature(second, p) for p in range(num_ports)]

    # Candidate targets per source port: ports with the same signature.
    candidates: list[list[int]] = []
    for p in range(num_ports):
        matches = [q for q in range(num_ports) if signatures_second[q] == signatures_first[p]]
        if not matches:
            return None
        candidates.append(matches)

    names = first.instructions

    def matches_mapping(permutation: Sequence[int]) -> bool:
        for name in names:
            transformed = {}
            for mask, count in first.uops_of(name).items():
                new_mask = _apply_permutation(mask, permutation)
                transformed[new_mask] = transformed.get(new_mask, 0) + count
            if transformed != second.uops_of(name):
                return False
        return True

    def backtrack(position: int, used: set[int], current: list[int]):
        if position == num_ports:
            if matches_mapping(current):
                return tuple(current)
            return None
        for target in candidates[position]:
            if target in used:
                continue
            used.add(target)
            current.append(target)
            found = backtrack(position + 1, used, current)
            if found is not None:
                return found
            current.pop()
            used.remove(target)
        return None

    return backtrack(0, set(), [])


def permutation_equivalent(
    first: ThreeLevelMapping, second: ThreeLevelMapping
) -> bool:
    """True iff the mappings are identical up to a renaming of ports."""
    return find_port_permutation(first, second) is not None


@dataclass(frozen=True)
class MappingComparison:
    """Summary of a mapping-vs-mapping comparison."""

    behavioural_distance: float
    structurally_equivalent: bool
    permutation: tuple[int, ...] | None
    diff_text: str


def mapping_diff(
    first: ThreeLevelMapping,
    second: ThreeLevelMapping,
    first_label: str = "first",
    second_label: str = "second",
) -> MappingComparison:
    """Full comparison: behavioural distance, structural check, and a
    per-instruction textual diff (only instructions that differ)."""
    _check_comparable(first, second)
    permutation = find_port_permutation(first, second)
    distance = throughput_distance(first, second)

    lines = []
    for name in first.instructions:
        uops_a = first.uops_of(name)
        uops_b = second.uops_of(name)
        if uops_a == uops_b:
            continue
        render_a = " + ".join(
            f"{c}x{first.ports.format_mask(m)}" for m, c in uops_a.items()
        )
        render_b = " + ".join(
            f"{c}x{second.ports.format_mask(m)}" for m, c in uops_b.items()
        )
        lines.append(f"{name}:")
        lines.append(f"  {first_label}:  {render_a}")
        lines.append(f"  {second_label}: {render_b}")
    if not lines:
        diff_text = "mappings are identical"
    else:
        diff_text = "\n".join(lines)

    return MappingComparison(
        behavioural_distance=distance,
        structurally_equivalent=permutation is not None,
        permutation=permutation,
        diff_text=diff_text,
    )
