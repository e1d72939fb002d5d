"""Congruence filtering (Section 4.3).

Groups of instruction forms that use the same execution resources (e.g. all
the two-register ALU instructions) are indistinguishable by throughput
experiments.  PMEvo partitions the forms into *congruence classes* and runs
the evolutionary search only on one representative per class, shrinking the
search space dramatically (53%–69% of forms were congruent in the paper's
Table 2).

Two forms ``iA`` and ``iB`` are congruent iff

* their individual throughputs are equal, and
* for every third form ``iC``, the experiments ``{iA->m, iC->n}`` and
  ``{iB->m, iC->n}`` present in the measured set have equal throughputs,

where "equal" means the symmetric relative difference is below a
user-chosen ``epsilon``:  ``|t1 - t2| / (|t1 + t2| / 2) < epsilon``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.core.errors import ExperimentError
from repro.core.experiment import ExperimentSet

__all__ = ["throughputs_equal", "CongruencePartition", "find_congruence_classes"]


def throughputs_equal(t1: float, t2: float, epsilon: float) -> bool:
    """Equality up to measurement error (symmetric relative difference)."""
    if t1 == t2:
        return True
    denominator = abs(t1 + t2) / 2.0
    if denominator == 0.0:
        return False
    return abs(t1 - t2) / denominator < epsilon


@dataclass
class CongruencePartition:
    """The result of congruence filtering.

    Attributes
    ----------
    classes:
        Representative name -> sorted list of all members (including the
        representative itself).
    representative_of:
        Member name -> representative name, for every instruction.
    epsilon:
        The tolerance the partition was computed with.
    """

    classes: dict[str, list[str]]
    representative_of: dict[str, str]
    epsilon: float

    @property
    def representatives(self) -> tuple[str, ...]:
        return tuple(sorted(self.classes.keys()))

    @property
    def num_instructions(self) -> int:
        return len(self.representative_of)

    def congruent_fraction(self) -> float:
        """Fraction of instructions filtered out as congruent (Table 2's
        "insns found congruent" row)."""
        total = len(self.representative_of)
        if total == 0:
            return 0.0
        return (total - len(self.classes)) / total

    def translation(self) -> dict[str, str]:
        """Mapping from non-representative members to representatives."""
        return {
            name: rep
            for name, rep in self.representative_of.items()
            if name != rep
        }


class _PairTable:
    """Fast lookup of measured multi-instruction experiments.

    Keys every two-support experiment ``{a->m, b->n}`` under both
    orientations: ``(a, b) -> {(m, n): throughput}``.
    """

    def __init__(self, measurements: ExperimentSet):
        self.singletons: dict[str, float] = {}
        self.pairs: dict[tuple[str, str], dict[tuple[int, int], float]] = {}
        for item in measurements:
            exp = item.experiment
            support = exp.support
            if len(support) == 1:
                name = support[0]
                if exp[name] == 1:
                    self.singletons[name] = item.throughput
            elif len(support) == 2:
                a, b = support
                self.pairs.setdefault((a, b), {})[(exp[a], exp[b])] = item.throughput
                self.pairs.setdefault((b, a), {})[(exp[b], exp[a])] = item.throughput

    def profile(self, name: str, other: str) -> dict[tuple[int, int], float]:
        return self.pairs.get((name, other), {})


def find_congruence_classes(
    measurements: ExperimentSet,
    epsilon: float = 0.05,
    names: Sequence[str] | None = None,
) -> CongruencePartition:
    """Partition instruction forms into congruence classes.

    Parameters
    ----------
    measurements:
        Measured experiments; must contain a singleton for every name and
        should contain the pair experiments of Section 4.1 (missing pair
        data simply cannot separate two forms).
    epsilon:
        Symmetric-relative-difference tolerance (the paper uses 0.05).
    names:
        Instruction universe; defaults to every name occurring in a
        singleton experiment.
    """
    if epsilon <= 0:
        raise ExperimentError(f"epsilon must be positive, got {epsilon}")
    table = _PairTable(measurements)
    universe = list(names) if names is not None else sorted(table.singletons)
    for name in universe:
        if name not in table.singletons:
            raise ExperimentError(f"no singleton measurement for {name!r}")

    def congruent(a: str, b: str) -> bool:
        if not throughputs_equal(table.singletons[a], table.singletons[b], epsilon):
            return False
        for c in universe:
            if c == a or c == b:
                continue
            profile_a = table.profile(a, c)
            profile_b = table.profile(b, c)
            for key in profile_a.keys() & profile_b.keys():
                if not throughputs_equal(profile_a[key], profile_b[key], epsilon):
                    return False
        return True

    classes: dict[str, list[str]] = {}
    representative_of: dict[str, str] = {}
    for name in universe:
        placed = False
        for rep in classes:
            if congruent(rep, name):
                classes[rep].append(name)
                representative_of[name] = rep
                placed = True
                break
        if not placed:
            classes[name] = [name]
            representative_of[name] = name
    for members in classes.values():
        members.sort()
    return CongruencePartition(
        classes=classes, representative_of=representative_of, epsilon=epsilon
    )
