"""Experiments: multisets of instruction forms with measured throughputs.

Per Section 3.1 of the paper, an experiment abstracts from instruction order
and is represented as a multiset ``e : I -> N`` mapping instruction forms to
their number of occurrences.  PMEvo only uses experiments whose instructions
the scheduler can reorder freely, so the multiset view loses nothing.

:class:`Experiment` is an immutable multiset keyed by instruction-form *name*
(a string), so the analytical layer does not depend on ISA objects.
:class:`ExperimentSet` pairs experiments with measured throughputs — the
``E ⊆ (I -> N) × R`` of Section 4.4 — and is the unit of data handed to the
evolutionary algorithm.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass

from repro.core.errors import ExperimentError

__all__ = ["Experiment", "MeasuredExperiment", "ExperimentSet"]


class Experiment:
    """An immutable multiset of instruction form names.

    >>> e = Experiment({"add": 2, "mul": 1})
    >>> e["add"], e["mul"], e["store"]
    (2, 1, 0)
    >>> e.size
    3
    """

    __slots__ = ("_counts", "_key")

    def __init__(self, counts: Mapping[str, int] | Iterable[tuple[str, int]]):
        items = dict(counts)
        for name, count in items.items():
            if not isinstance(count, int):
                raise ExperimentError(f"count for {name!r} must be int, got {count!r}")
            if count <= 0:
                raise ExperimentError(f"count for {name!r} must be positive, got {count}")
        if not items:
            raise ExperimentError("an experiment must contain at least one instruction")
        self._counts: dict[str, int] = dict(sorted(items.items()))
        self._key: tuple[tuple[str, int], ...] = tuple(self._counts.items())

    @classmethod
    def singleton(cls, name: str, count: int = 1) -> "Experiment":
        """The experiment ``{name -> count}``."""
        return cls({name: count})

    @classmethod
    def from_sequence(cls, names: Iterable[str]) -> "Experiment":
        """Build an experiment by counting a sequence of instruction names."""
        counts: dict[str, int] = {}
        for name in names:
            counts[name] = counts.get(name, 0) + 1
        return cls(counts)

    @property
    def counts(self) -> Mapping[str, int]:
        """The underlying name -> count mapping (sorted by name)."""
        return dict(self._counts)

    @property
    def size(self) -> int:
        """Total number of instruction instances (with multiplicity)."""
        return sum(self._counts.values())

    @property
    def support(self) -> tuple[str, ...]:
        """The distinct instruction form names, sorted."""
        return tuple(self._counts.keys())

    def __getitem__(self, name: str) -> int:
        return self._counts.get(name, 0)

    def __contains__(self, name: object) -> bool:
        return name in self._counts

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return iter(self._key)

    def __len__(self) -> int:
        """Number of *distinct* instruction forms."""
        return len(self._counts)

    def instances(self) -> Iterator[str]:
        """Iterate over instruction names with multiplicity.

        >>> list(Experiment({"a": 2, "b": 1}).instances())
        ['a', 'a', 'b']
        """
        for name, count in self._key:
            for _ in range(count):
                yield name

    def scaled(self, factor: int) -> "Experiment":
        """Return the experiment with every count multiplied by ``factor``."""
        if factor <= 0:
            raise ExperimentError(f"scale factor must be positive, got {factor}")
        return Experiment({name: count * factor for name, count in self._key})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Experiment):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}: {count}" for name, count in self._key)
        return f"Experiment({{{inner}}})"


@dataclass(frozen=True)
class MeasuredExperiment:
    """An experiment together with its measured throughput in cycles."""

    experiment: Experiment
    throughput: float

    def __post_init__(self) -> None:
        if self.throughput <= 0.0:
            raise ExperimentError(
                f"measured throughput must be positive, got {self.throughput}"
            )


class ExperimentSet:
    """An ordered collection of measured experiments.

    This is the data handed to the evolutionary algorithm: the set ``E`` of
    Section 4.4.  Iteration order is insertion order, which keeps fitness
    evaluation deterministic.
    """

    def __init__(self, items: Iterable[MeasuredExperiment] = ()):
        self._items: list[MeasuredExperiment] = list(items)

    def add(self, experiment: Experiment, throughput: float) -> None:
        """Append a measured experiment."""
        self._items.append(MeasuredExperiment(experiment, throughput))

    @property
    def experiments(self) -> tuple[Experiment, ...]:
        return tuple(item.experiment for item in self._items)

    @property
    def throughputs(self) -> tuple[float, ...]:
        return tuple(item.throughput for item in self._items)

    def instruction_names(self) -> tuple[str, ...]:
        """Sorted names of all instructions occurring in any experiment."""
        names: set[str] = set()
        for item in self._items:
            names.update(item.experiment.support)
        return tuple(sorted(names))

    def singleton_throughput(self, name: str) -> float | None:
        """Measured throughput of the ``{name -> 1}`` experiment, if present."""
        for item in self._items:
            exp = item.experiment
            if len(exp) == 1 and exp[name] == 1 and exp.size == 1:
                return item.throughput
        return None

    def restricted_to(self, names: Iterable[str]) -> "ExperimentSet":
        """Keep only experiments whose support is within ``names``."""
        allowed = set(names)
        return ExperimentSet(
            item
            for item in self._items
            if all(name in allowed for name in item.experiment.support)
        )

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[MeasuredExperiment]:
        return iter(self._items)

    def __getitem__(self, index: int) -> MeasuredExperiment:
        return self._items[index]

    def __repr__(self) -> str:
        return f"ExperimentSet({len(self._items)} experiments)"
