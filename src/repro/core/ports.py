"""Ports and port sets.

Execution ports are the scarce resource of the out-of-order backend: each
port accepts at most one µop per cycle (Section 2 of the paper).  Throughout
the library a *port* is identified by a small non-negative integer index into
a :class:`PortSpace`, and a *set of ports* is represented as a bitmask
(``int``).  Bitmasks make the bottleneck simulation algorithm (Section 4.5)
a handful of integer operations per subset, and they vectorize cleanly.

:class:`PortSpace` is the naming layer on top: it remembers human-readable
port names (``"P0"``, ``"DIV"``, ...) and converts between names, indices,
iterables of indices, and masks.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from repro.core.errors import MappingError

__all__ = [
    "PortSpace",
    "mask_from_indices",
    "indices_from_mask",
    "mask_size",
    "iter_subsets",
    "iter_nonempty_subsets",
]


def mask_from_indices(indices: Iterable[int]) -> int:
    """Return the bitmask with the given port indices set.

    >>> mask_from_indices([0, 2])
    5
    """
    mask = 0
    for index in indices:
        if index < 0:
            raise MappingError(f"port index must be non-negative, got {index}")
        mask |= 1 << index
    return mask


def indices_from_mask(mask: int) -> tuple[int, ...]:
    """Return the sorted tuple of port indices contained in ``mask``.

    >>> indices_from_mask(5)
    (0, 2)
    """
    if mask < 0:
        raise MappingError(f"port mask must be non-negative, got {mask}")
    indices = []
    index = 0
    while mask:
        if mask & 1:
            indices.append(index)
        mask >>= 1
        index += 1
    return tuple(indices)


def mask_size(mask: int) -> int:
    """Return the number of ports in ``mask`` (the µop *width* |u|)."""
    return mask.bit_count()


def iter_subsets(mask: int) -> Iterator[int]:
    """Iterate over all subsets of ``mask``, including 0 and ``mask`` itself.

    Uses the standard descending subset-enumeration trick; the empty set is
    yielded last.
    """
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def iter_nonempty_subsets(mask: int) -> Iterator[int]:
    """Iterate over all non-empty subsets of ``mask``."""
    for sub in iter_subsets(mask):
        if sub:
            yield sub


class PortSpace:
    """A named, ordered collection of execution ports.

    The port space fixes the universe ``P`` of Definition 2/4.  All masks in
    mappings over this space must be subsets of :attr:`full_mask`.

    Parameters
    ----------
    names:
        Port names in index order, e.g. ``["P0", "P1", ..., "DIV"]``.
        Names must be unique and non-empty.
    """

    __slots__ = ("_names", "_index_by_name")

    def __init__(self, names: Sequence[str]):
        names = tuple(names)
        if not names:
            raise MappingError("a port space needs at least one port")
        if len(set(names)) != len(names):
            raise MappingError(f"duplicate port names in {names!r}")
        if any(not name for name in names):
            raise MappingError("port names must be non-empty strings")
        self._names = names
        self._index_by_name = {name: i for i, name in enumerate(names)}

    @classmethod
    def numbered(cls, count: int) -> "PortSpace":
        """Create a port space of ``count`` ports named ``P0 .. P{count-1}``."""
        if count <= 0:
            raise MappingError(f"port count must be positive, got {count}")
        return cls([f"P{i}" for i in range(count)])

    @property
    def names(self) -> tuple[str, ...]:
        """Port names in index order."""
        return self._names

    @property
    def num_ports(self) -> int:
        """Number of ports |P|."""
        return len(self._names)

    @property
    def full_mask(self) -> int:
        """Bitmask with all ports set."""
        return (1 << len(self._names)) - 1

    def index(self, name: str) -> int:
        """Return the index of the port called ``name``."""
        try:
            return self._index_by_name[name]
        except KeyError:
            raise MappingError(f"unknown port {name!r}; have {self._names}") from None

    def mask(self, *names: str) -> int:
        """Return the bitmask of the ports with the given names.

        >>> PortSpace.numbered(4).mask("P0", "P2")
        5
        """
        return mask_from_indices(self.index(name) for name in names)

    def mask_names(self, mask: int) -> tuple[str, ...]:
        """Return the names of the ports in ``mask``."""
        self.check_mask(mask)
        return tuple(self._names[i] for i in indices_from_mask(mask))

    def check_mask(self, mask: int) -> int:
        """Validate that ``mask`` only uses ports of this space; return it."""
        if mask < 0 or mask & ~self.full_mask:
            raise MappingError(
                f"mask {mask:#x} uses ports outside this {self.num_ports}-port space"
            )
        return mask

    def format_mask(self, mask: int) -> str:
        """Human-readable rendering of a port set, e.g. ``{P0,P5}``."""
        return "{" + ",".join(self.mask_names(mask)) + "}"

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PortSpace):
            return NotImplemented
        return self._names == other._names

    def __hash__(self) -> int:
        return hash(self._names)

    def __repr__(self) -> str:
        return f"PortSpace({list(self._names)!r})"
