"""Bounded LRU cache of per-sequence throughput predictions.

The cache is keyed by ``(mapping id, canonical sequence)`` — the canonical
sequence being the name-sorted tuple of ``(name, count)`` pairs that
:func:`repro.serving.protocol.canonical_sequence` returns, so ``["a", "b",
"a"]`` and ``{"a": 2, "b": 1}`` share one line, and a lookup hashes plain
tuples of strings and ints.  Values are the exact floats the fixed-mapping
kernel produced; because that kernel is batch-independent bit for bit (see
:class:`repro.throughput.batched.FixedMappingEvaluator`), serving a hit is
indistinguishable from recomputing.

The server runs on one asyncio event loop and touches the cache only from
that loop's thread, so the implementation needs no locking — an
``OrderedDict`` with move-to-end is the whole mechanism.
"""

from __future__ import annotations

from collections import OrderedDict

__all__ = ["PredictionCache"]


class PredictionCache:
    """A bounded LRU of ``(mapping id, canonical sequence) -> float`` predictions.

    ``capacity`` 0 disables caching entirely (every lookup misses, nothing
    is stored) — useful for benchmarking the cold path and as an operator
    escape hatch.
    """

    __slots__ = ("capacity", "_entries", "hits", "misses", "evictions", "invalidations")

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[tuple[str, tuple], float] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, mapping_id: str, sequence: tuple) -> float | None:
        """The cached prediction, refreshed to most-recently-used, or None."""
        key = (mapping_id, sequence)
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, mapping_id: str, sequence: tuple, value: float) -> None:
        """Store a prediction, evicting the least recently used beyond capacity."""
        if self.capacity == 0:
            return
        key = (mapping_id, sequence)
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def invalidate_mapping(self, mapping_id: str) -> int:
        """Drop every entry of one mapping (hot reload); returns the count."""
        stale = [key for key in self._entries if key[0] == mapping_id]
        for key in stale:
            del self._entries[key]
        self.invalidations += len(stale)
        return len(stale)

    def stats(self) -> dict:
        """Counters for ``/v1/stats``."""
        lookups = self.hits + self.misses
        return {
            "capacity": self.capacity,
            "size": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }
