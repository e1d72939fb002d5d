"""Registry of served mappings: load, identify, hot-reload.

A registry owns one or more inferred port mappings — the JSON artifacts
written by ``repro-pmevo infer -o`` or ``repro-pmevo export --format json``
— each under a stable *mapping id* that requests address.  Per mapping it
precomputes the :class:`repro.throughput.batched.FixedMappingEvaluator`
(the mapping's union-closure table, built once), so the per-batch work is
one counts fill and one small product with that table.

Hot reload (:meth:`MappingRegistry.reload`) re-reads every artifact path
and swaps in mappings whose :meth:`~repro.core.mapping.ThreeLevelMapping.fingerprint`
changed, bumping their *generation*; the server invalidates the prediction
cache for exactly those ids.  A reload that fails to parse leaves the
previously loaded registry fully intact — operators can fix the file and
retry without a restart.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.errors import MappingError, ServingError
from repro.core.mapping import ThreeLevelMapping
from repro.throughput.batched import FixedMappingEvaluator

__all__ = ["ServedMapping", "MappingRegistry", "parse_mapping_spec"]


def parse_mapping_spec(spec: str) -> tuple[str, Path]:
    """Parse a ``--mapping`` argument: ``PATH`` or ``ID=PATH``.

    Without an explicit id the file's stem is used, so ``--mapping
    results/skl.json`` serves as mapping ``skl``.
    """
    ident, sep, path_text = spec.partition("=")
    if sep and ident:
        path = Path(path_text)
        mapping_id = ident
    else:
        path = Path(spec)
        mapping_id = path.stem
    if not mapping_id:
        raise ServingError(f"cannot derive a mapping id from {spec!r}")
    return mapping_id, path


@dataclass
class ServedMapping:
    """One mapping under serving, with its precomputed evaluation state."""

    mapping_id: str
    path: Path
    mapping: ThreeLevelMapping
    evaluator: FixedMappingEvaluator
    fingerprint: str
    generation: int = 1

    def describe(self) -> dict:
        """The per-mapping block of ``/v1/stats``."""
        return {
            "path": str(self.path),
            "instructions": len(self.mapping),
            "ports": self.mapping.ports.num_ports,
            "fingerprint": self.fingerprint,
            "generation": self.generation,
        }


class MappingRegistry:
    """The set of mappings a server answers for, addressable by id.

    Parameters
    ----------
    specs:
        ``(mapping id, artifact path)`` pairs, as produced by
        :func:`parse_mapping_spec`.  Ids must be unique.
    """

    def __init__(self, specs: list[tuple[str, Path]]):
        if not specs:
            raise ServingError("a mapping registry needs at least one mapping")
        seen: set[str] = set()
        for mapping_id, _ in specs:
            if mapping_id in seen:
                raise ServingError(
                    f"duplicate mapping id {mapping_id!r}; disambiguate with "
                    "--mapping ID=PATH"
                )
            seen.add(mapping_id)
        self._specs = list(specs)
        self._entries: dict[str, ServedMapping] = {}
        for mapping_id, path in self._specs:
            self._entries[mapping_id] = self._load_entry(mapping_id, path)

    def _load_entry(self, mapping_id: str, path: Path, generation: int = 1) -> ServedMapping:
        try:
            mapping = ThreeLevelMapping.load(path)
        except (OSError, MappingError) as exc:
            raise ServingError(str(exc)) from exc
        try:
            evaluator = FixedMappingEvaluator(mapping)
        except MappingError as exc:  # a µop count past float64
            raise ServingError(f"mapping file {path}: {exc}") from exc
        return ServedMapping(
            mapping_id=mapping_id,
            path=path,
            mapping=mapping,
            evaluator=evaluator,
            fingerprint=mapping.fingerprint(),
            generation=generation,
        )

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(self._entries.keys())

    @property
    def default_id(self) -> str | None:
        """The implied mapping id when exactly one mapping is served."""
        return self._specs[0][0] if len(self._specs) == 1 else None

    def __contains__(self, mapping_id: object) -> bool:
        return mapping_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, mapping_id: str) -> ServedMapping:
        try:
            return self._entries[mapping_id]
        except KeyError:
            raise ServingError(f"unknown mapping id {mapping_id!r}") from None

    def reload(self) -> tuple[list[str], list[str]]:
        """Re-read every artifact; swap in the ones whose content changed.

        Returns ``(reloaded ids, unchanged ids)``.  All artifacts are parsed
        *before* any entry is swapped, so a reload either applies completely
        or (on the first unreadable artifact) raises :class:`ServingError`
        leaving the registry untouched.
        """
        fresh: dict[str, ServedMapping] = {}
        for mapping_id, path in self._specs:
            current = self._entries[mapping_id]
            entry = self._load_entry(mapping_id, path, generation=current.generation)
            if entry.fingerprint != current.fingerprint:
                entry.generation = current.generation + 1
                fresh[mapping_id] = entry
        reloaded = sorted(fresh)
        unchanged = sorted(set(self._entries) - set(fresh))
        self._entries.update(fresh)
        return reloaded, unchanged

    def describe(self) -> dict:
        return {mapping_id: entry.describe() for mapping_id, entry in self._entries.items()}
