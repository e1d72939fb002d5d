"""Packed, array-backed population representation (the EA's data plane).

The evolutionary hot loop works on whole populations, and per-genome Python
traffic over nested ``dict[str, dict[int, int]]`` genomes is the wall
between us and the C++ core the original PMEvo delegates to (Section 4.5:
fitness evaluation speed "directly corresponds to the quality of the
obtained solution").

:class:`PackedPopulation` is the structure-of-arrays answer: a whole
population lives in two rectangular arrays,

* ``masks``  — ``uint32 [population, instruction, slot]``, the port-set
  bitmask of each µop slot (0 marks an unused slot), and
* ``mults``  — unsigned ``[population, instruction, slot]``, the µop's
  multiplicity (0 on unused slots; the dtype is the smallest unsigned type
  that holds every multiplicity, ``uint8`` in practice),

plus the shared instruction-name tuple that gives rows their meaning.  An
evolver's population stays in this form from initialization to the final
local search: :func:`repro.pmevo.operators.random_population` samples the
initial population into the arrays,
:func:`repro.pmevo.operators.recombine` maps a packed population to packed
children, selection deduplicates by :meth:`PackedPopulation.row_keys` and
keeps rows with :meth:`take`, and migration copies rows.  Dict genomes
appear only at local search and export of the winner, and in the mutation
ablation, through :meth:`from_genomes` and :meth:`to_genomes`, which are
lossless inverses: slot order is µop dict insertion order, which the
recombination RNG stream observes.

A population is kept in the *normal form* :meth:`from_genomes` produces:
the slot axis is as wide as the widest row and ``mults`` has the narrowest
dtype that fits (:meth:`normalized`), so a packed population serializes to
the same bytes as its dict genomes packed afresh.

Population-scale consumers:

* :meth:`repro.throughput.batched.BatchedThroughputEvaluator.throughputs_from_packed`
  evaluates all genomes block by block, with one vectorized scatter per
  slot axis into a µop stack that is zeta-transformed once per
  instruction — no Python per-genome loops.
* :meth:`PackedPopulation.volumes` computes every genome's µop volume
  ``V = Σ n·|u|`` in one vectorized pass.
* :meth:`PackedPopulation.to_npz_base64` /
  :meth:`PackedPopulation.from_npz_base64` give a compact binary wire/disk
  form (compressed npz, base64-armoured for JSON) that
  :class:`repro.pmevo.evolution.EvolutionState` embeds, shrinking the epoch
  payloads the migration transports and checkpoints ship.  The decoder
  checks every invariant, because a loaded population goes straight into
  the hot loop.
"""

from __future__ import annotations

import base64
import binascii
import io
import itertools
import zipfile
from collections.abc import Sequence

import numpy as np

from repro.core.errors import CheckpointError, MappingError
from repro.pmevo.population import Genome

__all__ = ["PackedPopulation"]


def _mult_dtype(max_mult: int) -> np.dtype:
    """Smallest unsigned dtype holding ``max_mult`` (uint8 in practice)."""
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
        if max_mult <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    raise MappingError(f"µop multiplicity {max_mult} exceeds uint64")


class PackedPopulation:
    """A population of genomes as rectangular structure-of-arrays storage.

    Construct via :meth:`from_genomes` (packing dict genomes) or
    :meth:`from_npz_base64` (decoding a serialized population); the raw
    constructor takes pre-built arrays and validates their shapes.

    Invariants: ``masks`` and ``mults`` share the shape
    ``[population, instruction, slot]``; used slots (``mask != 0``) are a
    non-empty prefix of each ``[population, instruction]`` row, carry
    multiplicity ``>= 1``, and hold masks that are unique within their row;
    unused slots are zero in both arrays.
    """

    __slots__ = ("names", "masks", "mults")

    def __init__(self, names: Sequence[str], masks: np.ndarray, mults: np.ndarray):
        self.names = tuple(names)
        if masks.ndim != 3 or masks.shape != mults.shape:
            raise MappingError(
                "masks and mults must share a [population, instruction, slot] shape"
            )
        if masks.shape[1] != len(self.names):
            raise MappingError(
                f"instruction axis has {masks.shape[1]} rows "
                f"but {len(self.names)} names were given"
            )
        self.masks = masks
        self.mults = mults

    # -- basic shape ---------------------------------------------------------

    def __len__(self) -> int:
        return self.masks.shape[0]

    @property
    def num_instructions(self) -> int:
        return self.masks.shape[1]

    @property
    def max_uops(self) -> int:
        """Slot capacity per instruction (the widest µop decomposition)."""
        return self.masks.shape[2]

    # -- rows ----------------------------------------------------------------

    def normalized(self) -> "PackedPopulation":
        """The same genomes in :meth:`from_genomes` normal form: the slot
        axis trimmed to the widest row, ``mults`` in the narrowest dtype."""
        width = int(np.count_nonzero(self.masks, axis=2).max(initial=1))
        dtype = _mult_dtype(int(self.mults.max(initial=1)))
        if width == self.max_uops and dtype == self.mults.dtype:
            return self
        return PackedPopulation(
            self.names,
            np.ascontiguousarray(self.masks[:, :, :width]),
            self.mults[:, :, :width].astype(dtype),
        )

    def take(self, indices) -> "PackedPopulation":
        """Genomes ``indices`` (copied, in that order), in normal form."""
        return PackedPopulation(
            self.names, self.masks[indices], self.mults[indices]
        ).normalized()

    @classmethod
    def concatenate(cls, populations: Sequence["PackedPopulation"]) -> "PackedPopulation":
        """Stack populations over one instruction universe into one, padded
        to the widest slot axis and multiplicity dtype among them."""
        names = populations[0].names
        if any(population.names != names for population in populations):
            raise MappingError("cannot concatenate populations over different instructions")
        shape = (
            sum(len(population) for population in populations),
            len(names),
            max(population.max_uops for population in populations),
        )
        masks = np.zeros(shape, dtype=np.uint32)
        mults = np.zeros(
            shape, dtype=np.result_type(*(population.mults for population in populations))
        )
        start = 0
        for population in populations:
            stop = start + len(population)
            masks[start:stop, :, : population.max_uops] = population.masks
            mults[start:stop, :, : population.max_uops] = population.mults
            start = stop
        return cls(names, masks, mults)

    def row_keys(self) -> np.ndarray:
        """One opaque key per genome: two keys are equal exactly when the
        genomes hold the same µops, whatever their slot order.

        Each slot's (mask, multiplicity) pair becomes one integer, mask
        first, in the narrowest dtype that holds them all, and each row's
        integers are sorted: masks are unique within a row, so that sorts
        the slots by mask, and unused slots (all zero) sort first.  A
        genome's key is the bytes of its sorted rows.  Keys compare only
        within one population, which fixes the slot width and dtype.
        """
        radix = int(self.mults.max(initial=0)) + 1
        top = (int(self.masks.max(initial=0)) + 1) * radix - 1
        if top < 1 << 64:
            slots = self.masks.astype(_mult_dtype(top))
            slots *= radix
            slots += self.mults
        else:  # too wide for one integer: sort (mask, multiplicity) records
            slots = np.empty(
                self.masks.shape, dtype=[("mask", np.uint32), ("mult", self.mults.dtype)]
            )
            slots["mask"], slots["mult"] = self.masks, self.mults
        slots.sort(axis=2)
        rows = slots.reshape(len(self), -1)
        return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()

    def _check_invariants(self) -> None:
        """Raise :class:`MappingError` unless the arrays hold valid genomes:
        ``uint32`` masks and unsigned multiplicities, at least one genome,
        used slots a non-empty prefix of every row with multiplicity ``>= 1``
        and masks unique within their row, and unused slots all zero."""
        if self.masks.dtype != np.uint32 or self.mults.dtype.kind != "u":
            raise MappingError(
                f"masks must be uint32 and multiplicities unsigned, got "
                f"{self.masks.dtype} and {self.mults.dtype}"
            )
        if not self.masks.size:
            raise MappingError("a population needs genomes, instructions and slots")
        used = self.masks != 0
        if not used[:, :, 0].all():
            raise MappingError("genome has an instruction without µops")
        if (used[:, :, 1:] & ~used[:, :, :-1]).any():
            raise MappingError("used µop slots are not a prefix of their row")
        if (used != (self.mults != 0)).any():
            raise MappingError(
                "used µop slots need a multiplicity >= 1 and unused slots zero"
            )
        ordered = np.sort(self.masks, axis=2)
        if ((ordered[:, :, 1:] == ordered[:, :, :-1]) & (ordered[:, :, 1:] != 0)).any():
            raise MappingError("µop masks repeat within a row")

    # -- converters ----------------------------------------------------------

    @classmethod
    def from_genomes(
        cls, genomes: Sequence[Genome], names: Sequence[str] | None = None
    ) -> "PackedPopulation":
        """Pack dict genomes into arrays (exact, order-preserving).

        Every genome must cover exactly ``names`` (default: the first
        genome's instructions) *in that key order* — the invariant the
        initialization scheme and all evolutionary operators maintain.  µop
        slot order is dict insertion order, so :meth:`to_genomes` restores
        each genome identically, including the iteration orders the
        recombination RNG stream depends on.
        """
        genomes = list(genomes)
        if not genomes:
            raise MappingError("cannot pack an empty population")
        expected = tuple(names) if names is not None else tuple(genomes[0])
        for genome in genomes:
            if tuple(genome) != expected:
                raise MappingError(
                    "genome instructions (or their order) do not match the "
                    "population's instruction universe"
                )

        # Flatten every µop dict into contiguous streams once (C-level
        # iteration, insertion order preserved), then fill the rectangular
        # arrays with one vectorized scatter — the packing itself must not
        # reintroduce the per-genome Python loop it exists to remove.
        rows = [uops for genome in genomes for uops in genome.values()]
        counts = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
        if len(rows) and int(counts.min()) < 1:
            raise MappingError("genome has an instruction without µops")
        total = int(counts.sum())
        try:
            flat_masks = np.fromiter(
                itertools.chain.from_iterable(rows), dtype=np.int64, count=total
            )
            flat_mults = np.fromiter(
                itertools.chain.from_iterable(map(dict.values, rows)),
                dtype=np.int64,
                count=total,
            )
        except OverflowError as exc:
            raise MappingError(f"µop mask or multiplicity out of range: {exc}") from exc
        if total:
            if int(flat_masks.min()) <= 0:
                raise MappingError("µop masks must be positive")
            if int(flat_masks.max()) >= (1 << 32):
                raise MappingError("µop mask does not fit in uint32")
            if int(flat_mults.min()) <= 0:
                raise MappingError("µop multiplicities must be positive")
        return cls._from_rows(expected, len(genomes), counts, flat_masks, flat_mults)

    @classmethod
    def _from_rows(
        cls,
        names: tuple[str, ...],
        population: int,
        counts: np.ndarray,
        flat_masks: np.ndarray,
        flat_mults: np.ndarray,
    ) -> "PackedPopulation":
        """Fill normal-form arrays from flat µop streams: each
        ``[genome, instruction]`` row, in C order, takes the next
        ``counts[row]`` masks and multiplicities as its slots."""
        max_slots = max(1, int(counts.max())) if len(counts) else 1
        max_mult = int(flat_mults.max()) if len(flat_mults) else 1
        shape = (population, len(names), max_slots)
        masks = np.zeros(shape, dtype=np.uint32)
        mults = np.zeros(shape, dtype=_mult_dtype(max_mult))
        # Boolean assignment walks True positions in C order — row-major,
        # slot prefix first — which is exactly the flattened stream order.
        used = np.arange(max_slots, dtype=np.intp) < counts[:, None]
        masks.reshape(len(counts), max_slots)[used] = flat_masks
        mults.reshape(len(counts), max_slots)[used] = flat_mults
        return cls(names, masks, mults)

    def to_genomes(self) -> list[Genome]:
        """Unpack back to dict genomes — the exact inverse of
        :meth:`from_genomes`, including every dict's insertion order."""
        names = self.names
        slot_count = self.max_uops
        all_masks = self.masks.tolist()
        all_mults = self.mults.tolist()
        population: list[Genome] = []
        for genome_masks, genome_mults in zip(all_masks, all_mults):
            genome: Genome = {}
            for name, row_masks, row_mults in zip(names, genome_masks, genome_mults):
                uops: dict[int, int] = {}
                for slot in range(slot_count):
                    mask = row_masks[slot]
                    if mask == 0:
                        break
                    uops[mask] = row_mults[slot]
                genome[name] = uops
            population.append(genome)
        return population

    # -- vectorized objective helpers ---------------------------------------

    def volumes(self) -> np.ndarray:
        """Per-genome µop volume ``V = Σ n·|u|`` (Section 4.4), vectorized.

        Exactly matches :func:`repro.pmevo.population.genome_volume` on the
        unpacked genomes (integer arithmetic throughout).
        """
        widths = np.bitwise_count(self.masks).astype(np.int64)
        return (widths * self.mults).sum(axis=(1, 2))

    # -- compact binary serialization ---------------------------------------

    def to_npz_base64(self) -> str:
        """Serialize to a base64-armoured compressed npz payload.

        The binary form is dramatically smaller than the per-genome JSON
        dict encoding (µop masks and multiplicities compress well), which is
        what lets :class:`~repro.pmevo.evolution.EvolutionState` keep its
        JSON wire format while shipping far smaller epoch payloads through
        the migration transports and checkpoints.
        """
        buffer = io.BytesIO()
        np.savez_compressed(
            buffer,
            names=np.asarray(self.names, dtype=np.str_),
            masks=self.masks,
            mults=self.mults,
        )
        return base64.b64encode(buffer.getvalue()).decode("ascii")

    @classmethod
    def from_npz_base64(cls, text: str) -> "PackedPopulation":
        """Decode :meth:`to_npz_base64` output.

        Raises :class:`repro.core.errors.CheckpointError` on malformed
        payloads (bad base64, truncated archives, missing arrays, wrong
        shapes or dtypes, rows that break the class invariants) — the error
        contract of the state/checkpoint codecs.
        """
        try:
            raw = base64.b64decode(text.encode("ascii"), validate=True)
        except (binascii.Error, ValueError, UnicodeEncodeError, AttributeError) as exc:
            raise CheckpointError(f"packed population is not valid base64: {exc}") from exc
        try:
            with np.load(io.BytesIO(raw), allow_pickle=False) as archive:
                names = archive["names"]
                masks = archive["masks"]
                mults = archive["mults"]
        except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
            raise CheckpointError(f"malformed packed population archive: {exc}") from exc
        if names.ndim != 1:
            raise CheckpointError("packed population names must be a 1-D array")
        try:
            population = cls([str(name) for name in names], masks, mults)
            population._check_invariants()
        except MappingError as exc:
            raise CheckpointError(f"malformed packed population: {exc}") from exc
        return population
