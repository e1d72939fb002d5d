"""Batched throughput evaluation: an experiment count matrix
``X[experiment, instruction]`` against per-instruction µop tables.

Fitness evaluation speed "directly corresponds to the quality of the obtained
solution" (Section 4.5).  This module is our analogue of the paper's
aggressively vectorized bottleneck implementation.  The two evaluators
differ in what they hold fixed:

* :class:`BatchedThroughputEvaluator` fixes the experiment set (``X`` is
  built once) and streams candidate mappings, scattered over all ``2^|P|``
  masks, through :func:`repro.throughput.bottleneck.bottleneck_rows`.  The
  evolver hands it a whole :class:`repro.pmevo.packed.PackedPopulation` per
  generation (:meth:`~BatchedThroughputEvaluator.throughputs_from_packed`),
  scattered with one vectorized add per µop slot into a reusable
  :class:`PackedWorkspace`.  Local search and the final ``D_avg`` pass one
  dict genome at a time (:meth:`~BatchedThroughputEvaluator.throughputs`).
* :class:`FixedMappingEvaluator` fixes the mapping, tabulated once over the
  union closure of its masks, and streams batches of instruction sequences
  through it — the hot path of the prediction serving layer.

Counts and multiplicities are integers, so every sum is exact: the packed,
dict and fixed-mapping paths agree bit for bit with each other and with
:func:`~repro.throughput.bottleneck.bottleneck_throughput_reference`,
however the work is batched or chunked.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.core.errors import ExperimentError, MappingError
from repro.core.experiment import Experiment, ExperimentSet
from repro.core.mapping import ThreeLevelMapping
from repro.throughput.bottleneck import bottleneck_max, bottleneck_rows, closure_table

if TYPE_CHECKING:  # import would cycle through repro.pmevo at runtime
    from repro.pmevo.packed import PackedPopulation

__all__ = [
    "BatchedThroughputEvaluator",
    "FixedMappingEvaluator",
    "PackedWorkspace",
]


def _count_matrix(experiments: Sequence[Experiment], index: Mapping[str, int]) -> np.ndarray:
    """``X[experiment, instruction]``: each experiment's multiset counts."""
    counts = np.zeros((len(experiments), len(index)), dtype=np.float64)
    for row, experiment in enumerate(experiments):
        for name, count in experiment:
            col = index.get(name)
            if col is None:
                raise ExperimentError(
                    f"experiment uses {name!r}, not in the instruction universe"
                )
            counts[row, col] = float(count)
    return counts


class PackedWorkspace:
    """Preallocated buffers for packed-population evaluation.

    Owns the dense scatter target (``[capacity, instruction, 2^|P|]``), the
    mass workspace (``[capacity, experiment, 2^|P|]``), and the broadcast
    index grids the per-slot ``np.add.at`` scatter uses.  One workspace is
    allocated per evolver and reused for every generation; populations
    larger than ``capacity`` are evaluated in capacity-sized chunks through
    the same buffers.

    ``masses`` is a ``[capacity, experiment, 2^|P|]`` *view* of a buffer
    whose memory order is ``[capacity, 2^|P|, experiment]`` — the layout the
    contraction in :func:`numpy.einsum` naturally produces, which keeps the
    zeta transform's strided half-block adds on long contiguous runs
    (measurably faster than the C-order view, with bit-identical results).
    """

    __slots__ = ("capacity", "uops", "masses", "genome_index", "instruction_index")

    def __init__(self, capacity: int, num_instructions: int, num_experiments: int, num_ports: int):
        if capacity < 1:
            raise MappingError("workspace capacity must be positive")
        size = 1 << num_ports
        self.capacity = capacity
        self.uops = np.zeros((capacity, num_instructions, size), dtype=np.float64)
        masses_buffer = np.empty((capacity, size, num_experiments), dtype=np.float64)
        self.masses = masses_buffer.transpose(0, 2, 1)
        self.genome_index = np.arange(capacity, dtype=np.intp)[:, None]
        self.instruction_index = np.arange(num_instructions, dtype=np.intp)[None, :]


class BatchedThroughputEvaluator:
    """Evaluates candidate mappings against a fixed experiment set.

    Parameters
    ----------
    experiments:
        The experiments (and, if an :class:`ExperimentSet` is given, their
        measured throughputs, enabling :meth:`davg`).
    instruction_names:
        The instruction universe in a fixed order.  Every experiment must be
        supported on these names.
    num_ports:
        Number of ports |P|; masks in genomes must fit in this many bits.
    """

    def __init__(
        self,
        experiments: ExperimentSet | Sequence[Experiment],
        instruction_names: Sequence[str],
        num_ports: int,
    ):
        if num_ports <= 0:
            raise MappingError(f"number of ports must be positive, got {num_ports}")
        self.num_ports = num_ports
        self.instruction_names = tuple(instruction_names)
        self._index = {name: i for i, name in enumerate(self.instruction_names)}
        if len(self._index) != len(self.instruction_names):
            raise MappingError("duplicate instruction names")

        if isinstance(experiments, ExperimentSet):
            exps: Sequence[Experiment] = experiments.experiments
            self.measured = np.array(experiments.throughputs, dtype=np.float64)
            # Precomputed once: D_avg divides by the measured throughputs on
            # every evaluation, which the hot loop turns into a multiply.
            self._inv_measured = 1.0 / self.measured
        else:
            exps = list(experiments)
            self.measured = None
            self._inv_measured = None
        if not exps:
            raise ExperimentError("need at least one experiment")

        self.experiments = tuple(exps)
        #: ``X[experiment, instruction]``, the kernel's count matrix.
        self.counts = _count_matrix(exps, self._index)

    @property
    def num_experiments(self) -> int:
        return len(self.experiments)

    def uop_matrix(self, genome: Mapping[str, Mapping[int, int]]) -> np.ndarray:
        """Scatter a genome (``name -> {mask -> multiplicity}``) into a dense
        ``[instruction, 2^|P|]`` multiplicity matrix.

        Instructions outside the universe are skipped (genomes may cover
        more instructions than the experiments use).
        """
        size = 1 << self.num_ports
        matrix = np.zeros((len(self._index), size), dtype=np.float64)
        for name, uops in genome.items():
            row = self._index.get(name)
            if row is None:
                continue
            for mask, mult in uops.items():
                if mask <= 0 or mask >= size:
                    raise MappingError(f"mask {mask:#x} invalid for {self.num_ports} ports")
                matrix[row, mask] += float(mult)
        return matrix

    def _validate_covers(self, matrix: np.ndarray) -> None:
        # Every instruction used by some experiment must have at least one µop.
        used = self.counts.sum(axis=0) > 0
        has_uop = matrix.sum(axis=1) > 0
        missing = used & ~has_uop
        if missing.any():
            names = [self.instruction_names[i] for i in np.nonzero(missing)[0]]
            raise MappingError(f"instructions without µops: {names}")

    # -- the packed population path (the EA hot loop) ------------------------

    def packed_workspace(self, capacity: int) -> PackedWorkspace:
        """Allocate reusable evaluation buffers for ``capacity`` genomes."""
        return PackedWorkspace(
            capacity, len(self.instruction_names), self.num_experiments, self.num_ports
        )

    def _check_packed(self, packed: "PackedPopulation") -> None:
        if packed.names != self.instruction_names:
            raise MappingError(
                "packed population instructions do not match this evaluator's "
                "instruction universe"
            )
        if len(packed) and int(packed.masks.max()) >= (1 << self.num_ports):
            raise MappingError(
                f"packed population holds masks invalid for {self.num_ports} ports"
            )

    def _scatter_packed(
        self, workspace: PackedWorkspace, masks: np.ndarray, mults: np.ndarray
    ) -> np.ndarray:
        """Scatter a chunk of packed genomes into the dense µop workspace.

        One vectorized scatter-add per µop-slot axis, no Python per-genome
        loops.  Within one slot the targets ``(genome, instruction, mask)``
        are all distinct — every ``(genome, instruction)`` pair appears
        exactly once — so the buffered fancy-index ``+=`` is exact (equal to
        ``np.add.at``, which exists for the duplicate-index case, at a
        fraction of its cost).  Unused slots carry mask 0 *and* multiplicity
        0, so they add zero to the empty-set column, which therefore stays
        zero — exactly as in :meth:`uop_matrix`.
        """
        chunk = masks.shape[0]
        target = workspace.uops[:chunk]
        target[:] = 0.0
        genome_index = workspace.genome_index[:chunk]
        instruction_index = workspace.instruction_index
        for slot in range(masks.shape[2]):
            target[genome_index, instruction_index, masks[:, :, slot]] += mults[
                :, :, slot
            ]
        return target

    def throughputs_from_packed(
        self, packed: "PackedPopulation", workspace: PackedWorkspace | None = None
    ) -> np.ndarray:
        """Predicted throughputs for a whole packed population.

        Returns a ``[population, experiment]`` array equal, bit for bit, to
        calling :meth:`throughputs` on each unpacked genome — without the
        per-genome Python scatter that makes the dict path the EA's wall.

        ``workspace`` holds the preallocated buffers (created on the fly
        when omitted); populations beyond its capacity are processed in
        chunks.
        """
        self._check_packed(packed)
        population = len(packed)
        if workspace is None:
            workspace = self.packed_workspace(min(population, 64))
        out = np.empty((population, self.num_experiments), dtype=np.float64)
        for start in range(0, population, workspace.capacity):
            stop = min(start + workspace.capacity, population)
            uops = self._scatter_packed(
                workspace, packed.masks[start:stop], packed.mults[start:stop]
            )
            bottleneck_rows(
                self.counts,
                uops,
                masses=workspace.masses[: stop - start],
                out=out[start:stop],
            )
        return out

    def throughputs(
        self, mapping: ThreeLevelMapping | Mapping[str, Mapping[int, int]]
    ) -> np.ndarray:
        """Predicted throughput per experiment for a mapping or raw genome."""
        genome = dict(mapping.items()) if isinstance(mapping, ThreeLevelMapping) else mapping
        matrix = self.uop_matrix(genome)
        self._validate_covers(matrix)
        return bottleneck_rows(self.counts, matrix)

    def davg(
        self, mapping: ThreeLevelMapping | Mapping[str, Mapping[int, int]]
    ) -> float:
        """Average relative prediction error ``D_avg`` (Section 4.4)."""
        if self.measured is None:
            raise ExperimentError("this evaluator has no measured throughputs")
        predicted = self.throughputs(mapping)
        return float(np.mean(np.abs(predicted - self.measured) * self._inv_measured))

    def davg_from_throughputs(self, predicted: np.ndarray) -> np.ndarray:
        """``D_avg`` for precomputed prediction rows (vectorized over a
        leading population axis if present)."""
        if self.measured is None:
            raise ExperimentError("this evaluator has no measured throughputs")
        return np.mean(np.abs(predicted - self.measured) * self._inv_measured, axis=-1)


class FixedMappingEvaluator:
    """Evaluates batches of experiments against one fixed mapping.

    The transpose of :class:`BatchedThroughputEvaluator`: here the *mapping*
    is fixed and batches of instruction sequences stream through — the hot
    path of the prediction serving layer (:mod:`repro.serving`).

    Construction builds the mapping's
    :func:`~repro.throughput.bottleneck.closure_table` (``table[i, j]``
    counts instruction ``i``'s µops inside the ``j``-th union of the
    mapping's masks); a batch is one product ``counts[:, used] @
    table[used]`` over the instructions it uses, a divide and a max.

    The sums are exact integers below ``2^53``, so a prediction is one
    specific float, the same as a direct single-experiment
    :meth:`BatchedThroughputEvaluator.throughputs` call, whatever shares
    its batch; ``tests/test_serving_equivalence.py`` pins this.
    :meth:`total_mass` lets callers reject up front a sequence whose mass
    would break the contract.

    Parameters
    ----------
    mapping:
        The three-level mapping to predict with.
    instruction_names:
        The instruction universe in a fixed order (defaults to the mapping's
        own sorted instruction tuple).  Every name must be covered by the
        mapping, and every experiment must be supported on these names.
    """

    def __init__(
        self,
        mapping: ThreeLevelMapping,
        instruction_names: Sequence[str] | None = None,
    ):
        self.mapping = mapping
        self.num_ports = mapping.ports.num_ports
        if instruction_names is None:
            instruction_names = mapping.instructions
        self.instruction_names = tuple(instruction_names)
        self._index = {name: i for i, name in enumerate(self.instruction_names)}
        if len(self._index) != len(self.instruction_names):
            raise MappingError("duplicate instruction names")
        missing = [name for name in self.instruction_names if name not in mapping]
        if missing:
            raise MappingError(f"instructions not covered by the mapping: {missing}")
        uops = [mapping.uops_of(name) for name in self.instruction_names]
        self._table, self._sizes = closure_table(uops)
        # Exact integer µop counts, for total_mass.
        self._uop_totals = {
            name: sum(row.values()) for name, row in zip(self.instruction_names, uops)
        }

    @property
    def num_instructions(self) -> int:
        return len(self.instruction_names)

    def missing_instructions(self, experiment: Experiment) -> list[str]:
        """Names the experiment uses that this evaluator does not cover.

        Lets callers (the serving protocol layer) reject an unsupported
        sequence up front with a precise error instead of failing an entire
        evaluation batch.
        """
        return [name for name, _ in experiment if name not in self._index]

    def total_mass(self, experiment: Experiment) -> int:
        """The experiment's total µop mass under this mapping, exactly.

        The kernel refuses a row whose total reaches
        :data:`~repro.throughput.bottleneck.EXACT_MASS_LIMIT`; comparing
        against it lets callers reject such a sequence before evaluating a
        batch.  Uncovered names count zero (see
        :meth:`missing_instructions`).
        """
        return sum(count * self._uop_totals.get(name, 0) for name, count in experiment)

    def throughputs(self, experiments: Sequence[Experiment]) -> np.ndarray:
        """Predicted throughput for each experiment, as a ``[batch]`` array."""
        counts = _count_matrix(experiments, self._index)
        used = np.flatnonzero(counts.any(axis=0))
        return bottleneck_max(counts[:, used] @ self._table[used], self._sizes)

    def throughput(self, experiment: Experiment) -> float:
        """Predicted throughput of a single experiment."""
        return float(self.throughputs([experiment])[0])

    def __repr__(self) -> str:
        return (
            f"FixedMappingEvaluator({self.num_instructions} instructions, "
            f"{self.num_ports} ports)"
        )
