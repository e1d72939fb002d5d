"""Batched throughput evaluation: an experiment count matrix
``X[experiment, instruction]`` against per-instruction µop tables.

Fitness evaluation speed "directly corresponds to the quality of the obtained
solution" (Section 4.5).  This module is our analogue of the paper's
aggressively vectorized bottleneck implementation.  The two evaluators
differ in what they hold fixed:

* :class:`BatchedThroughputEvaluator` fixes the experiment set (``X`` is
  built once) and streams candidate mappings through it.  The evolver
  hands it a whole :class:`repro.pmevo.packed.PackedPopulation` per
  generation (:meth:`~BatchedThroughputEvaluator.throughputs_from_packed`):
  each block of ``_PACKED_BLOCK`` genomes is scattered into a mask-major
  µop stack, zeta transformed there (per instruction, not per experiment),
  and multiplied by ``X``; only each port-set size's maximum is divided.
  The blocks run in float32 while every row total stays below ``2^24`` and
  in float64 otherwise.  The block buffers are allocated on the first
  population and reused by every later one.  Local search and the final
  ``D_avg`` pass one dict genome at a time
  (:meth:`~BatchedThroughputEvaluator.throughputs`), a product of ``X``
  with that genome's union-closure table.
* :class:`FixedMappingEvaluator` fixes the mapping, tabulated once over the
  union closure of its masks, and streams instruction sequences through it,
  ``_FIXED_BLOCK`` at a time — the hot path of the prediction serving layer
  and of every :class:`~repro.throughput.predictor.MappingPredictor`.

This module alone decides how both evaluators split their work into
blocks.  Counts and multiplicities are integers, so every sum is exact: the
packed, dict and fixed-mapping paths agree bit for bit with each other and
with :func:`~repro.throughput.bottleneck.bottleneck_throughput_reference`,
however the work is blocked.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.core.errors import ExperimentError, MappingError
from repro.core.experiment import Experiment, ExperimentSet
from repro.core.mapping import ThreeLevelMapping
from repro.throughput.bottleneck import (
    bottleneck_max,
    closure_table,
    popcounts,
    zeta_transform,
)

if TYPE_CHECKING:
    from collections.abc import Iterable

    # A runtime import would cycle through repro.pmevo.
    from repro.pmevo.packed import PackedPopulation

__all__ = ["BatchedThroughputEvaluator", "FixedMappingEvaluator"]

#: Genomes per block of the packed kernel.  The kernel is exact, so the
#: block size changes speed and memory only, never a result.
_PACKED_BLOCK = 16

#: Integers below this are exact in float32: the packed kernel runs in
#: float32 while every row total of a population stays below it.
_FLOAT32_EXACT = 2**24

#: Experiments per count matrix of :meth:`FixedMappingEvaluator.throughputs`:
#: one matrix over SKL's 160,230 canonical experiments would take 400 MiB.
_FIXED_BLOCK = 4096


def _count_matrix(
    experiments: Sequence[Iterable[tuple[str, int]]], index: Mapping[str, int]
) -> np.ndarray:
    """``X[experiment, instruction]``: each experiment's multiset counts,
    from anything that iterates its ``(name, count)`` pairs."""
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


@functools.lru_cache(maxsize=None)
def _sets_by_size(num_ports: int) -> tuple[np.ndarray, np.ndarray]:
    """The nonempty port sets in order of size, and where each size starts:
    the sets of ``k`` ports are ``order[bounds[k - 1] : bounds[k]]``, so the
    last set is the full port set."""
    order = np.argsort(popcounts(num_ports)[1:], kind="stable") + 1
    bounds = np.cumsum([0] + [math.comb(num_ports, k) for k in range(1, num_ports + 1)])
    order.flags.writeable = bounds.flags.writeable = False  # shared by every call
    return order, bounds


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
        # The instruction columns some experiment uses: the packed kernel
        # stacks µops for these only.
        self._used = np.flatnonzero(self.counts.any(axis=0))
        self._used_counts = self.counts[:, self._used]
        self._buffers: tuple[np.ndarray, ...] | None = None  # see _block_buffers

    @property
    def num_experiments(self) -> int:
        return len(self.experiments)

    # -- the packed population path (the EA hot loop) ------------------------

    def _block_buffers(self) -> tuple[np.ndarray, ...]:
        """The five flat buffers a block of up to ``_PACKED_BLOCK`` genomes
        passes through, each viewed at the block's size from its start:

        * the block's µops, mask-major ``[2^|P|, block·U]`` over the ``U``
          instruction columns some experiment uses (column ``g·U + i``),
          zeta transformed in place;
        * the stack's nonempty rows in order of port-set size;
        * those rows times ``X``, ``[2^|P| - 1, block, experiment]``: one
          matmul per block;
        * each size's largest mass, ``[|P|, block, experiment]``;
        * those maxima widened to float64, divided in place.

        All are float64 buffers; the first four are viewed at the dtype the
        kernel runs in.  Allocated on the first population and reused by
        every later one; an evaluator that never sees a population allocates
        none.
        """
        if self._buffers is None:
            sets = (1 << self.num_ports) - 1
            columns = _PACKED_BLOCK * len(self._used)
            rows = _PACKED_BLOCK * self.num_experiments
            self._buffers = (
                np.empty((sets + 1) * columns),
                np.empty(sets * columns),
                np.empty(sets * rows),
                np.empty(self.num_ports * rows),
                np.empty(self.num_ports * rows),
            )
        return self._buffers

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

    def throughputs_from_packed(self, packed: "PackedPopulation") -> np.ndarray:
        """Predicted throughputs for a whole packed population.

        Returns a ``[population, experiment]`` array equal, bit for bit, to
        calling :meth:`throughputs` on each unpacked genome.

        Per block of ``_PACKED_BLOCK`` genomes, :meth:`_zeta_stack` gives
        ``stack[Q, g·U + i]``, genome ``g``'s µops of instruction ``i``
        inside ``Q``: the zeta transform runs once per instruction, however
        many experiments use it.  It is linear and every entry is an
        integer, so the masses of the sets of ``k`` ports are exactly their
        stack rows times ``X``, and their max divided by ``k`` is the max of
        the quotients, because ``x ↦ fl(x / k)`` is monotone.
        :func:`~repro.throughput.bottleneck.bottleneck_max` divides the
        ``|P|`` maxima, keeps the largest and guards the last, the full port
        set's mass (the row total), against ``2^53``.  Every block runs
        through the same buffers (:meth:`_block_buffers`).

        Every sum above is a non-negative integer no larger than its row
        total, the genome's multiplicities summed per instruction times
        ``X``.  Those totals are formed first, in float64, which is exact
        below ``2^53`` and cannot round a larger total below ``2^24``.
        While all of them stay below ``2^24``, float32 holds every sum
        exactly in any order, so the blocks run in float32 and only the
        maxima are widened to float64 before the division.  A population
        with a larger total runs in float64, where the ``2^53`` guard
        applies.
        """
        self._check_packed(packed)
        population = len(packed)
        num_ports, num_experiments = self.num_ports, self.num_experiments
        _, bounds = _sets_by_size(num_ports)
        sizes = np.arange(1, num_ports + 1, dtype=np.float64)
        out = np.empty((population, num_experiments), dtype=np.float64)
        uops = packed.mults @ np.ones(packed.max_uops)  # [genome, instruction]
        np.matmul(uops, self.counts.T, out=out)  # every row total
        exact32 = out.max(initial=0.0) < _FLOAT32_EXACT
        dtype = np.dtype(np.float32 if exact32 else np.float64)
        counts_t = self._used_counts.T.astype(dtype)
        _, _, masses_buffer, peaks_buffer, best_buffer = self._block_buffers()
        for start in range(0, population, _PACKED_BLOCK):
            stop = min(start + _PACKED_BLOCK, population)
            sets = self._zeta_stack(
                packed.masks[start:stop], packed.mults[start:stop], dtype
            )
            block = stop - start
            # One product per block, so a threaded BLAS hands off work once
            # per block rather than once per set size.
            rows = len(sets) * block  # (set, genome) pairs
            masses = masses_buffer.view(dtype)[: rows * num_experiments]
            masses = masses.reshape(rows, num_experiments)
            np.matmul(sets.reshape(rows, -1), counts_t, out=masses)
            masses = masses.reshape(len(sets), block, num_experiments)
            shape = (num_ports, block, num_experiments)
            peaks = peaks_buffer.view(dtype)[: math.prod(shape)].reshape(shape)
            for k in range(num_ports):  # the sets of k + 1 ports
                masses[bounds[k] : bounds[k + 1]].max(axis=0, out=peaks[k])
            best = best_buffer[: peaks.size].reshape(shape)
            best[...] = peaks
            bottleneck_max(best.transpose(1, 2, 0), sizes, out=out[start:stop])
        return out

    def _zeta_stack(
        self, masks: np.ndarray, mults: np.ndarray, dtype: np.dtype
    ) -> np.ndarray:
        """Scatter one block's packed µops into the mask-major stack, zeta
        transform it, and return its nonempty rows in order of port-set
        size, ``[2^|P| - 1, block·U]``, all viewed at ``dtype``.

        One vectorized add per µop slot: within a slot every column appears
        once, so the buffered fancy-index ``+=`` is exact, and unused slots
        (mask 0, multiplicity 0) add zero to the empty set's row.
        """
        stack_buffer, sets_buffer, _, _, _ = self._block_buffers()
        size = 1 << self.num_ports
        # Slot-major over the used columns: one slot is a contiguous [block, U].
        masks = np.ascontiguousarray(masks[:, self._used].transpose(2, 0, 1), np.intp)
        mults = np.ascontiguousarray(mults[:, self._used].transpose(2, 0, 1))
        columns = masks[0].size
        flat = stack_buffer.view(dtype)[: size * columns]
        flat.fill(0)
        column = np.arange(columns)
        for slot_masks, slot_mults in zip(masks, mults):
            flat[slot_masks.ravel() * columns + column] += slot_mults.ravel()
        stack = flat.reshape(size, columns)
        zeta_transform(stack.T, self.num_ports)
        order, _ = _sets_by_size(self.num_ports)
        sets = sets_buffer.view(dtype)[: (size - 1) * columns]
        sets = sets.reshape(size - 1, columns)
        return np.take(stack, order, axis=0, out=sets, mode="clip")  # "clip": unbuffered

    def throughputs(
        self, mapping: ThreeLevelMapping | Mapping[str, Mapping[int, int]]
    ) -> np.ndarray:
        """Predicted throughput per experiment for a mapping or raw genome:
        ``X`` times the genome's union-closure table.  Instructions outside
        the universe are skipped (genomes may cover more than ``X`` uses).
        """
        genome = dict(mapping.items()) if isinstance(mapping, ThreeLevelMapping) else mapping
        rows = [genome.get(name, {}) for name in self.instruction_names]
        size = 1 << self.num_ports
        for row in rows:
            for mask in row:
                if mask <= 0 or mask >= size:
                    raise MappingError(f"mask {mask:#x} invalid for {self.num_ports} ports")
        # Every instruction used by some experiment must have at least one µop.
        used = self.counts.any(axis=0)
        missing = [
            name
            for name, row, needed in zip(self.instruction_names, rows, used)
            if needed and sum(row.values()) <= 0
        ]
        if missing:
            raise MappingError(f"instructions without µops: {missing}")
        table, sizes = closure_table(rows)
        return bottleneck_max(self.counts @ table, sizes)

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
    mapping's masks); each block of up to ``_FIXED_BLOCK`` experiments is
    one product ``counts[:, used] @ table[used]`` over the instructions it
    uses, a divide and a max.

    The sums are exact integers below ``2^53``, so a prediction is one
    specific float, the same as a direct single-experiment
    :meth:`BatchedThroughputEvaluator.throughputs` call, whatever shares
    its batch; ``tests/test_serving_equivalence.py`` pins this.
    :meth:`throughputs` is also the check an experiment passes: it raises
    :class:`ExperimentError` for a name outside ``mapping.instructions``
    and for a row whose total µop mass reaches ``2^53``.

    Parameters
    ----------
    mapping:
        The three-level mapping to predict with; its sorted instruction
        tuple is the evaluator's instruction universe.
    """

    def __init__(self, mapping: ThreeLevelMapping):
        self.mapping = mapping
        self.num_ports = mapping.ports.num_ports
        self.instruction_names = mapping.instructions
        self._index = {name: i for i, name in enumerate(self.instruction_names)}
        uops = [mapping.uops_of(name) for name in self.instruction_names]
        self._table, self._sizes = closure_table(uops)

    @property
    def num_instructions(self) -> int:
        return len(self.instruction_names)

    def throughputs(self, experiments: Sequence[Iterable[tuple[str, int]]]) -> np.ndarray:
        """Predicted throughput for each experiment, as a ``[batch]`` array,
        counted ``_FIXED_BLOCK`` experiments at a time.

        An experiment is anything that iterates its ``(name, count)``
        pairs, each name once: an :class:`Experiment`, or the canonical
        tuple the prediction server keys its cache by.
        """
        out = np.empty(len(experiments), dtype=np.float64)
        for start in range(0, len(experiments), _FIXED_BLOCK):
            stop = start + _FIXED_BLOCK
            counts = _count_matrix(experiments[start:stop], self._index)
            used = np.flatnonzero(counts.any(axis=0))
            bottleneck_max(counts[:, used] @ self._table[used], self._sizes, out=out[start:stop])
        return out

    def throughput(self, experiment: Experiment) -> float:
        """Predicted throughput of a single experiment."""
        return float(self.throughputs([experiment])[0])

    def __repr__(self) -> str:
        return (
            f"FixedMappingEvaluator({self.num_instructions} instructions, "
            f"{self.num_ports} ports)"
        )
