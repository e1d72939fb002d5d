"""Initialization and evolutionary operators (Section 4.4).

The paper's final design uses a single binary **recombination** operator:
for each instruction, the multiset of (µop, multiplicity) edges of the two
parents is pooled and split randomly into the two children.  Mutation
operators were tried and dropped — "little to no benefit over a design
without a mutation operator while contributing substantial numbers of
fitness computations" — so mutation here exists only for the ablation bench
and is off by default.

:func:`random_population` and :func:`recombine` work on packed arrays
(:class:`~repro.pmevo.packed.PackedPopulation`): one call samples a whole
initial population, or draws every parent pair of a generation and splits
every pair's pooled edges.  Their random draws are exactly those of the dict
loops they replaced, the per-genome sampler and the per-pair recombination,
which ``tests/reference_operators.py`` keeps as test oracles.  numpy's
``Generator.integers(0, n)`` with ``1 < n <= 2**32`` takes one 32-bit word
``w`` per draw and returns ``(w·n) >> 32``, drawing again only while the low
half of ``w·n`` is below ``2**32 mod n`` (Lemire's method); and that word
stream continues across calls.  So each operator draws a buffer of words,
replays the loop's draws on it in plain integer arithmetic, and advances the
generator by exactly the words used: genomes, their slot orders and the
generator state afterwards all equal the loop's, bit for bit.

Invariant kept by all operators: every instruction has at least one µop in
every genome.  The paper does not discuss how recombination avoids emptying
one child's decomposition; we reassign a random pooled edge, with its own
multiplicity, to the empty side.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.errors import InferenceError, MappingError
from repro.core.ports import mask_size
from repro.pmevo.packed import PackedPopulation, _mult_dtype
from repro.pmevo.population import Genome, multiplicity_bound

__all__ = ["random_population", "recombine", "mutate"]

_WORD = 1 << 32
_LOW_HALF = _WORD - 1

#: Genomes sampled per word buffer by :func:`random_population`, so that a
#: large population never holds all of its words at once.
_INIT_CHUNK = 1024


def _merge_edges(target: dict[int, int], mask: int, count: int) -> None:
    if count > 0:
        target[mask] = target.get(mask, 0) + count


class _Words:
    """A generator's stream of 32-bit words, drawn ahead and replayed.

    ``integers(0, 2**32, dtype=np.uint32)`` returns the stream's words
    themselves, so :meth:`bounded` replays ``Generator.integers(0, n)`` on
    them, and :meth:`finish` leaves the generator exactly where those draws
    would have.  ``reserve`` is the most words a caller reads between two
    :meth:`ensure` calls, not counting redraws; a redraw ensures it anew.
    """

    def __init__(self, rng: np.random.Generator, count: int, reserve: int):
        self.rng = rng
        self.saved = rng.bit_generator.state
        self.reserve = reserve
        self.pos = 0
        self._load(rng.integers(0, _WORD, size=count, dtype=np.uint32))

    def _load(self, buffer: np.ndarray) -> None:
        self.buffer = buffer
        self.words = memoryview(buffer)
        # high[k]: how many of the first k words have their top bit set,
        # so a run of split bits is counted in O(1).
        high = np.zeros(len(buffer) + 1, dtype=np.int32)
        np.cumsum(buffer >> 31, dtype=np.int32, out=high[1:])
        self.high = memoryview(high)

    def ensure(self, count: int) -> None:
        """Buffer at least ``count`` words past :attr:`pos`."""
        missing = self.pos + count - len(self.buffer)
        if missing > 0:
            more = self.rng.integers(
                0, _WORD, size=max(missing, len(self.buffer)), dtype=np.uint32
            )
            self._load(np.concatenate([self.buffer, more]))

    def bounded(self, n: int) -> int:
        """``Generator.integers(0, n)`` replayed: an int in ``[0, n)``."""
        if n == 1:
            return 0  # numpy draws no word for a one-value range
        product = self.words[self.pos] * n
        self.pos += 1
        if product & _LOW_HALF < n:
            threshold = _WORD % n
            while product & _LOW_HALF < threshold:
                self.ensure(self.reserve)
                product = self.words[self.pos] * n
                self.pos += 1
        return product >> 32

    def finish(self) -> None:
        """Rewind the generator, then advance it by exactly the words used."""
        self.rng.bit_generator.state = self.saved
        self.rng.integers(0, _WORD, size=self.pos, dtype=np.uint32)


def random_population(
    rng: np.random.Generator,
    size: int,
    names: Sequence[str],
    num_ports: int,
    singleton_throughputs: Mapping[str, float],
) -> PackedPopulation:
    """Sample the initial population of ``size`` genomes (Section 4.4).

    For each genome and instruction ``i``, in order: a µop count ``k`` in
    ``[1, |P|]``, then ``k`` distinct masks from the ``n = 2^|P| - 1``
    nonempty port sets, then one multiplicity per mask in ``[1,
    multiplicity_bound(t*(i), |mask|)]``.  These are the draws of
    ``rng.integers(1, |P| + 1)``, ``rng.choice(n, k, replace=False) + 1`` and
    ``rng.integers(1, bound + 1)``, replayed on the generator's words:
    ``choice`` is Floyd's sampling, one draw in ``[0, j]`` for each ``j`` in
    ``[n - k, n)`` that takes ``j`` itself on a repeat, followed by a
    Fisher–Yates shuffle of the ``k`` picks (numpy samples by a tail shuffle
    only past 10,000 sets and ``k`` above 2% of them, which ``k <= |P|``
    never reaches).  A multiplicity whose bound is 1 draws nothing.  The
    result is in :meth:`~repro.pmevo.packed.PackedPopulation.from_genomes`
    normal form.
    """
    if size <= 0:
        raise InferenceError(f"population size must be positive, got {size}")
    if num_ports <= 0:
        raise InferenceError(f"number of ports must be positive, got {num_ports}")
    if num_ports > 32:
        raise MappingError(f"masks over {num_ports} ports do not fit in uint32")
    names = tuple(names)
    # bounds[i][w]: instruction i's multiplicity bound for a mask of w ports.
    bounds = []
    for name in names:
        throughput = singleton_throughputs.get(name)
        if throughput is None:
            raise InferenceError(f"missing singleton throughput for {name!r}")
        row = [multiplicity_bound(throughput, w) for w in range(num_ports + 1)]
        if row[-1] > _WORD:
            raise InferenceError(
                f"singleton throughput {throughput!r} of {name!r} bounds µop "
                "multiplicities past 2^32"
            )
        bounds.append(row)
    num_masks = (1 << num_ports) - 1
    reserve = 3 * num_ports * len(names)  # one genome's words, sans redraws
    counts: list[int] = []
    flat_masks: list[int] = []
    flat_mults: list[int] = []
    for start in range(0, size, _INIT_CHUNK):
        genomes = min(_INIT_CHUNK, size - start)
        stream = _Words(rng, genomes * reserve, reserve)
        draw = stream.bounded
        for _ in range(genomes):
            stream.ensure(reserve)
            for bound in bounds:
                k = draw(num_ports) + 1
                picks: list[int] = []
                for j in range(num_masks - k, num_masks):
                    pick = draw(j + 1)
                    picks.append(j if pick in picks else pick)
                for i in range(k - 1, 0, -1):
                    j = draw(i + 1)
                    picks[i], picks[j] = picks[j], picks[i]
                for pick in picks:
                    mask = pick + 1
                    flat_masks.append(mask)
                    flat_mults.append(draw(bound[mask.bit_count()]) + 1)
                counts.append(k)
        stream.finish()
    return PackedPopulation._from_rows(
        names,
        size,
        np.array(counts, dtype=np.intp),
        np.array(flat_masks, dtype=np.int64),
        np.array(flat_mults, dtype=np.int64),
    )


def _replay(stream: _Words, lengths: list[list[int]], pairs: int):
    """Replay the per-pair loop's draws on ``stream``.

    Per pair: two parent indices, then per instruction one split bit per
    pooled edge (a word's top bit; set sends the edge to child b) and, when
    the bits leave a side empty, the index of the pooled edge that repairs
    it.  Returns the parent indices, each (pair, instruction)'s first split
    word, and the repairs as ``(pair, instruction, side, edge)``.
    """
    population = len(lengths)
    instructions = range(len(lengths[0]))
    first: list[int] = []
    second: list[int] = []
    starts: list[int] = []
    repairs: list[tuple[int, int, int, int]] = []
    for pair in range(pairs):
        stream.ensure(stream.reserve)
        a = stream.bounded(population)
        b = stream.bounded(population)
        first.append(a)
        second.append(b)
        row_a, row_b = lengths[a], lengths[b]
        high, pos = stream.high, stream.pos
        for instruction in instructions:
            pooled = row_a[instruction] + row_b[instruction]
            starts.append(pos)
            to_b = high[pos + pooled] - high[pos]
            pos += pooled
            if to_b == 0 or to_b == pooled:
                stream.pos = pos
                empty = 1 if to_b == 0 else 0
                repairs.append((pair, instruction, empty, stream.bounded(pooled)))
                high, pos = stream.high, stream.pos
        stream.pos = pos
    return first, second, starts, repairs


def recombine(
    rng: np.random.Generator, parents: PackedPopulation, count: int
) -> PackedPopulation:
    """Binary recombination: ``count`` children of random parent pairs.

    Per pair, two parents ``a`` and ``b`` are drawn uniformly
    (``rng.integers(0, p)`` twice).  For each instruction, the pooled edges
    (a's slots in order, then b's) go to child a or child b by one random
    bit each; an edge whose mask is already on its side merges into that
    first occurrence, adding multiplicities.  A side left empty gets one
    random pooled edge with its own multiplicity.  Children come as a0, b0,
    a1, b1, ... from ``ceil(count / 2)`` pairs; for odd ``count`` the last
    child b is dropped, though its draws are made.  The result is in
    :meth:`~repro.pmevo.packed.PackedPopulation.normalized` form.
    """
    pairs = -(-count // 2)
    instructions, slots = parents.num_instructions, parents.max_uops
    lengths = np.count_nonzero(parents.masks, axis=2)
    reserve = 2 + instructions * (2 * slots + 1)  # one pair's words, sans redraws
    stream = _Words(rng, pairs * reserve, reserve)
    first, second, starts, repairs = _replay(stream, lengths.tolist(), pairs)
    stream.finish()

    first = np.asarray(first, dtype=np.intp)
    second = np.asarray(second, dtype=np.intp)
    a_len = lengths[first]
    a_masks, b_masks = parents.masks[first], parents.masks[second]
    a_used, b_used = a_masks != 0, b_masks != 0
    # Each pooled edge's side (True: child b), read from its split word.
    top = stream.buffer >= 1 << 31
    offset = np.asarray(starts, dtype=np.intp).reshape(pairs, instructions, 1)
    slot = np.arange(slots, dtype=np.intp)
    a_side = top.take(offset + slot, mode="clip") & a_used
    b_side = top.take(offset + a_len[..., None] + slot, mode="clip") & b_used
    # A b-edge merges into the a-edge with its mask if both went one way;
    # masks are unique within a row, so an a-edge has at most one partner.
    merge = a_masks[..., :, None] == b_masks[..., None, :]
    merge &= a_used[..., :, None]
    merge &= a_side[..., :, None] == b_side[..., None, :]
    merged = merge.any(axis=2)
    wide = _mult_dtype(2 * int(parents.mults.max()))
    a_mults = parents.mults[first].astype(wide)
    b_mults = parents.mults[second]
    np.add(
        a_mults,
        np.take_along_axis(b_mults, merge.argmax(axis=3), axis=2),
        out=a_mults,
        where=merge.any(axis=3),
    )
    del merge

    pooled_masks = np.concatenate([a_masks, b_masks], axis=2)
    pooled_mults = np.concatenate([a_mults, b_mults], axis=2)
    keep = [
        np.concatenate([a_used & ~a_side, b_used & ~b_side & ~merged], axis=2),
        np.concatenate([a_side, b_side & ~merged], axis=2),
    ]
    if count % 2:
        keep[1][-1] = False  # the dropped last child b
        repairs = [r for r in repairs if not (r[0] == pairs - 1 and r[2] == 1)]
    values = [(pooled_masks[side], pooled_mults[side]) for side in keep]

    if repairs:
        pair, instruction, rep_side, edge = np.array(repairs, dtype=np.intp).T
        from_a = edge < a_len[pair, instruction]
        owner = np.where(from_a, first[pair], second[pair])
        edge = np.where(from_a, edge, edge - a_len[pair, instruction])
        rep_masks = parents.masks[owner, instruction, edge]
        rep_mults = parents.mults[owner, instruction, edge]
    counts = np.stack([side.sum(axis=2) for side in keep], axis=1)  # [pairs, 2, I]
    width = int(counts.max(initial=1))
    top_mult = max(int(side_mults.max(initial=1)) for _, side_mults in values)
    if repairs:
        top_mult = max(top_mult, int(rep_mults.max()))
    masks = np.zeros((pairs, 2, instructions, width), dtype=np.uint32)
    mults = np.zeros(masks.shape, dtype=_mult_dtype(top_mult))
    used = np.arange(width)
    for side, (side_masks, side_mults) in enumerate(values):
        filled = used < counts[:, side, :, None]
        masks[:, side][filled] = side_masks
        mults[:, side][filled] = side_mults
    if repairs:
        masks[pair, rep_side, instruction, 0] = rep_masks
        mults[pair, rep_side, instruction, 0] = rep_mults
    shape = (2 * pairs, instructions, width)
    return PackedPopulation(
        parents.names, masks.reshape(shape)[:count], mults.reshape(shape)[:count]
    )


def mutate(
    rng: np.random.Generator,
    genome: Genome,
    num_ports: int,
    singleton_throughputs: Mapping[str, float],
    rate: float = 0.05,
) -> Genome:
    """Random point mutation (ablation only; the paper's design omits it).

    With probability ``rate`` per instruction, one of three edits is made:

    * replace one µop's mask by a fresh random non-empty mask,
    * re-roll one µop's multiplicity within the initialization bound,
    * toggle: drop a µop (if more than one) or add a fresh one.
    """
    num_masks = (1 << num_ports) - 1
    mutated: Genome = {}
    for name, uops in genome.items():
        uops = dict(uops)
        if rng.random() < rate:
            throughput = singleton_throughputs.get(name, 1.0)
            masks = list(uops.keys())
            choice = int(rng.integers(0, 3))
            if choice == 0:
                old = masks[int(rng.integers(0, len(masks)))]
                new = int(rng.integers(1, num_masks + 1))
                count = uops.pop(old)
                _merge_edges(uops, new, count)
            elif choice == 1:
                mask = masks[int(rng.integers(0, len(masks)))]
                bound = multiplicity_bound(throughput, mask_size(mask))
                uops[mask] = int(rng.integers(1, bound + 1))
            else:
                if len(uops) > 1 and rng.random() < 0.5:
                    del uops[masks[int(rng.integers(0, len(masks)))]]
                else:
                    new = int(rng.integers(1, num_masks + 1))
                    bound = multiplicity_bound(throughput, mask_size(new))
                    _merge_edges(uops, new, int(rng.integers(1, bound + 1)))
        mutated[name] = uops
    return mutated
