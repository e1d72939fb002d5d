"""Tests for evolutionary operators (Section 4.4).

The packed population operator :func:`repro.pmevo.operators.recombine` is
pinned to the per-pair dict loop it replaced (``tests/reference_operators.py``):
same children in the same dict insertion orders, same generator state after
the call.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_operators import recombine_population
from repro.core.ports import mask_size
from repro.pmevo import PackedPopulation, mutate, recombine
from repro.pmevo.operators import _Words
from repro.pmevo.population import genome_volume


def _genome_strategy(names=("a", "b"), num_ports=3):
    full = (1 << num_ports) - 1
    uops = st.dictionaries(
        st.integers(min_value=1, max_value=full),
        st.integers(min_value=1, max_value=3),
        min_size=1,
        max_size=3,
    )
    return st.fixed_dictionaries({name: uops for name in names})


@st.composite
def _populations(draw):
    """1-8 ports, 1-6 instructions, 2-40 genomes with rows of up to
    ``2^P - 1`` µops, and multiplicities up to 255, so merges pass it."""
    ports = draw(st.integers(1, 8))
    full = (1 << ports) - 1
    names = [f"i{k}" for k in range(draw(st.integers(1, 6)))]
    size = draw(st.integers(2, 40))
    widest = draw(st.integers(1, full))
    top = draw(st.sampled_from([1, 3, 200, 255]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    genomes = []
    for _ in range(size):
        genome = {}
        for name in names:
            width = int(rng.integers(1, widest + 1))
            masks = rng.choice(full, size=width, replace=False) + 1
            mults = rng.integers(1, top + 1, size=width)
            genome[name] = dict(zip(masks.tolist(), mults.tolist()))
        genomes.append(genome)
    return names, genomes


def _ordered(genomes):
    """Genomes as nested item lists: equality then pins dict order too."""
    return [[(name, list(uops.items())) for name, uops in g.items()] for g in genomes]


def _pending_zero_word(seed):
    """A generator whose next 32-bit word is 0, buffered from a 64-bit draw.

    For ``integers(0, n)`` with ``n`` not a power of two, word 0 falls
    below Lemire's threshold ``2^32 mod n``, forcing a redraw — a path
    random seeds reach with probability below ``n / 2^32``.
    """
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    state["has_uint32"] = 1
    state["uinteger"] = 0
    rng.bit_generator.state = state
    return rng


def _assert_matches_reference(make_rng, names, genomes, count):
    rng, reference_rng = make_rng(), make_rng()
    children = recombine(rng, PackedPopulation.from_genomes(genomes, names), count)
    expected = recombine_population(reference_rng, genomes, count)
    assert _ordered(children.to_genomes()) == _ordered(expected)
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    # Normal form: the arrays (width and dtype included) equal a fresh pack.
    packed = PackedPopulation.from_genomes(expected, names)
    assert children.masks.dtype == packed.masks.dtype
    assert children.mults.dtype == packed.mults.dtype
    assert np.array_equal(children.masks, packed.masks)
    assert np.array_equal(children.mults, packed.mults)
    return children


def _words_used(before_seed, after_rng, limit=64):
    """How many 32-bit words lie between ``_pending_zero_word(seed)`` and
    ``after_rng``'s state."""
    for used in range(limit):
        probe = _pending_zero_word(before_seed)
        probe.integers(0, 1 << 32, size=used, dtype=np.uint32)
        if probe.bit_generator.state == after_rng.bit_generator.state:
            return used
    raise AssertionError("generator states never met")


class TestAgainstPerPairLoop:
    @given(_populations(), st.integers(1, 41), st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_children_order_and_generator_state_match(self, population, count, seed):
        names, genomes = population
        _assert_matches_reference(
            lambda: np.random.default_rng(seed), names, genomes, count
        )

    def test_word_draws_match_generator_integers(self):
        for n in range(2, 301):
            expected_rng = _pending_zero_word(n)
            expected = expected_rng.integers(0, n)
            rng = _pending_zero_word(n)
            stream = _Words(rng, 4, 4)
            assert stream.bounded(n) == expected
            stream.finish()
            assert rng.bit_generator.state == expected_rng.bit_generator.state
            # Word 0 is rejected unless n is a power of two.
            assert stream.pos == (1 if n & (n - 1) == 0 else 2)

    def test_parent_draws_that_redraw_match(self):
        rng = np.random.default_rng(11)
        names = ["x", "y", "z"]
        genomes = [
            {name: {int(m): 1 for m in rng.choice(15, size=2, replace=False) + 1} for name in names}
            for _ in range(100)
        ]
        _assert_matches_reference(lambda: _pending_zero_word(5), names, genomes, 100)

    def test_redraws_past_the_buffer_draw_more_words(self):
        # One pair reads at most 2 + I·(2S + 1) = 5 words here without
        # redraws.  The pending zero word makes the first parent draw
        # (p = 3) redraw, and a pair whose two split bits agree then needs a
        # repair word as well: 6 words.
        names = ["i"]
        genomes = [{"i": {1: 1}}, {"i": {2: 1}}, {"i": {3: 1}}]
        overran = 0
        for seed in range(16):
            _assert_matches_reference(lambda: _pending_zero_word(seed), names, genomes, 2)
            rng = _pending_zero_word(seed)
            recombine(rng, PackedPopulation.from_genomes(genomes, names), 2)
            overran += _words_used(seed, rng) > 5
        assert overran

    def test_merged_multiplicities_widen_the_dtype(self):
        names = ["i"]
        genomes = [{"i": {1: 200}}, {"i": {1: 100}}]
        widened = False
        for seed in range(32):
            children = _assert_matches_reference(
                lambda: np.random.default_rng(seed), names, genomes, 2
            )
            widened |= children.mults.dtype == np.uint16
        assert widened


def _replay_first_pair(rng, size):
    """The parents the operator's first pair draws: two ``integers(0, p)``."""
    clone = np.random.default_rng()
    clone.bit_generator.state = rng.bit_generator.state
    return int(clone.integers(0, size)), int(clone.integers(0, size))


class TestRecombine:
    @given(_genome_strategy(), _genome_strategy(), st.integers(0, 999))
    @settings(max_examples=80, deadline=None)
    def test_children_partition_pooled_edges(self, genome_a, genome_b, seed):
        rng = np.random.default_rng(seed)
        # A population lists every genome's instructions in one order.
        parents = [genome_a, {name: genome_b[name] for name in genome_a}]
        i, j = _replay_first_pair(rng, 2)
        parent_a, parent_b = parents[i], parents[j]
        child_a, child_b = recombine(rng, PackedPopulation.from_genomes(parents), 2).to_genomes()
        for name in parent_a:
            pooled_volume = genome_volume({name: parent_a[name]}) + genome_volume(
                {name: parent_b[name]}
            )
            child_volume = genome_volume({name: child_a[name]}) + genome_volume(
                {name: child_b[name]}
            )
            # The split partitions the pooled edges; the empty-side repair
            # can only duplicate one edge, never lose one.
            assert child_volume >= pooled_volume
            assert child_a[name], "child A lost all µops"
            assert child_b[name], "child B lost all µops"
            # Each child's µop masks come from the parents.
            parent_masks = set(parent_a[name]) | set(parent_b[name])
            assert set(child_a[name]) <= parent_masks
            assert set(child_b[name]) <= parent_masks

    def test_exact_split_without_repair(self):
        rng = np.random.default_rng(3)
        parents = [{"i": {0b001: 2}}, {"i": {0b010: 1}}]
        packed = PackedPopulation.from_genomes(parents)
        for _ in range(20):
            i, j = _replay_first_pair(rng, 2)
            child_a, child_b = recombine(rng, packed, 2).to_genomes()
            total = genome_volume(child_a) + genome_volume(child_b)
            # The pool's volume is the drawn parents'; repair may add one edge.
            assert total >= genome_volume(parents[i]) + genome_volume(parents[j])

    def test_identical_parents_can_merge_multiplicities(self):
        rng = np.random.default_rng(0)
        packed = PackedPopulation.from_genomes([{"i": {0b001: 1}}] * 2)
        seen_double = False
        for _ in range(50):
            child_a, child_b = recombine(rng, packed, 2).to_genomes()
            if child_a["i"].get(0b001) == 2 or child_b["i"].get(0b001) == 2:
                seen_double = True
        assert seen_double  # both pooled copies can land on one side

    def test_odd_count_drops_the_last_child_b(self):
        rng = np.random.default_rng(4)
        packed = PackedPopulation.from_genomes([{"i": {1: 1, 2: 1}}, {"i": {4: 1}}])
        assert len(recombine(rng, packed, 3)) == 3


class TestMutate:
    @given(_genome_strategy(), st.integers(0, 99))
    @settings(max_examples=50, deadline=None)
    def test_invariants_preserved(self, genome, seed):
        rng = np.random.default_rng(seed)
        mutated = mutate(rng, genome, 3, {"a": 1.0, "b": 2.0}, rate=1.0)
        assert set(mutated) == set(genome)
        for name, uops in mutated.items():
            assert uops, f"{name} lost all µops"
            for mask, count in uops.items():
                assert 1 <= mask <= 0b111
                assert count >= 1

    def test_zero_rate_is_identity(self):
        rng = np.random.default_rng(1)
        genome = {"a": {0b001: 2}, "b": {0b110: 1}}
        assert mutate(rng, genome, 3, {"a": 1.0, "b": 1.0}, rate=0.0) == genome

    def test_mutation_changes_something_eventually(self):
        rng = np.random.default_rng(2)
        genome = {"a": {0b001: 2}, "b": {0b110: 1}}
        changed = any(
            mutate(rng, genome, 3, {"a": 1.0, "b": 1.0}, rate=1.0) != genome
            for _ in range(10)
        )
        assert changed


def test_mask_size_sanity():
    # Guard against accidental semantic drift in the shared helper.
    assert mask_size(0b101) == 2
