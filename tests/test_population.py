"""Tests for genome representation and the packed initial population.

:func:`repro.pmevo.operators.random_population` is pinned to the dict
sampler it replaced (``tests/reference_operators.py``): the same arrays,
slot orders and dtypes as packing the sampler's genomes, and the same
generator state after the call.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_operators
from repro.core import InferenceError, MappingError, PortSpace, ThreeLevelMapping
from repro.core.ports import mask_size
from repro.pmevo import PackedPopulation, genome_volume, operators, random_population
from repro.pmevo.population import copy_genome, genome_key, multiplicity_bound


class TestGenomeHelpers:
    def test_volume(self):
        genome = {"a": {0b011: 2, 0b100: 1}, "b": {0b001: 3}}
        # 2*2 + 1*1 + 3*1 = 8
        assert genome_volume(genome) == 8

    def test_copy_is_deep(self):
        genome = {"a": {1: 1}}
        clone = copy_genome(genome)
        clone["a"][1] = 99
        assert genome["a"][1] == 1

    def test_key_is_order_insensitive(self):
        g1 = {"a": {1: 1, 2: 2}, "b": {4: 1}}
        g2 = {"b": {4: 1}, "a": {2: 2, 1: 1}}
        assert genome_key(g1) == genome_key(g2)

    def test_to_mapping(self):
        # A genome is a three-level mapping's assignment as it stands.
        genome = {"a": {0b011: 2}}
        mapping = ThreeLevelMapping(PortSpace.numbered(2), genome)
        assert mapping.uops_of("a") == {0b011: 2}

    def test_multiplicity_bound(self):
        assert multiplicity_bound(0.25, 1) == 1  # ceil(0.25)
        assert multiplicity_bound(1.0, 3) == 3  # ceil(3.0)
        assert multiplicity_bound(2.5, 2) == 5  # ceil(5.0)


class TestRandomGenome:
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=99))
    @settings(max_examples=40, deadline=None)
    def test_invariants(self, num_ports, seed):
        rng = np.random.default_rng(seed)
        names = ["x", "y", "z"]
        throughputs = {"x": 0.5, "y": 1.0, "z": 3.0}
        population = random_population(rng, 4, names, num_ports, throughputs)
        population._check_invariants()
        full = (1 << num_ports) - 1
        for genome in population.to_genomes():
            for name in names:
                uops = genome[name]
                assert uops, "every instruction needs at least one µop"
                assert len(uops) <= num_ports
                for mask, count in uops.items():
                    assert 1 <= mask <= full
                    assert count >= 1
                    bound = max(1, math.ceil(throughputs[name] * mask_size(mask) - 1e-12))
                    assert count <= bound

    def test_missing_throughput_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InferenceError):
            random_population(rng, 1, ["x"], 2, {})

    def test_invalid_ports_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InferenceError):
            random_population(rng, 1, ["x"], 0, {"x": 1.0})

    def test_masks_past_uint32_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(MappingError):
            random_population(rng, 1, ["x"], 33, {"x": 1.0})


class TestRandomPopulation:
    def test_size_and_diversity(self):
        rng = np.random.default_rng(1)
        population = random_population(rng, 50, ["a", "b"], 3, {"a": 1.0, "b": 1.0})
        assert len(population) == 50
        keys = set(population.row_keys().tolist())
        assert len(keys) > 25  # random init should be diverse

    def test_invalid_size_rejected(self):
        rng = np.random.default_rng(1)
        with pytest.raises(InferenceError):
            random_population(rng, 0, ["a"], 2, {"a": 1.0})


def _assert_matches_dict_sampler(make_rng, size, names, num_ports, singles):
    rng, reference_rng = make_rng(), make_rng()
    sampled = random_population(rng, size, names, num_ports, singles)
    genomes = reference_operators.random_population(
        reference_rng, size, names, num_ports, singles
    )
    expected = PackedPopulation.from_genomes(genomes, names)
    assert sampled.names == expected.names
    assert sampled.masks.dtype == expected.masks.dtype
    assert sampled.mults.dtype == expected.mults.dtype
    assert np.array_equal(sampled.masks, expected.masks)  # slot width and order too
    assert np.array_equal(sampled.mults, expected.mults)
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@st.composite
def _sampler_inputs(draw):
    """1-12 ports or 32, 1-16 instructions with singleton throughputs in
    [0.05, 20], 1-64 genomes."""
    num_ports = draw(st.one_of(st.integers(1, 12), st.just(32)))
    names = [f"i{k}" for k in range(draw(st.integers(1, 16)))]
    singles = {name: draw(st.floats(0.05, 20.0)) for name in names}
    return draw(st.integers(1, 64)), names, num_ports, singles


class TestAgainstDictSampler:
    @given(_sampler_inputs(), st.integers(0, 2**128 - 1))
    @settings(max_examples=150, deadline=None)
    def test_population_dtypes_and_generator_state_match(self, inputs, seed):
        _assert_matches_dict_sampler(lambda: np.random.default_rng(seed), *inputs)

    def test_draws_that_redraw_match(self):
        def pending_zero_word():
            # The next 32-bit word is 0, so the first µop count draw, in
            # [0, |P|) for a |P| that is no power of two, draws again.
            rng = np.random.default_rng(7)
            state = rng.bit_generator.state
            state["has_uint32"], state["uinteger"] = 1, 0
            rng.bit_generator.state = state
            return rng

        for num_ports in (3, 5, 6, 7):
            _assert_matches_dict_sampler(
                pending_zero_word, 20, ["x", "y"], num_ports, {"x": 0.5, "y": 2.5}
            )

    def test_word_buffers_split_anywhere(self, monkeypatch):
        monkeypatch.setattr(operators, "_INIT_CHUNK", 3)
        for size in (1, 3, 4, 10):
            _assert_matches_dict_sampler(
                lambda: np.random.default_rng(size), size, ["x", "y", "z"], 4,
                {"x": 1.0, "y": 0.3, "z": 7.0},
            )
