"""Tests for genome representation and population initialization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import InferenceError, PortSpace, ThreeLevelMapping
from repro.core.ports import mask_size
from repro.pmevo import genome_volume, random_genome, random_population
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
        genome = random_genome(rng, names, num_ports, throughputs)
        full = (1 << num_ports) - 1
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
            random_genome(rng, ["x"], 2, {})

    def test_invalid_ports_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InferenceError):
            random_genome(rng, ["x"], 0, {"x": 1.0})


class TestRandomPopulation:
    def test_size_and_diversity(self):
        rng = np.random.default_rng(1)
        population = random_population(rng, 50, ["a", "b"], 3, {"a": 1.0, "b": 1.0})
        assert len(population) == 50
        keys = {genome_key(g) for g in population}
        assert len(keys) > 25  # random init should be diverse

    def test_invalid_size_rejected(self):
        rng = np.random.default_rng(1)
        with pytest.raises(InferenceError):
            random_population(rng, 0, ["a"], 2, {"a": 1.0})
