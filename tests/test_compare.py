"""Tests for mapping comparison (behavioural distance, port permutations)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    canonical_experiments,
    find_port_permutation,
    mapping_diff,
    permutation_equivalent,
    throughput_distance,
)
from repro.core import MappingError, PortSpace, ThreeLevelMapping
from repro.core.ports import indices_from_mask, mask_from_indices
from repro.throughput import MappingPredictor, predict_many
from repro.throughput.batched import _FIXED_BLOCK


def _permute(mapping: ThreeLevelMapping, permutation) -> ThreeLevelMapping:
    assignment = {}
    for name in mapping.instructions:
        uops = {}
        for mask, count in mapping.uops_of(name).items():
            new_mask = mask_from_indices(permutation[i] for i in indices_from_mask(mask))
            uops[new_mask] = uops.get(new_mask, 0) + count
        assignment[name] = uops
    return ThreeLevelMapping(mapping.ports, assignment)


@pytest.fixture
def sample(paper_three_level):
    return paper_three_level


class TestThroughputDistance:
    def test_identity_is_zero(self, sample):
        assert throughput_distance(sample, sample) == 0.0

    def test_permuted_mapping_is_behaviourally_identical(self, sample):
        permuted = _permute(sample, (2, 0, 1))
        assert throughput_distance(sample, permuted) == pytest.approx(0.0)

    def test_detects_differences(self, sample):
        ports = sample.ports
        other = ThreeLevelMapping(
            ports,
            {
                "mul": {ports.mask("P1"): 1},  # halved multiplicity
                "add": {ports.mask("P1", "P2"): 1},
                "sub": {ports.mask("P1", "P2"): 1},
                "store": {ports.mask("P1", "P2"): 1, ports.mask("P3"): 1},
            },
        )
        assert throughput_distance(sample, other) > 0.01

    def test_port_count_mismatch_rejected(self, sample):
        other = ThreeLevelMapping(PortSpace.numbered(4), {"mul": {1: 1}})
        with pytest.raises(MappingError):
            throughput_distance(sample, other)

    def test_instruction_mismatch_rejected(self, sample):
        other = ThreeLevelMapping(sample.ports, {"mul": {1: 1}})
        with pytest.raises(MappingError):
            throughput_distance(sample, other)

    def test_family_beyond_one_chunk_gives_the_per_experiment_mean(self):
        rng = np.random.default_rng(0)
        ports = PortSpace.numbered(6)
        names = [f"op{i}" for i in range(60)]

        def random_mapping():
            return ThreeLevelMapping(
                ports,
                {
                    name: {int(rng.integers(1, 64)): int(rng.integers(1, 4)) for _ in range(2)}
                    for name in names
                },
            )

        first, second = random_mapping(), random_mapping()
        family = canonical_experiments(names)
        assert len(family) > _FIXED_BLOCK
        t1 = predict_many(MappingPredictor(first), family)
        t2 = predict_many(MappingPredictor(second), family)
        expected = float(np.mean(np.abs(t1 - t2) / np.maximum(t1, t2)))
        assert expected > 0.0
        assert throughput_distance(first, second) == expected


class TestCanonicalExperiments:
    def test_counts(self):
        experiments = canonical_experiments(["a", "b", "c"])
        # 3 singletons + 3 pairs * 3 variants.
        assert len(experiments) == 3 + 9
        assert len(set(experiments)) == len(experiments)


class TestPortPermutation:
    def test_finds_identity(self, sample):
        assert find_port_permutation(sample, sample) == (0, 1, 2)

    def test_finds_nontrivial_permutation(self, sample):
        permutation = (2, 0, 1)
        permuted = _permute(sample, permutation)
        found = find_port_permutation(sample, permuted)
        assert found == permutation
        assert permutation_equivalent(sample, permuted)

    def test_rejects_structurally_different(self, sample):
        ports = sample.ports
        other = ThreeLevelMapping(
            ports,
            {
                "mul": {ports.mask("P1"): 2},
                "add": {ports.mask("P1", "P2"): 1},
                "sub": {ports.mask("P1", "P2"): 1},
                # store loses its second µop: no permutation can fix that.
                "store": {ports.mask("P3"): 1},
            },
        )
        assert find_port_permutation(sample, other) is None
        assert not permutation_equivalent(sample, other)

    @given(st.permutations(range(4)))
    @settings(max_examples=24, deadline=None)
    def test_random_permutations_recovered(self, permutation):
        ports = PortSpace.numbered(4)
        mapping = ThreeLevelMapping(
            ports,
            {
                "w": {0b0001: 2},
                "x": {0b0011: 1},
                "y": {0b0110: 1, 0b1000: 1},
                "z": {0b1111: 3},
            },
        )
        permuted = _permute(mapping, permutation)
        assert permutation_equivalent(mapping, permuted)
        found = find_port_permutation(mapping, permuted)
        # The recovered permutation must transform first into second (it
        # need not equal `permutation` if the mapping has symmetries).
        assert _permute(mapping, found) == permuted


class TestMappingDiff:
    def test_identical_mappings(self, sample):
        comparison = mapping_diff(sample, sample)
        assert comparison.behavioural_distance == 0.0
        assert comparison.structurally_equivalent
        assert comparison.diff_text == "mappings are identical"

    def test_diff_lists_changed_instructions_only(self, sample):
        ports = sample.ports
        other = ThreeLevelMapping(
            ports,
            {
                "mul": {ports.mask("P1"): 1},
                "add": {ports.mask("P1", "P2"): 1},
                "sub": {ports.mask("P1", "P2"): 1},
                "store": {ports.mask("P1", "P2"): 1, ports.mask("P3"): 1},
            },
        )
        comparison = mapping_diff(sample, other, "inferred", "truth")
        assert "mul" in comparison.diff_text
        assert "add" not in comparison.diff_text
        assert not comparison.structurally_equivalent
