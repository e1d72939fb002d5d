"""Tests for the packed population representation and its fused kernel.

Three invariants, each load-bearing for the evolutionary search:

* **Lossless packing.**  ``Genome -> PackedPopulation -> Genome`` is the
  identity, *including every dict's insertion order* — the recombination RNG
  stream observes µop iteration order, so a lossy round trip would silently
  change evolution trajectories after a checkpoint/migration hop.
* **Kernel equivalence.**  The population-wide packed kernel must agree
  with the dict-genome path (``throughputs(genome)``) — exactly (the
  fast-tier smoke gate below runs on every push), and within 1e-9 and
  exactly against ``bottleneck_throughput_reference`` under the hypothesis
  property test.
* **Compact serialization.**  The base64-npz payload round-trips exactly,
  fails loudly on malformed input, and is what
  :class:`~repro.pmevo.evolution.EvolutionState` now embeds — with the
  legacy list-shaped payload still accepted for old checkpoints.
"""

from __future__ import annotations

import base64
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CheckpointError,
    Experiment,
    MappingError,
    PortSpace,
    ThreeLevelMapping,
)
from repro.pmevo import PackedPopulation, genome_volume, random_genome
from repro.pmevo.evolution import EvolutionConfig, PortMappingEvolver
from repro.pmevo.testing import measurements_from_truth
from repro.throughput import BatchedThroughputEvaluator, bottleneck_throughput_reference


def _random_setup(seed: int, population: int = 8):
    rng = np.random.default_rng(seed)
    num_ports = int(rng.integers(2, 6))
    names = tuple(f"op{i}" for i in range(int(rng.integers(2, 7))))
    singles = {name: float(rng.uniform(0.5, 3.0)) for name in names}
    genomes = [random_genome(rng, names, num_ports, singles) for _ in range(population)]
    experiments = []
    for _ in range(6):
        size = min(int(rng.integers(1, 4)), len(names))
        support = rng.choice(len(names), size=size, replace=False)
        experiments.append(
            Experiment({names[int(i)]: int(rng.integers(1, 5)) for i in support})
        )
    return num_ports, names, genomes, experiments


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(8))
    def test_genomes_survive_exactly_including_order(self, seed):
        _, names, genomes, _ = _random_setup(seed)
        packed = PackedPopulation.from_genomes(genomes, names)
        back = packed.to_genomes()
        assert back == genomes
        # Dict equality ignores order; the RNG stream does not.  Compare the
        # full nested iteration orders explicitly.
        assert [list(g) for g in back] == [list(g) for g in genomes]
        assert [[list(u.items()) for u in g.values()] for g in back] == [
            [list(u.items()) for u in g.values()] for g in genomes
        ]

    def test_names_default_to_first_genome(self):
        genomes = [{"a": {1: 1}, "b": {2: 3}}, {"a": {3: 2}, "b": {1: 1, 2: 1}}]
        packed = PackedPopulation.from_genomes(genomes)
        assert packed.names == ("a", "b")
        assert packed.to_genomes() == genomes

    def test_volumes_match_scalar_definition(self):
        _, names, genomes, _ = _random_setup(3, population=16)
        packed = PackedPopulation.from_genomes(genomes, names)
        assert packed.volumes().tolist() == [genome_volume(g) for g in genomes]

    def test_empty_population_rejected(self):
        with pytest.raises(MappingError):
            PackedPopulation.from_genomes([])

    def test_mismatched_instructions_rejected(self):
        with pytest.raises(MappingError):
            PackedPopulation.from_genomes([{"a": {1: 1}}, {"b": {1: 1}}])

    def test_reordered_instructions_rejected(self):
        # Same key set but different insertion order: packing would lose the
        # order, so it must refuse rather than silently canonicalize.
        first = {"a": {1: 1}, "b": {2: 1}}
        second = {"b": {2: 1}, "a": {1: 1}}
        with pytest.raises(MappingError):
            PackedPopulation.from_genomes([first, second])

    def test_instruction_without_uops_rejected(self):
        with pytest.raises(MappingError):
            PackedPopulation.from_genomes([{"a": {}}])

    def test_nonpositive_masks_and_multiplicities_rejected(self):
        with pytest.raises(MappingError):
            PackedPopulation.from_genomes([{"a": {0: 1}}])
        with pytest.raises(MappingError):
            PackedPopulation.from_genomes([{"a": {1: 0}}])

    def test_wide_multiplicities_widen_the_dtype(self):
        packed = PackedPopulation.from_genomes([{"a": {1: 1000}}])
        assert packed.mults.dtype == np.uint16
        assert packed.to_genomes() == [{"a": {1: 1000}}]


class TestKernelEquivalence:
    def test_smoke_packed_equals_legacy_exactly(self):
        """The push-tier equivalence gate: packed == dict path, bit for bit."""
        truth = {"ad": {0b011: 1}, "mu": {0b100: 2}, "st": {0b011: 1, 0b100: 1}}
        names = ("ad", "mu", "st")
        measured, singles = measurements_from_truth(truth, names, 3)
        evaluator = BatchedThroughputEvaluator(measured, names, 3)
        rng = np.random.default_rng(0)
        genomes = [random_genome(rng, names, 3, singles) for _ in range(12)]

        legacy = np.stack([evaluator.throughputs(g) for g in genomes])
        packed = PackedPopulation.from_genomes(genomes, names)
        fused = evaluator.throughputs_from_packed(packed)
        assert np.array_equal(fused, legacy)
        assert np.array_equal(
            evaluator.davg_from_throughputs(fused),
            evaluator.davg_from_throughputs(legacy),
        )

    @pytest.mark.parametrize("capacity", [1, 3, 64])
    def test_chunked_workspace_reuse_is_exact(self, capacity):
        num_ports, names, genomes, experiments = _random_setup(11, population=10)
        evaluator = BatchedThroughputEvaluator(experiments, names, num_ports)
        packed = PackedPopulation.from_genomes(genomes, names)
        reference = evaluator.throughputs_from_packed(packed)
        workspace = evaluator.packed_workspace(capacity)
        for _ in range(2):  # reuse must not leak state between calls
            again = evaluator.throughputs_from_packed(packed, workspace=workspace)
            assert np.array_equal(again, reference)

    def test_packed_names_must_match_evaluator(self):
        num_ports, names, genomes, experiments = _random_setup(5)
        evaluator = BatchedThroughputEvaluator(experiments, names, num_ports)
        packed = PackedPopulation.from_genomes(genomes, names)
        renamed = PackedPopulation(
            tuple(f"x{i}" for i in range(len(names))), packed.masks, packed.mults
        )
        with pytest.raises(MappingError):
            evaluator.throughputs_from_packed(renamed)

    def test_out_of_range_masks_rejected(self):
        genomes = [{"a": {0b1000: 1}}]
        evaluator = BatchedThroughputEvaluator([Experiment({"a": 1})], ("a",), 3)
        packed = PackedPopulation.from_genomes(genomes)
        with pytest.raises(MappingError):
            evaluator.throughputs_from_packed(packed)


@st.composite
def packed_instances(draw):
    num_ports = draw(st.integers(min_value=2, max_value=5))
    full = (1 << num_ports) - 1
    names = ["i0", "i1", "i2"]
    genomes = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        genome = {}
        for name in names:
            genome[name] = draw(
                st.dictionaries(
                    st.integers(min_value=1, max_value=full),
                    st.integers(min_value=1, max_value=4),
                    min_size=1,
                    max_size=3,
                )
            )
        genomes.append(genome)
    experiments = draw(
        st.lists(
            st.dictionaries(
                st.sampled_from(names),
                st.integers(min_value=1, max_value=4),
                min_size=1,
                max_size=3,
            ),
            min_size=1,
            max_size=4,
        )
    )
    return num_ports, names, genomes, [Experiment(e) for e in experiments]


class TestPropertyAgainstLegacyPath:
    @given(packed_instances())
    @settings(max_examples=60, deadline=None)
    def test_packed_kernel_pins_to_dict_path(self, setup):
        """The 1e-9 pin of the packed kernel against the dict-genome path,
        plus exact equality with the reference at every workspace capacity
        (the kernel's integer-exactness contract)."""
        num_ports, names, genomes, experiments = setup
        evaluator = BatchedThroughputEvaluator(experiments, names, num_ports)
        packed = PackedPopulation.from_genomes(genomes, names)
        fused = evaluator.throughputs_from_packed(packed)
        ports = PortSpace.numbered(num_ports)
        reference = np.array(
            [
                [
                    bottleneck_throughput_reference(
                        ThreeLevelMapping(ports, genome).uop_masses(e), num_ports
                    )
                    for e in experiments
                ]
                for genome in genomes
            ]
        )
        for row, genome, exact in zip(fused, genomes, reference):
            single = evaluator.throughputs(genome)
            assert row == pytest.approx(single, abs=1e-9)
            assert np.array_equal(single, exact)
        for capacity in (1, 3, 64):
            chunked = evaluator.throughputs_from_packed(
                packed, workspace=evaluator.packed_workspace(capacity)
            )
            assert np.array_equal(chunked, reference)
        assert packed.to_genomes() == genomes


class TestSerialization:
    def test_npz_round_trip_is_exact(self):
        _, names, genomes, _ = _random_setup(21, population=12)
        packed = PackedPopulation.from_genomes(genomes, names)
        again = PackedPopulation.from_npz_base64(packed.to_npz_base64())
        assert again.names == packed.names
        assert np.array_equal(again.masks, packed.masks)
        assert np.array_equal(again.mults, packed.mults)
        assert again.masks.dtype == packed.masks.dtype
        assert again.mults.dtype == packed.mults.dtype
        assert again.to_genomes() == genomes

    def test_payload_is_json_safe_and_compact(self):
        _, names, genomes, _ = _random_setup(22, population=32)
        packed = PackedPopulation.from_genomes(genomes, names)
        payload = packed.to_npz_base64()
        assert json.loads(json.dumps(payload)) == payload
        from repro.pmevo.population import genome_to_jsonable

        legacy = json.dumps([genome_to_jsonable(g) for g in genomes])
        assert len(payload) < len(legacy)

    @pytest.mark.parametrize(
        "text",
        [
            "not@base64!",
            base64.b64encode(b"not an npz archive").decode("ascii"),
            "",
        ],
    )
    def test_malformed_payloads_raise_checkpoint_error(self, text):
        with pytest.raises(CheckpointError):
            PackedPopulation.from_npz_base64(text)

    def test_missing_arrays_raise_checkpoint_error(self):
        import io

        buffer = io.BytesIO()
        np.savez_compressed(buffer, masks=np.zeros((1, 1, 1), dtype=np.uint32))
        text = base64.b64encode(buffer.getvalue()).decode("ascii")
        with pytest.raises(CheckpointError):
            PackedPopulation.from_npz_base64(text)


def _toy_evolver(**overrides):
    truth = {"ad": {0b011: 1}, "mu": {0b100: 2}, "st": {0b011: 1, 0b100: 1}}
    names = ("ad", "mu", "st")
    measured, singles = measurements_from_truth(truth, names, 3)
    settings = {"population_size": 12, "max_generations": 6, "seed": 5}
    settings.update(overrides)
    config = EvolutionConfig(**settings)
    return PortMappingEvolver(PortSpace.numbered(3), measured, singles, config)


class TestStatePayloads:
    def test_state_round_trip_is_bit_identical(self):
        evolver = _toy_evolver()
        state = evolver.advance(evolver.init_state(), 3)
        clone = type(state).from_json(state.to_json())
        # Continue both: identical trajectories prove the packed payload
        # reproduced the population *and* its dict orders exactly.
        evolver.advance(state, 3)
        evolver.advance(clone, 3)
        assert state.to_json() == clone.to_json()

    def test_state_payload_uses_packed_encoding_and_shrinks(self):
        # The npz container has a fixed ~1 kB floor, so the size win shows
        # from realistic (non-toy) population sizes upward.
        evolver = _toy_evolver(population_size=64)
        state = evolver.init_state()
        payload = state.to_jsonable()
        assert payload["population"]["encoding"] == "packed-npz-b64"
        from repro.pmevo.population import genome_to_jsonable

        legacy_payload = dict(payload)
        legacy_payload["population"] = [
            genome_to_jsonable(g) for g in state.population
        ]
        assert len(json.dumps(payload)) < len(json.dumps(legacy_payload))

    def test_legacy_list_population_still_deserializes(self):
        evolver = _toy_evolver()
        state = evolver.init_state()
        from repro.pmevo.population import genome_to_jsonable

        legacy_payload = state.to_jsonable()
        legacy_payload["population"] = [
            genome_to_jsonable(g) for g in state.population
        ]
        restored = type(state).from_jsonable(legacy_payload)
        assert restored.population == state.population
        assert restored.to_json() == state.to_json()

    def test_unknown_population_encoding_rejected(self):
        evolver = _toy_evolver()
        payload = evolver.init_state().to_jsonable()
        payload["population"] = {"encoding": "pickle", "data": ""}
        with pytest.raises(CheckpointError):
            type(evolver.init_state()).from_jsonable(payload)

    def test_corrupt_packed_payload_rejected(self):
        evolver = _toy_evolver()
        payload = evolver.init_state().to_jsonable()
        payload["population"] = {"encoding": "packed-npz-b64", "data": "garbage!"}
        with pytest.raises(CheckpointError):
            type(evolver.init_state()).from_jsonable(payload)
