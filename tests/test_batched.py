"""Tests for the batched throughput evaluator (the EA's fitness engine)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Experiment,
    ExperimentError,
    ExperimentSet,
    MappingError,
    PortSpace,
    ThreeLevelMapping,
)
from repro.pmevo import PackedPopulation
from repro.throughput import (
    BatchedThroughputEvaluator,
    FixedMappingEvaluator,
    MappingPredictor,
    bottleneck_throughput,
    bottleneck_throughput_reference,
    lp_throughput_masses,
)
from repro.throughput.batched import _PACKED_BLOCK


@pytest.fixture
def simple_setup(paper_three_level):
    experiments = ExperimentSet()
    experiments.add(Experiment({"add": 2, "mul": 1, "store": 1}), 2.5)
    experiments.add(Experiment({"add": 1}), 0.5)
    experiments.add(Experiment({"mul": 1, "store": 1}), 2.0)
    names = ("add", "mul", "store", "sub")
    evaluator = BatchedThroughputEvaluator(experiments, names, 3)
    return evaluator, paper_three_level


class TestConstruction:
    def test_duplicate_names_rejected(self):
        experiments = ExperimentSet()
        experiments.add(Experiment({"a": 1}), 1.0)
        with pytest.raises(MappingError):
            BatchedThroughputEvaluator(experiments, ("a", "a"), 2)

    def test_unknown_instruction_rejected(self):
        experiments = ExperimentSet()
        experiments.add(Experiment({"ghost": 1}), 1.0)
        with pytest.raises(ExperimentError):
            BatchedThroughputEvaluator(experiments, ("a",), 2)

    def test_empty_experiments_rejected(self):
        with pytest.raises(ExperimentError):
            BatchedThroughputEvaluator(ExperimentSet(), ("a",), 2)

    def test_plain_experiment_list_has_no_measurements(self):
        evaluator = BatchedThroughputEvaluator([Experiment({"a": 1})], ("a",), 2)
        with pytest.raises(ExperimentError):
            evaluator.davg({"a": {0b1: 1}})


class TestAgainstScalarModel:
    def test_matches_mapping_predictor(self, simple_setup):
        evaluator, mapping = simple_setup
        predictor = MappingPredictor(mapping)
        batched = evaluator.throughputs(mapping)
        scalar = [predictor.predict(e) for e in evaluator.experiments]
        assert batched == pytest.approx(scalar)

    def test_predictor_backend_is_bottleneck_only(self, simple_setup):
        _, mapping = simple_setup
        assert MappingPredictor(mapping, backend="bottleneck").name == "mapping"
        with pytest.raises(ValueError):
            MappingPredictor(mapping, backend="lp")

    def test_davg_definition(self, simple_setup):
        evaluator, mapping = simple_setup
        predicted = evaluator.throughputs(mapping)
        expected = np.mean(
            np.abs(predicted - np.array(evaluator.measured)) / evaluator.measured
        )
        assert evaluator.davg(mapping) == pytest.approx(float(expected))

    def test_missing_uops_rejected(self, simple_setup):
        evaluator, _ = simple_setup
        with pytest.raises(MappingError):
            evaluator.throughputs({"add": {0b1: 1}})  # mul/store uncovered

    def test_invalid_mask_rejected(self, simple_setup):
        evaluator, _ = simple_setup
        genome = {"add": {0b1000: 1}, "mul": {1: 1}, "store": {1: 1}}
        with pytest.raises(MappingError):
            evaluator.throughputs(genome)

    def test_extra_instructions_in_genome_ignored(self, simple_setup):
        evaluator, mapping = simple_setup
        genome = {name: uops for name, uops in mapping.items()}
        genome["unrelated"] = {0b1: 1}
        assert evaluator.throughputs(genome) is not None


@st.composite
def genome_and_experiments(draw):
    num_ports = draw(st.integers(min_value=2, max_value=5))
    full = (1 << num_ports) - 1
    names = ["i0", "i1", "i2"]
    genome = {}
    for name in names:
        uops = draw(
            st.dictionaries(
                st.integers(min_value=1, max_value=full),
                st.integers(min_value=1, max_value=3),
                min_size=1,
                max_size=3,
            )
        )
        genome[name] = uops
    experiments = draw(
        st.lists(
            st.dictionaries(
                st.sampled_from(names),
                st.integers(min_value=1, max_value=4),
                min_size=1,
                max_size=3,
            ),
            min_size=1,
            max_size=5,
        )
    )
    return num_ports, names, genome, [Experiment(e) for e in experiments]


class TestPropertyAgainstScalar:
    @given(genome_and_experiments())
    @settings(max_examples=60, deadline=None)
    def test_batched_equals_scalar_bottleneck(self, setup):
        num_ports, names, genome, experiments = setup
        evaluator = BatchedThroughputEvaluator(experiments, names, num_ports)
        mapping = ThreeLevelMapping(PortSpace.numbered(num_ports), genome)
        predictor = MappingPredictor(mapping)
        batched = evaluator.throughputs(genome)
        scalar = [predictor.predict(e) for e in experiments]
        assert batched == pytest.approx(scalar)
        # Integer masses make the kernel exact, not merely close.
        reference = [
            bottleneck_throughput_reference(mapping.uop_masses(e), num_ports)
            for e in experiments
        ]
        assert batched.tolist() == reference


def _heavy_mapping(multiplicity):
    return ThreeLevelMapping(
        PortSpace.numbered(2), {"a": {0b01: multiplicity}, "b": {0b10: 1}}
    )


def _packed(mapping):
    """The mapping as a one-genome packed population."""
    genome = {name: mapping.uops_of(name) for name in mapping.instructions}
    return PackedPopulation.from_genomes([genome], mapping.instructions)


class TestExactnessGuard:
    """Masses are exact float64 integers only below 2^53; past it the
    kernel refuses instead of answering a rounded value.  The packed kernel
    runs in float32 while every row total stays below 2^24, and in float64
    from 2^24 on."""

    @pytest.mark.parametrize("total", [2**24 - 1, 2**24, 2**24 + 1])
    def test_row_totals_around_2_to_24_are_exact(self, total):
        # Every µop may issue on both ports, so the bottleneck is the full
        # set: total / 2, which float32 would round at the odd 2^24 + 1.
        mapping = ThreeLevelMapping(
            PortSpace.numbered(2), {"a": {0b11: total - 3}, "b": {0b11: 1}}
        )
        sequence = Experiment({"a": 1, "b": 3})
        expected = bottleneck_throughput_reference(mapping.uop_masses(sequence), 2)
        assert expected == total / 2
        batched = BatchedThroughputEvaluator([sequence], mapping.instructions, 2)
        assert batched.throughputs_from_packed(_packed(mapping)).tolist() == [[expected]]

    @pytest.mark.parametrize("heavy", [_PACKED_BLOCK - 1, _PACKED_BLOCK])
    def test_one_heavy_genome_among_light_ones_is_exact(self, heavy):
        names = ("a", "b")
        experiments = [
            Experiment({"a": 1, "b": 3}),
            Experiment({"a": 2}),
            Experiment({"b": 1}),
            Experiment({"a": 1, "b": 1}),
        ]
        genomes = [
            {"a": {0b01: 1 + g % 3, 0b11: 1 + g % 2}, "b": {0b10: 2, 0b11: 1 + g % 5}}
            for g in range(2 * _PACKED_BLOCK + 1)
        ]
        # Its first row total is 2^24 + 1, odd, so float32 would round it.
        genomes[heavy] = {"a": {0b11: 2**24 - 2}, "b": {0b01: 1}}
        evaluator = BatchedThroughputEvaluator(experiments, names, 2)
        expected = np.stack([evaluator.throughputs(genome) for genome in genomes])
        packed = PackedPopulation.from_genomes(genomes, names)
        assert np.array_equal(evaluator.throughputs_from_packed(packed), expected)

    def test_mass_at_2_to_53_raises_in_both_evaluators(self):
        mapping = _heavy_mapping(2**52 + 1)
        sequence = Experiment({"a": 3, "b": 1})  # Equation 1: 3 * (2^52 + 1)
        fixed = FixedMappingEvaluator(mapping)
        with pytest.raises(ExperimentError):
            fixed.throughputs([sequence])
        batched = BatchedThroughputEvaluator([sequence], mapping.instructions, 2)
        with pytest.raises(ExperimentError):
            batched.throughputs(mapping)
        # The packed path reads its guard from the size-|P| maximum, the
        # full port set's mass.
        with pytest.raises(ExperimentError):
            batched.throughputs_from_packed(_packed(mapping))

    def test_mass_just_below_2_to_53_is_exact(self):
        mapping = _heavy_mapping(2**52 + 1)
        sequence = Experiment({"a": 1, "b": 2**52 - 3})  # total 2^53 - 2
        fixed = FixedMappingEvaluator(mapping)
        expected = bottleneck_throughput_reference(mapping.uop_masses(sequence), 2)
        assert expected == 2**52 + 1
        assert fixed.throughput(sequence) == expected
        batched = BatchedThroughputEvaluator([sequence], mapping.instructions, 2)
        assert batched.throughputs(mapping).tolist() == [expected]
        assert batched.throughputs_from_packed(_packed(mapping)).tolist() == [[expected]]


@st.composite
def wide_mapping_and_batch(draw):
    """A mapping on up to 40 ports over at most 10 distinct masks (so its
    union closure has at most 1,024 sets), and a batch of experiments."""
    num_ports = draw(st.integers(min_value=2, max_value=40))
    full = (1 << num_ports) - 1
    masks = draw(st.lists(st.integers(1, full), min_size=1, max_size=10, unique=True))
    names = [f"i{i}" for i in range(draw(st.integers(1, 8)))]
    uops = st.dictionaries(st.sampled_from(masks), st.integers(1, 3), min_size=1, max_size=3)
    assignment = {name: draw(uops) for name in names}
    mapping = ThreeLevelMapping(PortSpace.numbered(num_ports), assignment)
    experiment = st.dictionaries(st.sampled_from(names), st.integers(1, 5), min_size=1)
    batch = draw(st.lists(experiment, min_size=1, max_size=6))
    return mapping, [Experiment(counts) for counts in batch]


class TestFixedMappingEvaluator:
    def test_empty_batch_gives_empty_result(self, paper_three_level):
        out = FixedMappingEvaluator(paper_three_level).throughputs([])
        assert out.shape == (0,)

    @given(wide_mapping_and_batch())
    @settings(max_examples=100, deadline=None)
    def test_closure_table_matches_every_backend(self, mapping_and_batch):
        # No array of length 2^|P| may exist: at 40 ports one would not fit
        # in memory.
        mapping, batch = mapping_and_batch
        num_ports = mapping.ports.num_ports
        fixed = FixedMappingEvaluator(mapping).throughputs(batch)
        batched = BatchedThroughputEvaluator(batch, mapping.instructions, num_ports)
        assert batched.throughputs(mapping).tolist() == fixed.tolist()
        for experiment, predicted in zip(batch, fixed.tolist()):
            masses = mapping.uop_masses(experiment)
            assert predicted == bottleneck_throughput(masses, num_ports)
            if num_ports <= 10:
                assert predicted == bottleneck_throughput_reference(masses, num_ports)
            lp = lp_throughput_masses(masses, num_ports)
            assert predicted == pytest.approx(lp, rel=1e-9)
