"""Integration tests for the end-to-end PMEvo pipeline (Figure 5)."""

import pytest

from repro.core import Experiment, InferenceError
from repro.machine import MeasurementConfig, toy_machine
from repro.pmevo import EvolutionConfig, PMEvoConfig, infer_port_mapping
from repro.throughput import MappingPredictor


@pytest.fixture(scope="module")
def toy_result():
    machine = toy_machine(num_ports=3, measurement=MeasurementConfig(noisy=False))
    config = PMEvoConfig(
        evolution=EvolutionConfig(population_size=120, max_generations=80, seed=1)
    )
    return machine, infer_port_mapping(machine, config=config)


class TestPipelineOnToyMachine:
    def test_mapping_covers_full_isa(self, toy_result):
        machine, result = toy_result
        assert set(result.mapping.instructions) == set(machine.isa.names)

    def test_accuracy_on_training_experiments(self, toy_result):
        _, result = toy_result
        assert result.evolution.davg <= 0.02

    def test_congruent_instructions_share_decomposition(self, toy_result):
        _, result = toy_result
        for rep, members in result.partition.classes.items():
            for member in members:
                assert result.mapping.uops_of(member) == result.mapping.uops_of(rep)

    def test_predicts_heldout_experiments(self, toy_result):
        """The inferred mapping must predict experiments it never saw."""
        machine, result = toy_result
        predictor = MappingPredictor(result.mapping)
        names = machine.isa.names
        held_out = [
            Experiment({names[0]: 2, names[2]: 1}),
            Experiment({names[1]: 1, names[3]: 2, names[5]: 1}),
            Experiment({names[4]: 3, names[6]: 1}),
        ]
        for experiment in held_out:
            measured = machine.measure(experiment)
            predicted = predictor.predict(experiment)
            assert predicted == pytest.approx(measured, rel=0.15), experiment

    def test_table2_statistics(self, toy_result):
        _, result = toy_result
        row = result.table2_row()
        assert set(row) == {
            "benchmarking time (s)",
            "inference time (s)",
            "insns found congruent",
            "number of uops",
        }
        assert result.congruent_fraction >= 0.5  # toy ISA is heavily congruent
        assert result.num_uops >= 1
        assert result.benchmarking_seconds > 0
        assert result.inference_seconds > 0

    def test_restricted_universe(self):
        machine = toy_machine(num_ports=3, measurement=MeasurementConfig(noisy=False))
        names = machine.isa.names[:4]
        config = PMEvoConfig(
            evolution=EvolutionConfig(population_size=60, max_generations=40, seed=0)
        )
        result = infer_port_mapping(machine, names=names, config=config)
        assert set(result.mapping.instructions) == set(names)


@pytest.mark.parametrize("epsilon", [0.0, -1.0, float("nan")])
def test_config_rejects_a_non_positive_epsilon(epsilon):
    # Rejected when the config is built, before anything is measured.
    with pytest.raises(InferenceError, match="epsilon must be positive"):
        PMEvoConfig(epsilon=epsilon)


class TestPipelineWithNoise:
    def test_noisy_measurements_still_recoverable(self):
        machine = toy_machine(
            num_ports=3,
            measurement=MeasurementConfig(noisy=True, seed=9, jitter_sigma=0.004),
        )
        config = PMEvoConfig(
            epsilon=0.05,
            evolution=EvolutionConfig(population_size=120, max_generations=60, seed=4),
        )
        result = infer_port_mapping(machine, config=config)
        # Noise bounds accuracy, but the mapping should still explain the
        # measurements to within a few percent.
        assert result.evolution.davg <= 0.05
        # Congruence filtering must survive noise thanks to epsilon.
        assert result.congruent_fraction >= 0.4
