"""Tests for the baseline predictors (Section 5.3 comparisons)."""

import functools
import operator

import numpy as np
import pytest

from repro.baselines import (
    IACAPredictor,
    IthemalPredictor,
    LLVMMCAPredictor,
    TrainingConfig,
    UopsInfoPredictor,
    mca_scheduling_model,
)
from repro.core import Experiment, ExperimentSet, ISAError, TwoLevelMapping
from repro.machine import (
    PRESET_NAMES,
    MeasurementConfig,
    a72_machine,
    preset_machine,
    skl_machine,
    zen_machine,
)
from repro.pmevo import random_experiments
from repro.throughput import MappingPredictor, bottleneck_throughput


@pytest.fixture(scope="module")
def skl():
    return skl_machine(measurement=MeasurementConfig(noisy=False))


@pytest.fixture(scope="module")
def zen():
    return zen_machine(measurement=MeasurementConfig(noisy=False))


@pytest.fixture(scope="module")
def skl_bench(skl):
    names = [n for i, n in enumerate(skl.isa.names) if i % 11 == 0][:18]
    experiments = random_experiments(names, size=4, count=40, seed=8)
    bench = ExperimentSet()
    for experiment in experiments:
        bench.add(experiment, skl.measure(experiment))
    return bench


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_mapping_predictors_equal_per_experiment_bottleneck(name):
    # Every mapping-based predictor answers from its mapping's union-closure
    # table; that must be Equation 1 on the experiment's µop masses, bit for
    # bit, for three-level and two-level mappings alike.
    machine = preset_machine(name, MeasurementConfig(noisy=False))
    truth = machine.ground_truth_mapping()
    two_level = TwoLevelMapping(
        truth.ports,
        {n: functools.reduce(operator.or_, truth.uops_of(n)) for n in truth.instructions},
    )
    predictors = [MappingPredictor(truth), MappingPredictor(two_level), LLVMMCAPredictor(machine)]
    if name in UopsInfoPredictor.SUPPORTED:
        predictors.append(UopsInfoPredictor(machine))
    experiments = random_experiments(truth.instructions, size=5, count=300, seed=5)
    num_ports = truth.ports.num_ports
    for predictor in predictors:
        for experiment in experiments:
            masses = predictor.mapping.uop_masses(experiment)
            assert predictor.predict(experiment) == bottleneck_throughput(masses, num_ports)


class TestUopsInfo:
    def test_supported_platforms(self, skl, zen):
        assert UopsInfoPredictor(skl).name == "uops.info"
        with pytest.raises(ISAError):
            UopsInfoPredictor(zen)

    def test_predicts_simple_singleton(self, skl):
        predictor = UopsInfoPredictor(skl)
        add = next(f.name for f in skl.isa if f.semantic_class == "int_alu")
        assert predictor.predict(Experiment({add: 1})) == pytest.approx(0.25)

    def test_close_to_measurement_on_random_mixes(self, skl, skl_bench):
        predictor = UopsInfoPredictor(skl)
        errors = [
            abs(predictor.predict(item.experiment) - item.throughput) / item.throughput
            for item in skl_bench
        ]
        assert float(np.mean(errors)) < 0.15


class TestIACA:
    def test_supported_platforms(self, skl, zen):
        assert IACAPredictor(skl).name == "IACA"
        with pytest.raises(ISAError):
            IACAPredictor(zen)

    def test_close_to_measurement(self, skl, skl_bench):
        predictor = IACAPredictor(skl)
        errors = [
            abs(predictor.predict(item.experiment) - item.throughput) / item.throughput
            for item in skl_bench
        ]
        assert float(np.mean(errors)) < 0.12

    def test_misses_hidden_quirk(self, skl):
        """IACA does not know the BTx erratum, like every published model."""
        predictor = IACAPredictor(skl)
        bt = next(f.name for f in skl.isa if f.semantic_class == "bt")
        e = Experiment({bt: 1})
        assert predictor.predict(e) < skl.measure(e)


class TestLLVMMCA:
    def test_model_exists_for_all_presets(self, skl, zen):
        for machine in (skl, zen, a72_machine(measurement=MeasurementConfig(noisy=False))):
            mapping = mca_scheduling_model(machine)
            assert set(mapping.instructions) == set(machine.isa.names)

    def test_overestimates_on_zen(self, zen):
        """Table 4's signature: the untuned model inflates cycle counts."""
        predictor = LLVMMCAPredictor(zen)
        names = [n for i, n in enumerate(zen.isa.names) if i % 13 == 0][:12]
        experiments = random_experiments(names, size=4, count=30, seed=5)
        predicted = np.array([predictor.predict(e) for e in experiments])
        measured = np.array([zen.measure(e) for e in experiments])
        assert np.mean(predicted >= measured * 0.99) > 0.6
        assert float(np.mean(np.abs(predicted - measured) / measured)) > 0.25

    def test_reasonable_on_skl(self, skl, skl_bench):
        predictor = LLVMMCAPredictor(skl)
        errors = [
            abs(predictor.predict(item.experiment) - item.throughput) / item.throughput
            for item in skl_bench
        ]
        assert float(np.mean(errors)) < 0.2

    def test_unknown_machine_rejected(self, skl):
        from repro.machine import toy_machine

        with pytest.raises(ISAError):
            mca_scheduling_model(toy_machine())


class TestIthemal:
    @pytest.fixture(scope="class")
    def predictor(self, skl):
        return IthemalPredictor(skl, TrainingConfig(num_blocks=60, seed=1))

    def test_training_config_validation(self):
        with pytest.raises(Exception):
            TrainingConfig(num_blocks=1)
        with pytest.raises(Exception):
            TrainingConfig(min_length=5, max_length=2)
        with pytest.raises(Exception):
            TrainingConfig(register_pool=1)

    def test_positive_predictions(self, predictor, skl):
        add = next(f.name for f in skl.isa if f.semantic_class == "int_alu")
        assert predictor.predict(Experiment({add: 3})) > 0

    def test_overestimates_dependency_free_code(self, predictor, skl, skl_bench):
        """Trained on dependent blocks, it inflates port-bound throughput."""
        predicted = np.array([predictor.predict(i.experiment) for i in skl_bench])
        measured = np.array([i.throughput for i in skl_bench])
        mape = float(np.mean(np.abs(predicted - measured) / measured))
        over_fraction = float(np.mean(predicted > measured))
        assert mape > 0.25  # far worse than the mapping-based predictors
        assert over_fraction > 0.5

    def test_unknown_instruction_rejected(self, predictor):
        from repro.core import InferenceError

        with pytest.raises(InferenceError):
            predictor.predict(Experiment({"ghost": 1}))
