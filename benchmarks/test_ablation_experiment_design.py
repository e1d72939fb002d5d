"""Ablation: experiment design space (Section 4.1).

"In theory, longer experiments that combine instances of more than two
different instruction forms can unveil resource conflicts ... However, when
exploring the experiment design space experimentally for existing
processors, we did not observe benefits in port mapping quality from more
complex experiments."

This bench trains the evolutionary algorithm on (a) the paper's
singleton+pair plan and (b) the same plan augmented with random size-3
multisets over three distinct forms, then compares held-out accuracy.
"""

import numpy as np

from repro.analysis import format_table
from repro.core import ExperimentSet
from repro.machine import MeasurementConfig, toy_machine
from repro.pmevo import (
    EvolutionConfig,
    PortMappingEvolver,
    pair_experiments,
    random_experiments,
    singleton_experiments,
)
from repro.throughput import MappingPredictor

from bench_lib import scaled, write_result


def test_ablation_longer_experiments():
    machine = toy_machine(num_ports=3, measurement=MeasurementConfig(noisy=False))
    universe = machine.isa.names
    ports = machine.config.ports

    base = ExperimentSet()
    singles = {}
    for experiment in singleton_experiments(universe):
        throughput = machine.measure(experiment)
        base.add(experiment, throughput)
        singles[experiment.support[0]] = throughput
    for experiment in pair_experiments(universe, singles):
        base.add(experiment, machine.measure(experiment))

    extended = ExperimentSet(list(base))
    seen = set(base.experiments)
    for experiment in random_experiments(universe, size=3, count=scaled(60, minimum=20), seed=5):
        if len(experiment) >= 3 and experiment not in seen:
            seen.add(experiment)
            extended.add(experiment, machine.measure(experiment))

    held_out = random_experiments(universe, size=4, count=scaled(80, minimum=30), seed=6)
    held_out_measured = np.array([machine.measure(e) for e in held_out])

    rows = []
    mapes = {}
    for label, training in (("pairs only", base), ("pairs + triples", extended)):
        config = EvolutionConfig(
            population_size=scaled(120, minimum=40),
            max_generations=scaled(60, minimum=20),
            seed=1,
        )
        result = PortMappingEvolver(ports, training, singles, config).run()
        predictor = MappingPredictor(result.mapping)
        predicted = np.array([predictor.predict(e) for e in held_out])
        mape = float(np.mean(np.abs(predicted - held_out_measured) / held_out_measured))
        mapes[label] = mape
        rows.append([label, len(training), f"{100 * mape:.2f}%"])

    text = format_table(
        ["experiment plan", "#experiments", "held-out MAPE"],
        rows,
        title="Ablation: longer experiments in the training plan (toy machine)",
    )
    write_result("ablation_experiment_design", text)

    # Paper finding: no substantial benefit from more complex experiments.
    assert mapes["pairs + triples"] >= mapes["pairs only"] - 0.03
