"""Ablation: mutation operator on/off (Section 4.4).

The paper reports that mutation strategies showed "little to no benefit
over a design without a mutation operator while contributing substantial
numbers of fitness computations", which is why PMEvo's final design is
recombination-only.

Reproduction note: that finding is *scale-dependent*.  At the paper's
population size (100 000) the initial gene pool covers the µop space many
times over, so recombination alone suffices.  At scaled-down populations,
mutation re-introduces gene variants that selection has discarded and can
improve accuracy.  This bench sweeps (population x mutation rate) and
demonstrates both regimes: the mutation advantage shrinks as the
population grows.
"""

from repro.analysis import format_table
from repro.core import ExperimentSet, PortSpace
from repro.machine import MeasurementConfig, toy_machine
from repro.pmevo import (
    EvolutionConfig,
    PortMappingEvolver,
    pair_experiments,
    singleton_experiments,
)

from bench_lib import scaled, write_result

SEEDS = (0, 1, 2)


def _toy_training_data():
    machine = toy_machine(num_ports=3, measurement=MeasurementConfig(noisy=False))
    universe = machine.isa.names
    measured = ExperimentSet()
    singles = {}
    for experiment in singleton_experiments(universe):
        throughput = machine.measure(experiment)
        measured.add(experiment, throughput)
        singles[experiment.support[0]] = throughput
    for experiment in pair_experiments(universe, singles):
        measured.add(experiment, machine.measure(experiment))
    return machine, measured, singles


def _mean_davg(ports: PortSpace, measured, singles, population, rate) -> float:
    davgs = []
    for seed in SEEDS:
        config = EvolutionConfig(
            population_size=population,
            max_generations=scaled(60, minimum=15),
            mutation_rate=rate,
            seed=seed,
        )
        result = PortMappingEvolver(ports, measured, singles, config).run()
        davgs.append(result.davg)
    return sum(davgs) / len(davgs)


def test_ablation_mutation_operator():
    machine, measured, singles = _toy_training_data()
    ports: PortSpace = machine.config.ports
    populations = (scaled(60, minimum=30), scaled(400, minimum=150))
    rates = (0.0, 0.05, 0.2)

    rows = []
    results: dict[tuple[int, float], float] = {}
    for population in populations:
        for rate in rates:
            davg = _mean_davg(ports, measured, singles, population, rate)
            results[(population, rate)] = davg
            rows.append([population, f"{rate:.2f}", f"{davg:.4f}"])

    text = format_table(
        ["population", "mutation rate", "mean D_avg"],
        rows,
        title="Ablation: mutation operator across population sizes "
        f"({len(SEEDS)} seeds, toy machine)",
    )
    write_result("ablation_mutation", text)

    small, large = populations
    # Every configuration must reach a usable mapping.
    assert all(davg < 0.15 for davg in results.values())
    # At the large population, recombination-only is already near-perfect —
    # the paper's "little to no benefit" regime: mutation buys at most a
    # marginal improvement.
    assert results[(large, 0.0)] < 0.02
    assert results[(large, 0.0)] - min(
        results[(large, rate)] for rate in rates
    ) < 0.02
