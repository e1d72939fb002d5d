"""Ablation: population size vs mapping quality (Section 4.4).

"By selecting a value for p, the user can find a trade-off between
inference time and quality of the inferred port mapping."  This bench
sweeps the population size on a fixed training set and reports accuracy
and wall time.
"""

import time

from repro.analysis import format_table
from repro.pmevo import EvolutionConfig, PortMappingEvolver

from bench_lib import scaled, write_result
from test_ablation_mutation import _toy_training_data


def test_ablation_population_size():
    machine, measured, singles = _toy_training_data()
    ports = machine.config.ports
    rows = []
    quality = {}
    for population in (20, 60, scaled(150, minimum=100)):
        davgs = []
        start = time.perf_counter()
        for seed in (0, 1, 2):
            config = EvolutionConfig(
                population_size=population,
                max_generations=scaled(60, minimum=20),
                seed=seed,
            )
            result = PortMappingEvolver(ports, measured, singles, config).run()
            davgs.append(result.davg)
        elapsed = time.perf_counter() - start
        mean_davg = sum(davgs) / len(davgs)
        quality[population] = mean_davg
        rows.append([population, f"{mean_davg:.4f}", f"{elapsed:.2f}s"])

    text = format_table(
        ["population", "mean D_avg", "wall time (3 seeds)"],
        rows,
        title="Ablation: population size vs quality (toy machine)",
    )
    write_result("ablation_population", text)

    populations = sorted(quality)
    # Larger populations must not be worse than the smallest one.
    assert quality[populations[-1]] <= quality[populations[0]] + 1e-9
