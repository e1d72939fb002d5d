"""Ablation: hill-climbing local search on/off (Section 4.4).

The paper runs a greedy hill-climbing pass over µop multiplicities after
the evolution terminates.  This bench quantifies how much accuracy and
compactness that final pass contributes.
"""

from repro.analysis import format_table
from repro.pmevo import EvolutionConfig, PortMappingEvolver

from bench_lib import scaled, write_result
from test_ablation_mutation import _toy_training_data


def test_ablation_local_search():
    machine, measured, singles = _toy_training_data()
    ports = machine.config.ports
    rows = []
    stats = {}
    for rounds in (0, 2, 4):
        davgs = []
        volumes = []
        for seed in (0, 1, 2):
            config = EvolutionConfig(
                population_size=scaled(80, minimum=30),
                max_generations=scaled(40, minimum=15),
                local_search_rounds=rounds,
                seed=seed,
            )
            result = PortMappingEvolver(ports, measured, singles, config).run()
            davgs.append(result.davg)
            volumes.append(result.volume)
        stats[rounds] = (sum(davgs) / 3, sum(volumes) / 3)
        rows.append([rounds, f"{stats[rounds][0]:.4f}", f"{stats[rounds][1]:.1f}"])

    text = format_table(
        ["local search rounds", "mean D_avg", "mean µop volume"],
        rows,
        title="Ablation: local search rounds (toy machine, 3 seeds)",
    )
    write_result("ablation_local_search", text)

    # The hill climb must never hurt either objective.
    assert stats[2][0] <= stats[0][0] + 1e-9
    assert stats[2][1] <= stats[0][1] + 1e-9
