"""Figure 8a: bottleneck simulation algorithm vs LP solver — port scaling.

Times both throughput back ends on randomly generated three-level mappings
over an artificial 100-instruction ISA, for experiments of length 4 and
port counts 4..20, mirroring Section 5.4's setup (8 random mappings x
sampled experiments; reported value is seconds per experiment).

Paper shape: the bottleneck algorithm wins by ~2 orders of magnitude at
realistic port counts (<=10); its Θ(2^|P|) cost catches up with the LP
solver somewhere in the teens (the paper crosses at ~18 ports with Gurobi;
our LP solver is scipy/HiGHS, so the crossover point differs — see
EXPERIMENTS.md).
"""

import time

import numpy as np

from repro.analysis import format_table
from repro.core import Experiment
from repro.throughput import lp_throughput_masses
from repro.throughput.bottleneck import bottleneck_throughput_dense

from bench_lib import scaled, write_result

PORT_COUNTS = (4, 6, 8, 10, 12, 14, 16, 18, 20)


def random_workload(num_ports: int, length: int, rng, num_mappings=4, num_experiments=16):
    """(masses, num_ports) pairs for random mappings x random experiments."""
    num_instructions = 100
    workload = []
    full = (1 << num_ports) - 1
    for _ in range(num_mappings):
        decompositions = []
        for _ in range(num_instructions):
            uops = {}
            for _ in range(int(rng.integers(1, 3))):
                mask = int(rng.integers(1, full + 1))
                uops[mask] = uops.get(mask, 0) + int(rng.integers(1, 3))
            decompositions.append(uops)
        for _ in range(num_experiments):
            picks = rng.integers(0, num_instructions, size=length)
            experiment = Experiment.from_sequence(str(p) for p in picks)
            masses: dict[int, float] = {}
            for name, count in experiment:
                for mask, mult in decompositions[int(name)].items():
                    masses[mask] = masses.get(mask, 0.0) + float(count * mult)
            workload.append(masses)
    return workload


def _time_per_experiment(func, workload, num_ports, repeats) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        for masses in workload:
            func(masses, num_ports)
    return (time.perf_counter() - start) / (repeats * len(workload))


def test_fig8a_bottleneck_vs_lp_port_scaling():
    rng = np.random.default_rng(12)
    rows = []
    series = {"bn": {}, "lp": {}}
    for num_ports in PORT_COUNTS:
        workload = random_workload(num_ports, length=4, rng=rng,
                                   num_mappings=scaled(4, minimum=2),
                                   num_experiments=scaled(16, minimum=4))
        bn_repeats = 5 if num_ports <= 14 else 1
        bn_time = _time_per_experiment(
            bottleneck_throughput_dense, workload, num_ports, bn_repeats
        )
        lp_time = _time_per_experiment(lp_throughput_masses, workload, num_ports, 1)
        series["bn"][num_ports] = bn_time
        series["lp"][num_ports] = lp_time
        rows.append(
            [num_ports, f"{bn_time:.2e}", f"{lp_time:.2e}", f"{lp_time / bn_time:.1f}x"]
        )

    text = format_table(
        ["#ports", "bn algorithm (s/exp)", "LP solver (s/exp)", "LP/bn ratio"],
        rows,
        title="Figure 8a: time per experiment vs number of ports (length-4 experiments)",
    )
    write_result("fig8a_ports_scaling", text)

    # Paper shapes: a large bottleneck advantage at realistic port counts...
    for num_ports in (4, 6, 8, 10):
        assert series["lp"][num_ports] / series["bn"][num_ports] > 10.0, num_ports
    # ...and the exponential 2^|P| growth eroding it at wide machines.
    ratio_at_10 = series["lp"][10] / series["bn"][10]
    ratio_at_20 = series["lp"][20] / series["bn"][20]
    assert ratio_at_20 < ratio_at_10 / 4
