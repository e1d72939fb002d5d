"""Figure 8b: bottleneck simulation algorithm vs LP solver — length scaling.

Times both back ends at a fixed 10 ports for experiment lengths 1..10
(Section 5.4).  Paper shape: the bottleneck algorithm outperforms the LP
solver by roughly two orders of magnitude across all lengths, with both
methods growing mildly (sub-exponentially) in experiment length.
"""

import numpy as np

from repro.analysis import format_table
from repro.throughput import lp_throughput_masses
from repro.throughput.bottleneck import bottleneck_throughput_dense

from bench_lib import scaled, write_result
from test_fig8a_ports_scaling import _time_per_experiment, random_workload

NUM_PORTS = 10
LENGTHS = tuple(range(1, 11))


def test_fig8b_bottleneck_vs_lp_length_scaling():
    rng = np.random.default_rng(21)
    rows = []
    ratios = []
    bn_times = []
    lp_times = []
    for length in LENGTHS:
        workload = random_workload(
            NUM_PORTS,
            length=length,
            rng=rng,
            num_mappings=scaled(4, minimum=2),
            num_experiments=scaled(16, minimum=4),
        )
        bn_time = _time_per_experiment(
            bottleneck_throughput_dense, workload, NUM_PORTS, 5
        )
        lp_time = _time_per_experiment(lp_throughput_masses, workload, NUM_PORTS, 1)
        bn_times.append(bn_time)
        lp_times.append(lp_time)
        ratios.append(lp_time / bn_time)
        rows.append(
            [length, f"{bn_time:.2e}", f"{lp_time:.2e}", f"{lp_time / bn_time:.1f}x"]
        )

    text = format_table(
        ["length", "bn algorithm (s/exp)", "LP solver (s/exp)", "LP/bn ratio"],
        rows,
        title="Figure 8b: time per experiment vs experiment length (10 ports)",
    )
    write_result("fig8b_length_scaling", text)

    # The bottleneck advantage holds across every length.
    assert all(r > 10.0 for r in ratios)
    # Both methods grow mildly with length: no explosion from 1 to 10.
    assert bn_times[-1] < bn_times[0] * 20
    assert lp_times[-1] < lp_times[0] * 20
