#!/usr/bin/env python3
"""A tour of the analytical throughput model (Sections 3 and 4.5).

Recreates the paper's running example — Figures 2, 3 and 4 — by hand:

* the two-level mapping of Figure 2 and the optimal port allocation of
  Example 1 (throughput 1.5 cycles),
* the three-level mapping of Figure 4 with µop decomposition,
* the equivalence of the LP model and the bottleneck simulation algorithm,
* a micro-benchmark of the two back ends, previewing Figure 8.

Run:  python examples/throughput_model_tour.py
"""

import time

from repro.core import Experiment, PortSpace, ThreeLevelMapping, TwoLevelMapping
from repro.throughput import (
    bottleneck_throughput,
    bottleneck_throughput_dense,
    bottleneck_throughput_reference,
    lp_throughput,
    lp_throughput_masses,
)


def main() -> None:
    ports = PortSpace(["P1", "P2", "P3"])

    # Figure 2: mul -> {P1}; add, sub -> {P1,P2}; store -> {P3}.
    two_level = TwoLevelMapping(ports, {
        "mul": ports.mask("P1"),
        "add": ports.mask("P1", "P2"),
        "sub": ports.mask("P1", "P2"),
        "store": ports.mask("P3"),
    })

    # Example 1: e = {add: 2, mul: 1, store: 1}.
    experiment = Experiment({"add": 2, "mul": 1, "store": 1})
    masses = two_level.uop_masses(experiment)
    print("Example 1 (two-level, Figure 2):")
    print(f"  experiment: {dict(experiment.counts)}")
    print(f"  LP throughput:         {lp_throughput(two_level, experiment):.3f}")
    print(f"  bottleneck throughput: {bottleneck_throughput(masses, 3):.3f}")
    print("  (the paper's Figure 3 shows this optimum: 1.5 cycles, with the")
    print("   two add instructions split unevenly over P1 and P2)\n")

    # Figure 4: three-level mapping with µop decomposition.
    three_level = ThreeLevelMapping(ports, {
        "mul": {ports.mask("P1"): 2},
        "add": {ports.mask("P1", "P2"): 1},
        "sub": {ports.mask("P1", "P2"): 1},
        "store": {ports.mask("P1", "P2"): 1, ports.mask("P3"): 1},
    })
    print("Figure 4 (three-level):")
    print(three_level.describe())
    print(f"  µop volume V(m) = {three_level.uop_volume()}")
    print(f"  throughput of e: {lp_throughput(three_level, experiment):.3f} "
          "(store now shares a µop with add/sub)\n")

    # Equation 1: enumerate bottleneck port sets by hand.
    print("Equation 1, enumerated for the two-level example:")
    masses = two_level.uop_masses(experiment)
    for q, label in ((0b001, "{P1}"), (0b011, "{P1,P2}"), (0b111, "{P1,P2,P3}")):
        included = sum(m for mask, m in masses.items() if mask & ~q == 0)
        size = bin(q).count("1")
        print(f"  Q = {label:11s}: mass {included:.0f} / {size} ports = {included / size:.3f}")
    print("  max over all Q -> 1.5, attained at the bottleneck set {P1,P2}\n")

    # Preview of Figure 8: the bottleneck algorithm vs the LP solver.
    big_ports = 10
    rng_masses = {(1 << (i % big_ports)) | (1 << ((i * 3 + 1) % big_ports)): 1.0 + i % 4
                  for i in range(6)}
    for label, func in (
        ("bottleneck (dense)  ", lambda: bottleneck_throughput_dense(rng_masses, big_ports)),
        ("bottleneck (closure)", lambda: bottleneck_throughput(rng_masses, big_ports)),
        ("reference 2^P scan  ", lambda: bottleneck_throughput_reference(rng_masses, big_ports)),
        ("LP solver (HiGHS)   ", lambda: lp_throughput_masses(rng_masses, big_ports)),
    ):
        start = time.perf_counter()
        repeats = 50
        for _ in range(repeats):
            value = func()
        per_call = (time.perf_counter() - start) / repeats
        print(f"  {label}: {value:.3f} cycles, {per_call * 1e6:8.1f} µs/call")
    print("\n(cf. Figure 8: the bottleneck algorithm wins by orders of magnitude")
    print(" at realistic port counts; benchmarks/test_fig8* sweep the full range)")


if __name__ == "__main__":
    main()
