#!/usr/bin/env python3
"""Portability demo: infer port mappings for ZEN- and A72-like machines.

The paper's headline claim is *portability*: PMEvo needs only end-to-end
timing, so it works on processors without per-port performance counters —
AMD Zen+ and ARM Cortex-A72 in the paper — where counter-based approaches
(uops.info, llvm-exegesis) cannot run at all.

This example infers mappings for both non-Intel machines and compares the
result against llvm-mca's hand-tuned scheduling models, reproducing the
qualitative outcome of the paper's Table 4: the inferred mappings beat the
hand-tuned models by a wide margin.

Run:  python examples/cross_architecture.py [--forms N]
"""

import argparse

from repro.analysis import evaluate_predictor, format_table
from repro.baselines import LLVMMCAPredictor
from repro.machine import MeasurementConfig, a72_machine, zen_machine
from repro.pmevo import (
    EvolutionConfig,
    PMEvoConfig,
    infer_port_mapping,
    random_experiments,
)
from repro.throughput import MappingPredictor


def stratified_subset(machine, limit: int) -> list[str]:
    by_class: dict[str, str] = {}
    for form in machine.isa:
        by_class.setdefault(form.semantic_class, form.name)
    return sorted(by_class.values())[:limit]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--forms", type=int, default=18)
    parser.add_argument("--population", type=int, default=160)
    args = parser.parse_args()

    rows = []
    for factory in (zen_machine, a72_machine):
        machine = factory(measurement=MeasurementConfig(seed=5))
        names = stratified_subset(machine, args.forms)
        print(f"=== {machine.describe()} ===")
        print(f"inferring over {len(names)} forms "
              "(no per-port counters needed — timing only)")

        config = PMEvoConfig(
            evolution=EvolutionConfig(
                population_size=args.population, max_generations=100, seed=0
            )
        )
        result = infer_port_mapping(machine, names=names, config=config)
        print(f"  congruent: {100 * result.congruent_fraction:.0f}%, "
              f"µops: {result.num_uops}, D_avg: {result.evolution.davg:.3f}")

        held_out = random_experiments(names, size=5, count=120, seed=11)
        bench = machine.measure_many(held_out)
        for predictor in (
            MappingPredictor(result.mapping, name="PMEvo"),
            LLVMMCAPredictor(machine),
        ):
            report = evaluate_predictor(predictor, bench, machine.name)
            rows.append([
                f"{report.predictor} ({machine.name})",
                f"{report.mape:.1f}%",
                f"{report.pearson:.2f}",
                f"{report.spearman:.2f}",
            ])
        print()

    print(format_table(
        ["predictor", "MAPE", "Pearson CC", "Spearman CC"],
        rows,
        title="held-out accuracy (cf. paper Table 4)",
    ))


if __name__ == "__main__":
    main()
