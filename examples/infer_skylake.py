#!/usr/bin/env python3
"""Infer a port mapping for the SKL-like machine (the paper's Section 5.3.1).

Runs the PMEvo pipeline on a stratified subset of the x86-like ISA against
the SKL-like simulated processor, then:

* prints Table 2-style pipeline statistics,
* compares the inferred mapping with the uops.info-style oracle on random
  held-out experiments,
* shows how the divider and the quirky BTx family are represented: PMEvo
  learns *observable* port pressure, so a non-pipelined divider appears as
  several µops on the DIV pipe — "while differing from the real port
  mapping, this fits better to the observable throughputs" (Section 5.3.1),
* writes the mapping to skl_mapping.json (reusable via the repro-pmevo CLI).

Run:  python examples/infer_skylake.py [--forms N] [--population P]
"""

import argparse
from pathlib import Path

from repro.analysis import evaluate_predictor, format_table
from repro.baselines import UopsInfoPredictor
from repro.core import Experiment
from repro.machine import MeasurementConfig, skl_machine
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
    parser.add_argument("--forms", type=int, default=22)
    parser.add_argument("--population", type=int, default=200)
    parser.add_argument("--generations", type=int, default=120)
    parser.add_argument("--output", type=Path, default=Path("skl_mapping.json"))
    args = parser.parse_args()

    machine = skl_machine(measurement=MeasurementConfig(seed=3))
    names = stratified_subset(machine, args.forms)
    print(f"machine: {machine.describe()}")
    print(f"inferring over {len(names)} instruction forms\n")

    config = PMEvoConfig(
        evolution=EvolutionConfig(
            population_size=args.population,
            max_generations=args.generations,
            seed=0,
        )
    )
    result = infer_port_mapping(machine, names=names, config=config)

    print(format_table(
        ["statistic", "value"],
        list(result.table2_row().items()),
        title="pipeline statistics (cf. paper Table 2)",
    ))
    print()

    # Held-out evaluation against the ground-truth-based oracle.
    held_out = random_experiments(names, size=5, count=150, seed=42)
    bench = machine.measure_many(held_out)
    rows = []
    for predictor in (
        MappingPredictor(result.mapping, name="PMEvo"),
        UopsInfoPredictor(machine),
    ):
        report = evaluate_predictor(predictor, bench, "SKL")
        rows.append([report.predictor, f"{report.mape:.1f}%",
                     f"{report.pearson:.2f}", f"{report.spearman:.2f}"])
    print(format_table(
        ["predictor", "MAPE", "Pearson CC", "Spearman CC"],
        rows,
        title="held-out accuracy, 150 random size-5 experiments",
    ))
    print()

    # How special instructions are represented.
    div = next((n for n in names if "div" in n and "v" != n[0]), None)
    if div is not None:
        print(f"divider representation ({div}):")
        print(f"  inferred: {_render(result.mapping, div)}")
        print(f"  truth:    {_render(machine.ground_truth_mapping(), div)}")
        measured = machine.measure(Experiment({div: 1}))
        predicted = MappingPredictor(result.mapping).predict(Experiment({div: 1}))
        print(f"  measured {measured:.2f} vs predicted {predicted:.2f} cycles\n")

    args.output.write_text(result.mapping.to_json())
    print(f"mapping written to {args.output}")
    print(f"try: repro-pmevo show {args.output}")


def _render(mapping, name: str) -> str:
    ports = mapping.ports
    return " + ".join(
        f"{count}x{ports.format_mask(mask)}" for mask, count in mapping.uops_of(name).items()
    )


if __name__ == "__main__":
    main()
