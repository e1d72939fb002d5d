"""The program side of perfbench: one process that hosts the program under test.

    python3 perfbench/host.py infer-skl  --seed S --seconds T [--trace-seconds T2 --trace-out FILE]
    python3 perfbench/host.py evolve-a72 --seed S --seconds T [--trace-seconds T2 --trace-out FILE]
    python3 perfbench/host.py serve --mapping FILE [--trace-out FILE]

For infer-skl and evolve-a72 the host imports the program, builds the
workload's seeded inputs, prints ``ready`` with the CPU seconds spent so
far, times ops (wall and process CPU time) for ``--seconds``
(then, with ``--trace-seconds``, installs the span wrappers and times traced
ops for that long), checks every op's output and prints ``result`` followed
by a JSON record.  ``--seconds 0`` stops after ``ready``: a cold-start probe.

For serve it is the launcher of ``repro-pmevo serve`` with default flags on
an ephemeral port, optionally with the span wrappers installed; the trace is
written when the server exits.

``run.py`` starts these processes and turns their records into metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402


def recomputed_davg(mapping, measurements, num_ports: int) -> float:
    """D_avg of ``mapping`` by the literal Equation 1, independent of the kernel."""
    from repro.throughput.bottleneck import bottleneck_throughput_reference

    errors = [
        abs(bottleneck_throughput_reference(mapping.uop_masses(e), num_ports) - t) / t
        for e, t in zip(measurements.experiments, measurements.throughputs)
    ]
    return sum(errors) / len(errors)


def infer_workload(seed: int, scale: workloads.Scale):
    """Set up infer-skl; returns the op: one inference on a fresh machine."""
    from repro.machine import MeasurementConfig, preset_machine
    from repro.pmevo import EvolutionConfig, PMEvoConfig, infer_port_mapping

    inputs = workloads.infer_inputs(seed, scale)
    config = PMEvoConfig(
        evolution=EvolutionConfig(
            population_size=scale.infer_population,
            max_generations=scale.infer_generations,
            seed=inputs.evolution_seed,
        )
    )

    def op(index: int) -> dict:
        # Fresh each op: a Machine memoizes its measurements.
        machine = preset_machine(
            workloads.INFER_MACHINE, MeasurementConfig(seed=inputs.noise_seed)
        )
        result = infer_port_mapping(machine, names=inputs.names, config=config)
        text = result.mapping.to_json()
        training = result.measurements.restricted_to(result.partition.representatives)
        return {
            "output": hashlib.sha256(text.encode()).hexdigest(),
            "davg": result.evolution.davg,
            "generations": result.evolution.generations,
            "evaluations": result.evolution.evaluations,
            "experiments": len(training),
            "instructions": len(result.partition.representatives),
            "ports": machine.config.ports.num_ports,
            "sim_instructions": machine.simulated_instructions,
            "_check": (result.representative_mapping, training),
        }

    return op


def evolve_workload(seed: int, scale: workloads.Scale):
    """Set up evolve-a72; returns the op: one evolver run over a fixed seed list."""
    from repro.pmevo import EvolutionConfig, PortMappingEvolver

    training = workloads.evolve_training_set(seed, scale)

    def op(index: int) -> dict:
        config = EvolutionConfig(
            population_size=scale.evolve_population,
            max_generations=scale.evolve_generations,
            patience=scale.evolve_generations,
            seed=workloads.evolve_seed(seed, index),
        )
        evolver = PortMappingEvolver(
            training.ports, training.measurements, training.singles, config
        )
        result = evolver.run()
        return {
            "output": hashlib.sha256(result.mapping.to_json().encode()).hexdigest(),
            "davg": result.davg,
            "generations": result.generations,
            "evaluations": result.evaluations,
            "experiments": len(training.measurements),
            "instructions": len(evolver.names),
            "ports": training.ports.num_ports,
            "sim_instructions": 0,
            "_check": (result.mapping, training.measurements),
        }

    return op


def time_ops(op, seconds: float, first: int, tracer=None, after=None) -> list[dict]:
    """Run ops back to back until ``seconds`` have passed (at least one op).

    ``after(record)`` runs after each timed op, outside its time.
    """
    records = []
    deadline = time.perf_counter() + seconds
    index = first
    while True:
        start = time.perf_counter()
        cpu_start = time.process_time()
        try:
            if tracer is None:
                record = op(index)
            else:
                with tracer.op():
                    record = op(index)
        except Exception as exc:  # an op that raises is a failed op
            traceback.print_exc()
            records.append(
                {
                    "seconds": time.perf_counter() - start,
                    "cpu_seconds": time.process_time() - cpu_start,
                    "error": repr(exc),
                }
            )
            break
        record["seconds"] = time.perf_counter() - start
        record["cpu_seconds"] = time.process_time() - cpu_start
        if after is not None:
            after(record)
        records.append(record)
        index += 1
        if time.perf_counter() >= deadline:
            break
    return records


def observe_children(batches: list):
    """Keep every genome batch the evolver packs; returns the undo function.

    The evolver packs the initial population, then each generation's
    children, so all batches after an op's first are children.
    """
    from repro.pmevo.packed import PackedPopulation

    original = PackedPopulation.__dict__["from_genomes"]

    def observed(cls, genomes, *args, **kwargs):
        batches.append(genomes)
        return original.__func__(cls, genomes, *args, **kwargs)

    PackedPopulation.from_genomes = classmethod(observed)
    return lambda: setattr(PackedPopulation, "from_genomes", original)


def check(records: list[dict], same_output: bool) -> list[str]:
    """Mark failed ops; returns one line per problem."""
    problems = []
    first = next((r["output"] for r in records if "output" in r), None)
    for index, record in enumerate(records):
        if "error" in record:
            record["failed"] = True
            problems.append(f"op {index} raised {record['error']}")
            continue
        mapping, training = record.pop("_check")
        expected = recomputed_davg(mapping, training, record["ports"])
        reasons = []
        if abs(expected - record["davg"]) > 1e-9:
            reasons.append(f"D_avg {record['davg']!r} but Equation 1 gives {expected!r}")
        if same_output and record["output"] != first:
            reasons.append("mapping differs from op 0's")
        record["failed"] = bool(reasons)
        problems += [f"op {index}: {reason}" for reason in reasons]
    return problems


def workload_main(args) -> int:
    scale = workloads.SCALES[args.scale]
    build = infer_workload if args.workload == "infer-skl" else evolve_workload
    op = build(args.seed, scale)
    print(f"ready {time.process_time()!r}", flush=True)
    if args.seconds <= 0:
        return 0

    untraced = time_ops(op, args.seconds, 0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced, breakdown = [], {}
    if args.trace_seconds > 0:
        from repro.pmevo.population import genome_key

        tracer = spans.Tracer()
        batches: list = []
        undo = observe_children(batches)

        def count_children(record: dict) -> None:
            children = batches[1:]
            total = sum(len(batch) for batch in children)
            distinct = sum(len({genome_key(g) for g in batch}) for batch in children)
            record["distinct_child_share"] = distinct / total if total else 0.0
            batches.clear()

        tracer.install()
        try:
            traced = time_ops(op, args.trace_seconds, len(untraced), tracer, count_children)
        finally:
            tracer.uninstall()
            undo()
        events = tracer.events()
        if args.trace_out:
            spans.write_trace(args.trace_out, events)
        breakdown = spans.op_breakdown(events)

    problems = check(untraced + traced, same_output=args.workload == "infer-skl")
    result = {
        "untraced": untraced,
        "traced": traced,
        "breakdown": {str(op_id): layers for op_id, layers in breakdown.items()},
        "peak_rss_mb": peak_rss_mb,
        "problems": problems,
    }
    print("result " + json.dumps(result), flush=True)
    return 0


def serve_main(args) -> int:
    from repro import cli

    tracer = None
    if args.trace_out:
        tracer = spans.Tracer()
        tracer.install()
    try:
        return cli.main(["serve", "--mapping", str(args.mapping), "--bind", "127.0.0.1:0"])
    finally:
        if tracer is not None:
            tracer.uninstall()
            spans.write_trace(args.trace_out, tracer.events())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="workload", required=True)
    for name in ("infer-skl", "evolve-a72"):
        workload = sub.add_parser(name)
        workload.add_argument("--seed", type=int, required=True)
        workload.add_argument("--seconds", type=float, required=True)
        workload.add_argument("--trace-seconds", type=float, default=0.0)
        workload.add_argument("--trace-out", type=Path)
        workload.add_argument("--scale", choices=sorted(workloads.SCALES), default="full")
    serve = sub.add_parser("serve")
    serve.add_argument("--mapping", type=Path, required=True)
    serve.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)
    return serve_main(args) if args.workload == "serve" else workload_main(args)


if __name__ == "__main__":
    sys.exit(main())
