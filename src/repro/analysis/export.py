"""Exporting inferred port mappings for downstream tools.

The paper's motivation for *interpretable* mappings (vs. black-box learned
models) is that performance tools can consume them directly: "Both,
llvm-mca and OSACA, can benefit from port mappings by PMEvo for
microarchitectures without available port mapping" (Section 6.2).

This module renders a :class:`~repro.core.mapping.ThreeLevelMapping` in
three downstream-friendly shapes:

* :func:`to_llvm_sched_model` — an LLVM ``SchedModel``-flavoured TableGen
  snippet: one ``ProcResource`` per port, one ``ProcResGroup`` per distinct
  µop, one ``WriteRes`` per instruction form;
* :func:`to_osaca_table` — an OSACA-style per-port occupancy CSV (average
  port pressure per instruction, assuming an optimal scheduler);
* :func:`reciprocal_throughputs` — per-form reciprocal throughput, the
  single number instruction tables report.
"""

from __future__ import annotations

import io

from repro.core.experiment import Experiment
from repro.core.mapping import ThreeLevelMapping
from repro.core.ports import indices_from_mask, mask_size
from repro.throughput.predictor import MappingPredictor, predict_many

__all__ = ["to_llvm_sched_model", "to_osaca_table", "reciprocal_throughputs"]


def _sanitize(name: str) -> str:
    """An identifier safe for TableGen-ish output."""
    return "".join(ch if ch.isalnum() else "_" for ch in name)


def reciprocal_throughputs(mapping: ThreeLevelMapping) -> dict[str, float]:
    """Reciprocal throughput (cycles per instruction) per covered form."""
    singletons = [Experiment({name: 1}) for name in mapping.instructions]
    predicted = predict_many(MappingPredictor(mapping), singletons)
    return dict(zip(mapping.instructions, predicted.tolist()))


def to_llvm_sched_model(mapping: ThreeLevelMapping, model_name: str = "PMEvoModel") -> str:
    """Render the mapping as an LLVM-scheduling-model-like snippet.

    The output is *flavoured* TableGen, intended as a starting point for a
    human integrating the mapping into an actual LLVM target, not as a
    drop-in ``.td`` file (instruction names are this library's form names,
    not LLVM opcodes).
    """
    ports = mapping.ports
    out = io.StringIO()
    out.write(f"// Port mapping inferred by PMEvo — {len(mapping)} instruction forms,\n")
    out.write(f"// {ports.num_ports} ports, {len(mapping.distinct_uops())} distinct µops.\n")
    out.write(f'def {model_name} : SchedMachineModel;\n\n')
    for name in ports.names:
        out.write(f'def {model_name}Port{_sanitize(name)} : ProcResource<1>;\n')
    out.write("\n")

    group_names: dict[int, str] = {}
    for mask in mapping.distinct_uops():
        members = ", ".join(
            f"{model_name}Port{_sanitize(ports.names[i])}"
            for i in indices_from_mask(mask)
        )
        if mask_size(mask) == 1:
            group_names[mask] = (
                f"{model_name}Port{_sanitize(ports.mask_names(mask)[0])}"
            )
        else:
            group = f"{model_name}Group{mask:X}"
            group_names[mask] = group
            out.write(f"def {group} : ProcResGroup<[{members}]>;\n")
    out.write("\n")

    for name in mapping.instructions:
        uops = mapping.uops_of(name)
        resources = ", ".join(group_names[mask] for mask in uops)
        cycles = ", ".join(str(count) for count in uops.values())
        num_uops = sum(uops.values())
        out.write(
            f"def : WriteRes<Write{_sanitize(name)}, [{resources}]> {{\n"
            f"  let ReleaseAtCycles = [{cycles}];\n"
            f"  let NumMicroOps = {num_uops};\n"
            f"}}\n"
        )
    return out.getvalue()


def to_osaca_table(mapping: ThreeLevelMapping) -> str:
    """Render per-port pressure per instruction as a CSV (OSACA style).

    Pressure is the optimal-scheduler port occupancy for the singleton
    experiment of each form: µop mass spread evenly over the least-loaded
    allowed ports (computed exactly via the LP/bottleneck equivalence per
    µop is overkill here — we report the uniform spread, which is what
    OSACA's port-pressure tables show).
    """
    ports = mapping.ports
    out = io.StringIO()
    out.write("instruction," + ",".join(ports.names) + ",cycles\n")
    throughputs = reciprocal_throughputs(mapping)
    for name in mapping.instructions:
        pressure = [0.0] * ports.num_ports
        for mask, count in mapping.uops_of(name).items():
            share = count / mask_size(mask)
            for index in indices_from_mask(mask):
                pressure[index] += share
        row = ",".join(f"{value:.3f}" for value in pressure)
        out.write(f"{name},{row},{throughputs[name]:.3f}\n")
    return out.getvalue()
