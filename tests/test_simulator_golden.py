"""Golden cycle counts for the processor simulator.

``tests/golden/simulator.json`` records, for a few hundred seeded
experiments, what :meth:`Processor.run` returns at 6 and 16 iterations and
what noise-free :meth:`Machine.measure` reports (as ``float.hex``).  Every
case is checked through the shared ``(6, 16)`` call that the measurement
makes and through a single-length call per run.  The
cases cover the SKL, ZEN and A72 presets with the default register file,
each preset with a two-register file (read-after-write chains stall issue,
the bodies the Ithemal baseline trains on), and the IACA-style replica of
SKL, which binds ports with the ``lowest_index`` policy.

Noisy measurements are left out on purpose: they would pin numpy's RNG
stream, not the simulator.

Regenerate the file (only when a behaviour change is intended) with::

    PYTHONPATH=src python tests/test_simulator_golden.py --write
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

from repro.baselines.iaca import _vendor_model
from repro.codegen import AllocationConfig, RegisterAllocator, build_loop_body
from repro.core import Experiment, ISAError
from repro.machine import Machine, MeasurementConfig, preset_machine

GOLDEN = Path(__file__).parent / "golden" / "simulator.json"

#: Iteration counts of the recorded runs (the measurement's short and long run).
ITERATIONS = (6, 16)

#: (case family, preset, register file, replica the IACA baseline simulates)
FAMILIES = (
    ("SKL", "SKL", None, False),
    ("ZEN", "ZEN", None, False),
    ("A72", "A72", None, False),
    ("SKL-gprs2", "SKL", (2, 2), False),
    ("ZEN-gprs2", "ZEN", (2, 2), False),
    ("A72-gprs2", "A72", (2, 2), False),
    ("SKL-iaca", "SKL", None, True),
)


def _experiments(names: list[str], seed: int, subsample: int, multisets: int) -> list[Experiment]:
    """All singletons and pairs of a seeded subsample, then random multisets
    of 3–6 distinct forms with counts 1–4."""
    rng = random.Random(seed)
    chosen = rng.sample(names, subsample)
    experiments = [Experiment({name: 1}) for name in chosen]
    experiments += [Experiment({a: 1, b: 1}) for a, b in itertools.combinations(chosen, 2)]
    for _ in range(multisets):
        forms = rng.sample(names, rng.randint(3, 6))
        experiments.append(Experiment({name: rng.randint(1, 4) for name in forms}))
    return experiments


def _machine(preset: str, registers: tuple[int, int] | None, replica: bool) -> Machine:
    quiet = MeasurementConfig(noisy=False)
    machine = preset_machine(preset, measurement=quiet)
    allocation = AllocationConfig(num_gprs=registers[0], num_vecs=registers[1]) if registers else None
    config = _vendor_model(machine.config) if replica else machine.config
    return Machine(config, quiet, allocation=allocation)


def _allocatable(machine: Machine) -> list[str]:
    """Forms whose operands fit the machine's register file (a two-register
    file cannot instantiate forms with three register operands of a class)."""
    names = []
    for form in machine.isa:
        try:
            RegisterAllocator(machine.allocation).allocate(form)
        except ISAError:
            continue
        names.append(form.name)
    return names


def _shared_runs(machine: Machine, body) -> list:
    return machine.processor.run(body, ITERATIONS)


def _single_runs(machine: Machine, body) -> list:
    return [machine.processor.run(body, (iterations,))[0] for iterations in ITERATIONS]


def generate_cases(simulate=_shared_runs) -> list[dict]:
    """Every golden case, recomputed from the simulator as it is now, with
    the runs of each body from ``simulate``."""
    cases = []
    for index, (family, preset, registers, replica) in enumerate(FAMILIES):
        machine = _machine(preset, registers, replica)
        names = _allocatable(machine)
        if registers or replica:
            experiments = _experiments(names, seed=index, subsample=4, multisets=14)
        else:
            experiments = _experiments(names, seed=index, subsample=7, multisets=40)
        for experiment in experiments:
            body, _ = build_loop_body(machine.isa, experiment, allocation=machine.allocation)
            runs = {
                str(iterations): [result.cycles, result.instructions, result.uops]
                for iterations, result in zip(ITERATIONS, simulate(machine, body))
            }
            cases.append(
                {
                    "family": family,
                    "experiment": dict(experiment),
                    "runs": runs,
                    "measure": machine.measure(experiment).hex(),
                }
            )
    return cases


def _assert_matches_golden(actual: list[dict]) -> None:
    expected = json.loads(GOLDEN.read_text())
    assert len(actual) == len(expected)
    mismatches = [
        (want["family"], want["experiment"])
        for want, got in zip(expected, actual)
        if want != got
    ]
    assert not mismatches, f"{len(mismatches)} golden cases changed, first: {mismatches[:3]}"


def test_simulator_matches_golden_cycle_counts():
    _assert_matches_golden(generate_cases(_shared_runs))


def test_single_length_runs_match_golden_cycle_counts():
    _assert_matches_golden(generate_cases(_single_runs))


def test_golden_file_covers_every_family():
    cases = json.loads(GOLDEN.read_text())
    per_family = {family: 0 for family, *_ in FAMILIES}
    for case in cases:
        per_family[case["family"]] += 1
    assert all(per_family[preset] >= 60 for preset in ("SKL", "ZEN", "A72"))
    assert all(count > 0 for count in per_family.values())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_simulator_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(generate_cases(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
