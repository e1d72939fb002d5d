"""Two end-to-end results pinned bit for bit.

Every change to the measurement stage, the evolver or the fitness kernel
must leave these unchanged:

* ``repro-pmevo infer SKL --forms 20 --population 100 --generations 40
  --seed 0`` writes a mapping file with a fixed sha256;
* one evolver run on an A72 problem labelled by the ground-truth mapping
  (the shape of perfbench's evolve-a72 set: the 13 most populous µop
  signatures, singleton and pair experiments) returns a fixed mapping and
  a fixed ``D_avg``.

Both are deterministic replays of numpy ``Generator`` streams, so they hold
only as long as numpy's generators draw what they draw today.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.cli import main
from repro.core import Experiment, ExperimentSet
from repro.machine import a72_machine
from repro.pmevo import EvolutionConfig, PortMappingEvolver, pair_experiments
from repro.throughput import MappingPredictor

INFER_SHA256 = "5209811ae4f599fd54b0f0927ddb32a6535ac033e046f5407096f61117906786"
EVOLVE_SHA256 = "50c6a05068f85ee7a9c4ae88e69c244cb9ec4cb34d86258ba2a202253461a370"
EVOLVE_DAVG = "0.07243050152992514"

STREAMS = (
    "the pins hold for numpy's current Generator streams; if numpy changed "
    "how its generators draw, re-record them, otherwise the change moved a result"
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_infer_skl_writes_the_pinned_mapping(tmp_path, capsys):
    output = tmp_path / "skl.json"
    argv = [
        "infer", "SKL", "-o", str(output), "--forms", "20",
        "--population", "100", "--generations", "40", "--seed", "0",
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert _sha256(output.read_text()) == INFER_SHA256, STREAMS


def _a72_problem():
    """A72's 13 most populous ground-truth µop signatures, one form each,
    with their singleton and pair experiments labelled by the ground truth
    times a 0.4% seeded jitter."""
    machine = a72_machine()
    truth = machine.ground_truth_mapping()
    groups: dict[tuple, list[str]] = {}
    for name in machine.isa.names:
        groups.setdefault(tuple(sorted(truth.uops_of(name).items())), []).append(name)
    chosen = sorted(groups.values(), key=lambda members: (-len(members), members[0]))[:13]
    order = {name: i for i, name in enumerate(machine.isa.names)}
    names = sorted((members[0] for members in chosen), key=order.__getitem__)
    predictor = MappingPredictor(truth)
    rng = np.random.default_rng(0)

    def label(experiment: Experiment) -> float:
        return predictor.predict(experiment) * (1.0 + rng.normal(0.0, 0.004))

    measured = ExperimentSet()
    singles: dict[str, float] = {}
    for name in names:
        experiment = Experiment.singleton(name)
        singles[name] = label(experiment)
        measured.add(experiment, singles[name])
    for experiment in pair_experiments(names, singles):
        measured.add(experiment, label(experiment))
    return machine.config.ports, measured, singles


def test_a72_evolver_returns_the_pinned_result():
    ports, measured, singles = _a72_problem()
    config = EvolutionConfig(population_size=256, max_generations=30, patience=30, seed=0)
    result = PortMappingEvolver(ports, measured, singles, config).run()
    assert (_sha256(result.mapping.to_json()), repr(result.davg)) == (
        EVOLVE_SHA256,
        EVOLVE_DAVG,
    ), STREAMS
