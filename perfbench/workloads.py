"""Seeded inputs of the perfbench workloads.

Every generator is a pure function of the workload seed: one seed always
gives the same inputs, and another seed gives different inputs of the same
shape.  The shape is held fixed on purpose.  The number of congruence
classes, experiments and request sizes set what an op costs, and letting
them drift with the seed would make the spread between runs measure the
seed instead of the host and the program.

The generators run in two processes.  The program host (``host.py``) builds
the infer-skl and evolve-a72 inputs, which need the machine presets; the
benchmark process (``run.py``) builds the serve-zipf mapping and requests
without importing the program, so that the load generator stays small.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("infer-skl", "evolve-a72", "serve-zipf")


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark scale: ``FULL`` for measuring, ``TINY`` for tests."""

    infer_forms: int
    infer_population: int
    infer_generations: int
    evolve_forms: int
    evolve_classes: int
    evolve_population: int
    evolve_generations: int
    serve_forms: int
    serve_pool: int
    serve_requests: int
    serve_warmup: int
    setup_probes: int


FULL = Scale(
    # `repro-pmevo infer SKL --forms 20 --population 100 --generations 40`:
    # 400 experiments, 9 representatives.
    infer_forms=20,
    infer_population=100,
    infer_generations=40,
    # 48 A72 forms over 13 µop signatures: 2304 experiments, 169 of them
    # over the 13 representatives.
    evolve_forms=48,
    evolve_classes=13,
    evolve_population=256,
    evolve_generations=30,
    serve_forms=256,
    serve_pool=50_000,
    serve_requests=60_000,
    # Requests sent before timing starts, so the LRU holds its steady
    # working set (about 2.3 new distinct sequences arrive per request).
    serve_warmup=2_000,
    # Extra cold starts per run; setup_s is the median over these and the
    # measured process.
    setup_probes=2,
)

TINY = Scale(
    infer_forms=5,
    infer_population=8,
    infer_generations=2,
    evolve_forms=10,
    evolve_classes=4,
    evolve_population=8,
    evolve_generations=2,
    serve_forms=32,
    serve_pool=500,
    serve_requests=400,
    serve_warmup=20,
    setup_probes=1,
)

SCALES = {"full": FULL, "tiny": TINY}


def subsample_names(names: list[str], count: int, seed: int) -> list[str]:
    """``count`` forms drawn without replacement, kept in ISA order.

    The same draw ``repro-pmevo infer --forms`` makes, pinned here so that a
    change to the CLI cannot change the benchmark's inputs.
    """
    if count >= len(names):
        return list(names)
    picks = np.random.default_rng(seed).choice(len(names), size=count, replace=False)
    return [names[i] for i in sorted(picks)]


# -- infer-skl --------------------------------------------------------------

INFER_MACHINE = "SKL"
#: The form subsample and the measurement-noise seed stay at the CLI's
#: seed-0 values for every workload seed.  Across noise seeds, congruence
#: filtering leaves 9 to 12 representatives, which moves an op by about
#: 10%.  With both fixed, every op measures the same 400 experiments and
#: keeps 9 representatives; the workload seed drives the evolution.
INFER_SUBSAMPLE_SEED = 0
INFER_NOISE_SEED = 0


@dataclass(frozen=True)
class InferInputs:
    names: tuple[str, ...]
    noise_seed: int
    evolution_seed: int


def infer_inputs(seed: int, scale: Scale = FULL) -> InferInputs:
    from repro.machine import preset_machine

    isa_names = list(preset_machine(INFER_MACHINE).isa.names)
    names = subsample_names(isa_names, scale.infer_forms, INFER_SUBSAMPLE_SEED)
    return InferInputs(tuple(names), INFER_NOISE_SEED, seed)


# -- evolve-a72 -------------------------------------------------------------

EVOLVE_MACHINE = "A72"
EVOLVE_JITTER = 0.004
EVOLVE_EPSILON = 0.05
#: Ops cycle through the evolver seeds S, S+1, ..., S+7.
EVOLVE_SEED_LIST = 8


@dataclass(frozen=True)
class TrainingSet:
    """Labelled, congruence-filtered experiments for the evolver."""

    ports: object  # repro.core.PortSpace
    names: tuple[str, ...]
    measurements: object  # repro.core.ExperimentSet over the representatives
    singles: dict[str, float]
    experiments_total: int


def evolve_training_set(seed: int, scale: Scale = FULL) -> TrainingSet:
    """A72 experiments labelled by the ground-truth bottleneck model.

    The seed draws ``evolve_forms`` forms that together cover the same
    ``evolve_classes`` ground-truth µop signatures at every seed (the most
    populous ones), labels every singleton and pair experiment with the
    ground truth's bottleneck throughput times a 0.4% jitter, and keeps the
    representatives ``find_congruence_classes`` picks.  A plain subsample
    leaves 10 to 13 representatives depending on the seed, which moves an
    op by a factor of 1.7.
    """
    from repro.core import Experiment, ExperimentSet
    from repro.machine import preset_machine
    from repro.pmevo import find_congruence_classes, pair_experiments
    from repro.throughput import MappingPredictor

    machine = preset_machine(EVOLVE_MACHINE)
    truth = machine.ground_truth_mapping()
    isa_names = list(machine.isa.names)
    groups: dict[tuple, list[str]] = {}
    for name in isa_names:
        groups.setdefault(tuple(sorted(truth.uops_of(name).items())), []).append(name)
    chosen = sorted(groups.values(), key=lambda members: (-len(members), members[0]))
    chosen = chosen[: scale.evolve_classes]

    rng = np.random.default_rng(seed)
    picked = [group[int(rng.integers(len(group)))] for group in chosen]
    rest = [name for group in chosen for name in group if name not in picked]
    extra = rng.choice(len(rest), size=scale.evolve_forms - len(picked), replace=False)
    picked += [rest[i] for i in extra]
    order = {name: i for i, name in enumerate(isa_names)}
    names = tuple(sorted(picked, key=order.__getitem__))

    predictor = MappingPredictor(truth, backend="bottleneck")

    def label(experiment) -> float:
        return predictor.predict(experiment) * (1.0 + rng.normal(0.0, EVOLVE_JITTER))

    measured = ExperimentSet()
    singles: dict[str, float] = {}
    for name in names:
        experiment = Experiment.singleton(name)
        singles[name] = label(experiment)
        measured.add(experiment, singles[name])
    for experiment in pair_experiments(names, singles):
        measured.add(experiment, label(experiment))

    partition = find_congruence_classes(measured, epsilon=EVOLVE_EPSILON, names=names)
    representatives = partition.representatives
    if len(representatives) != scale.evolve_classes:
        raise RuntimeError(
            f"evolve-a72 seed {seed}: congruence left {len(representatives)} "
            f"representatives, expected {scale.evolve_classes}"
        )
    return TrainingSet(
        ports=machine.config.ports,
        names=names,
        measurements=measured.restricted_to(representatives),
        singles={name: singles[name] for name in representatives},
        experiments_total=len(measured),
    )


def evolve_seed(seed: int, op_index: int) -> int:
    return seed + op_index % EVOLVE_SEED_LIST


# -- serve-zipf -------------------------------------------------------------

SERVE_PORTS = 12
SERVE_PORT_GROUPS = 16
SERVE_BATCH = 32
#: Closed-loop keep-alive connections, one per CPU of a 2-CPU host.
SERVE_CONNECTIONS = 2
SERVE_ZIPF = 1.2
#: Distinct pool sequences whose answers are checked against a direct call.
SERVE_SAMPLE = 64


def serve_mapping(seed: int, scale: Scale = FULL) -> dict:
    """A 12-port mapping in ``ThreeLevelMapping.to_dict`` form.

    Each form has 1 to 3 µops drawn from 16 port groups of 1 to 4 ports,
    the shape of the presets' ground truths (7 to 15 distinct masks).
    """
    rng = np.random.default_rng([seed, 1])
    ports = [f"P{i}" for i in range(SERVE_PORTS)]
    groups: list[tuple[int, ...]] = []
    while len(groups) < SERVE_PORT_GROUPS:
        size = int(rng.integers(1, 5))
        group = tuple(sorted(int(p) for p in rng.choice(SERVE_PORTS, size, replace=False)))
        if group not in groups:
            groups.append(group)
    instructions = {}
    for index in range(scale.serve_forms):
        uops = rng.choice(SERVE_PORT_GROUPS, size=int(rng.integers(1, 4)), replace=False)
        instructions[f"op{index:03d}"] = [
            {"ports": [ports[p] for p in groups[g]], "count": int(rng.integers(1, 3))}
            for g in sorted(int(g) for g in uops)
        ]
    return {"ports": ports, "instructions": instructions}


@dataclass(frozen=True)
class ServeRequests:
    """The request stream: pool sequences and the pool index of every slot."""

    pool: list[dict[str, int]]
    fragments: list[bytes]  # each pool sequence, JSON-encoded once
    stream: np.ndarray  # [requests, SERVE_BATCH] pool indices
    sample: tuple[int, ...]  # pool indices whose answers are checked

    def body(self, request: int) -> bytes:
        row = self.stream[request % len(self.stream)]
        return b'{"sequences":[' + b",".join([self.fragments[i] for i in row]) + b"]}"


def serve_requests(seed: int, names: list[str], scale: Scale = FULL) -> ServeRequests:
    """Basic-block-like sequences drawn by Zipf(1.2) rank from a fixed pool.

    A pool sequence has 4 to 24 instructions over at most 6 distinct forms.
    """
    rng = np.random.default_rng([seed, 2])
    size = scale.serve_pool
    lengths = rng.integers(4, 25, size=size)
    distinct = np.minimum(rng.integers(1, 7, size=size), lengths)
    pool = []
    for length, count in zip(lengths.tolist(), distinct.tolist()):
        forms = rng.choice(len(names), size=count, replace=False)
        repeats = np.bincount(rng.integers(0, count, size=length - count), minlength=count)
        pool.append({names[f]: 1 + int(r) for f, r in zip(forms.tolist(), repeats.tolist())})
    fragments = [json.dumps(seq, separators=(",", ":")).encode() for seq in pool]

    weights = np.arange(1, size + 1, dtype=np.float64) ** -SERVE_ZIPF
    cdf = np.cumsum(weights / weights.sum())
    draws = rng.random(scale.serve_requests * SERVE_BATCH)
    ranks = np.minimum(np.searchsorted(cdf, draws), size - 1).astype(np.int32)
    stream = ranks.reshape(scale.serve_requests, SERVE_BATCH)

    # Checked sequences come from the warm-up requests, which every run sends.
    seen = np.unique(stream[: scale.serve_warmup])
    sample = rng.choice(seen, size=min(SERVE_SAMPLE, len(seen)), replace=False)
    return ServeRequests(pool, fragments, stream, tuple(sorted(int(i) for i in sample)))
