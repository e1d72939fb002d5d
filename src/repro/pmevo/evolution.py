"""The evolutionary algorithm (Algorithm 1 of the paper).

Structure::

    initialize population randomly
    while not done:
        apply evolutionary operators       (recombination; mutation is an
        evaluate fitness                    ablation-only option)
        select new population
    perform local search
    return fittest individual

Fitness evaluation is the hot loop; candidates are evaluated in batches via
:class:`repro.throughput.BatchedThroughputEvaluator` (the vectorized
bottleneck simulation algorithm).  Termination: the population's objectives
have converged to a single value, the best candidate stopped improving for
``patience`` generations, or ``max_generations`` is reached.

The loop is factored into a resumable state machine (:class:`EvolutionState`
plus :meth:`PortMappingEvolver.init_state` / :meth:`PortMappingEvolver.advance`)
so that the island model (:mod:`repro.pmevo.islands`) can interleave epochs of
several populations with migration; :meth:`PortMappingEvolver.run` is the
single-population composition of those primitives.

Serialization
-------------
:class:`EvolutionState` round-trips through JSON (:meth:`EvolutionState.to_json`
/ :meth:`EvolutionState.from_json`): the population, the objective arrays, the
generation counters, *and the numpy bit-generator state* are all captured, so
a deserialized state continues bit-identically to the original.  The
population travels as a base64-armoured compressed npz of its
:class:`~repro.pmevo.packed.PackedPopulation` form — a fraction of the size
of the old per-genome JSON dicts, which is what the migration transports and
checkpoints ship per epoch (legacy list-shaped payloads still deserialize).
This single codec underlies both the socket migration transport
(:mod:`repro.pmevo.transport`) and checkpoint/resume
(:mod:`repro.pmevo.checkpoint`).  Malformed payloads raise
:class:`repro.core.errors.CheckpointError`.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import CheckpointError, InferenceError
from repro.core.experiment import ExperimentSet
from repro.core.mapping import ThreeLevelMapping
from repro.core.ports import PortSpace
from repro.pmevo.fitness import scalarized_fitness
from repro.pmevo.localsearch import local_search
from repro.pmevo.operators import mutate, recombine
from repro.pmevo.packed import PackedPopulation
from repro.pmevo.population import (
    Genome,
    genome_from_jsonable,
    genome_key,
    genome_to_mapping,
    genome_volume,
    random_population,
)
from repro.throughput.batched import BatchedThroughputEvaluator

__all__ = [
    "EvolutionConfig",
    "GenerationStats",
    "EvolutionResult",
    "EvolutionState",
    "PortMappingEvolver",
    "config_to_jsonable",
    "config_from_jsonable",
    "history_to_jsonable",
    "history_from_jsonable",
]

#: Genomes per fitness-kernel call.  The kernel is exact, so the chunk size
#: changes speed and memory only, never a result.
_FITNESS_CHUNK = 16


@dataclass(frozen=True)
class EvolutionConfig:
    """Hyper-parameters of the evolutionary algorithm.

    ``population_size`` is the paper's ``p``: each generation creates ``p``
    children and selects the best ``p`` of the combined ``2p`` candidates.
    ``mutation_rate > 0`` enables the ablation-only mutation operator.

    The island-model knobs (all inert at their defaults) configure
    :class:`repro.pmevo.islands.IslandEvolver`: ``islands`` independent
    populations of ``population_size`` each, ``workers`` processes evaluating
    them concurrently, and every ``migration_interval`` generations each
    island sends its ``migration_size`` best genomes to its ring successor.
    """

    population_size: int = 100
    max_generations: int = 150
    patience: int = 25
    convergence_tolerance: float = 1e-9
    mutation_rate: float = 0.0
    local_search_rounds: int = 2
    seed: int = 0
    islands: int = 1
    workers: int = 1
    migration_interval: int = 10
    migration_size: int = 2
    #: Stop as soon as the best D_avg reaches this value (time-to-target
    #: experiments); ``None`` disables the criterion.
    target_davg: float | None = None

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise InferenceError("population size must be at least 2")
        if self.max_generations < 1:
            raise InferenceError("need at least one generation")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise InferenceError("mutation rate must be in [0, 1]")
        if self.islands < 1:
            raise InferenceError("need at least one island")
        if self.workers < 1:
            raise InferenceError("need at least one worker")
        if self.migration_interval < 1:
            raise InferenceError("migration interval must be positive")
        if self.migration_size < 0:
            raise InferenceError("migration size must be non-negative")
        # Only constrain migration against the population when migration can
        # actually happen — a single-population config must stay valid
        # whatever the (inert) migration defaults are.
        if self.islands > 1 and self.migration_size >= self.population_size:
            raise InferenceError(
                "migration size must be smaller than the island population"
            )


def config_to_jsonable(config: EvolutionConfig) -> dict:
    """JSON-safe dict form of an :class:`EvolutionConfig`."""
    return dataclasses.asdict(config)


def config_from_jsonable(data: Mapping) -> EvolutionConfig:
    """Rebuild an :class:`EvolutionConfig` from :func:`config_to_jsonable` output.

    Unknown keys are ignored (forward compatibility); missing keys fall back
    to the dataclass defaults.  Malformed values surface as
    :class:`repro.core.errors.CheckpointError`.
    """
    known = {f.name for f in dataclasses.fields(EvolutionConfig)}
    try:
        return EvolutionConfig(**{k: v for k, v in dict(data).items() if k in known})
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed evolution config: {exc}") from exc


@dataclass(frozen=True)
class GenerationStats:
    """Objective summary of one generation (after selection)."""

    generation: int
    best_davg: float
    median_davg: float
    best_volume: float
    evaluations: int


# The single history codec: EvolutionState, IslandResult, and checkpoints
# all serialize GenerationStats lists through these two helpers, so the
# JSON shape cannot diverge between the wire and the disk formats.
def history_to_jsonable(history: list[GenerationStats]) -> list[dict]:
    return [dataclasses.asdict(stats) for stats in history]


def history_from_jsonable(entries) -> list[GenerationStats]:
    return [GenerationStats(**entry) for entry in entries]


@dataclass
class EvolutionResult:
    """Outcome of one evolutionary inference run."""

    mapping: ThreeLevelMapping
    genome: Genome
    davg: float
    volume: int
    generations: int
    evaluations: int
    wall_seconds: float
    history: list[GenerationStats] = field(default_factory=list)
    converged: bool = False


@dataclass
class EvolutionState:
    """Resumable mid-run state of one evolving population.

    Everything the generation loop reads or writes lives here (not on the
    evolver), so several states can share one evolver — and one state can be
    shipped to a worker process, advanced a few generations, and shipped
    back — without interference.
    """

    population: list[Genome]
    davgs: np.ndarray
    volumes: np.ndarray
    rng: np.random.Generator
    generation: int = 0
    evaluations: int = 0
    stale: int = 0
    best_key: tuple[float, float] | None = None
    history: list[GenerationStats] = field(default_factory=list)
    converged: bool = False

    @property
    def stopped(self) -> bool:
        """Whether a stop condition (other than the budget) has fired."""
        return self.converged or self.stale_exhausted or self.target_reached

    # Patience exhaustion and target attainment are recorded explicitly so
    # resuming an island after a migration does not re-derive them.
    stale_exhausted: bool = False
    target_reached: bool = False

    def best_index(self) -> int:
        """Index of the (D_avg, volume)-lexicographically best individual."""
        return int(np.lexsort((self.volumes, self.davgs))[0])

    # -- serialization ------------------------------------------------------
    #
    # The JSON codec is exact: float64 objectives survive the round trip
    # bit-for-bit (Python's json emits shortest-roundtrip reprs), genome and
    # history insertion order is preserved, and the generator is restored
    # from its bit-generator state — so `from_json(to_json())` continues a
    # run identically.  This is the wire format of the socket transport and
    # the on-disk format of checkpoints.

    #: Tag of the packed population encoding inside state payloads.
    POPULATION_ENCODING = "packed-npz-b64"

    def to_jsonable(self) -> dict:
        """JSON-safe dict capturing the complete resumable state.

        The population is embedded as a compact binary payload (compressed
        npz of the packed arrays, base64-armoured); everything else stays
        plain JSON.  :meth:`from_jsonable` also accepts the legacy
        list-of-genome-dicts shape, so pre-packed checkpoints remain
        loadable.
        """
        return {
            "population": {
                "encoding": self.POPULATION_ENCODING,
                "data": PackedPopulation.from_genomes(self.population).to_npz_base64(),
            },
            "davgs": [float(v) for v in self.davgs],
            "volumes": [float(v) for v in self.volumes],
            "rng": self.rng.bit_generator.state,
            "generation": self.generation,
            "evaluations": self.evaluations,
            "stale": self.stale,
            "best_key": list(self.best_key) if self.best_key is not None else None,
            "history": history_to_jsonable(self.history),
            "converged": self.converged,
            "stale_exhausted": self.stale_exhausted,
            "target_reached": self.target_reached,
        }

    def to_json(self) -> str:
        """Serialize to a JSON string (see :meth:`to_jsonable`)."""
        return json.dumps(self.to_jsonable())

    @classmethod
    def from_jsonable(cls, data: Mapping) -> "EvolutionState":
        """Rebuild a state from :meth:`to_jsonable` output.

        Raises :class:`repro.core.errors.CheckpointError` on malformed
        payloads (missing keys, an unknown bit generator, wrong shapes).
        """
        try:
            rng_payload = dict(data["rng"])
            generator_name = str(rng_payload["bit_generator"])
            generator_type = getattr(np.random, generator_name, None)
            if generator_type is None or not (
                isinstance(generator_type, type)
                and issubclass(generator_type, np.random.BitGenerator)
            ):
                raise CheckpointError(
                    f"unknown numpy bit generator {generator_name!r} in state"
                )
            bit_generator = generator_type()
            bit_generator.state = rng_payload
            best_key = data["best_key"]
            population_payload = data["population"]
            if isinstance(population_payload, Mapping):
                encoding = population_payload.get("encoding")
                if encoding != cls.POPULATION_ENCODING:
                    raise CheckpointError(
                        f"unknown population encoding {encoding!r} in state"
                    )
                population = PackedPopulation.from_npz_base64(
                    population_payload["data"]
                ).to_genomes()
            else:
                # Legacy shape: a list of per-genome JSON dicts.
                population = [genome_from_jsonable(g) for g in population_payload]
            return cls(
                population=population,
                davgs=np.asarray(data["davgs"], dtype=np.float64),
                volumes=np.asarray(data["volumes"], dtype=np.float64),
                rng=np.random.Generator(bit_generator),
                generation=int(data["generation"]),
                evaluations=int(data["evaluations"]),
                stale=int(data["stale"]),
                best_key=tuple(best_key) if best_key is not None else None,
                history=history_from_jsonable(data["history"]),
                converged=bool(data["converged"]),
                stale_exhausted=bool(data["stale_exhausted"]),
                target_reached=bool(data["target_reached"]),
            )
        except CheckpointError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CheckpointError(f"malformed evolution state: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "EvolutionState":
        """Deserialize from a JSON string (see :meth:`from_jsonable`)."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"evolution state is not valid JSON: {exc}") from exc
        return cls.from_jsonable(data)


class PortMappingEvolver:
    """Runs the evolutionary search for one machine's experiment data.

    Parameters
    ----------
    ports:
        The port space candidates map onto (the user supplies |P|,
        Section 4.4: "The sets I of Instructions and P of Ports are given
        by the user").
    measurements:
        Measured experiments over the (congruence-filtered) instruction
        universe.
    singleton_throughputs:
        Measured individual throughputs, used by initialization bounds.
    config:
        Hyper-parameters.
    """

    def __init__(
        self,
        ports: PortSpace,
        measurements: ExperimentSet,
        singleton_throughputs: Mapping[str, float],
        config: EvolutionConfig | None = None,
    ):
        self.ports = ports
        self.config = config or EvolutionConfig()
        # Kept for transports/checkpoints, which re-serialize the problem.
        self.measurements = measurements
        self.names: tuple[str, ...] = tuple(measurements.instruction_names())
        if not self.names:
            raise InferenceError("measurement set covers no instructions")
        missing = [n for n in self.names if n not in singleton_throughputs]
        if missing:
            raise InferenceError(f"missing singleton throughputs for {missing}")
        self.singleton_throughputs = dict(singleton_throughputs)
        self.evaluator = BatchedThroughputEvaluator(
            measurements, self.names, ports.num_ports
        )
        # One preallocated evaluation workspace per evolver, reused by every
        # generation's fitness batch (population-sized batches stream through
        # it in _FITNESS_CHUNK-sized chunks).
        self._workspace = self.evaluator.packed_workspace(_FITNESS_CHUNK)
        self._rng = np.random.default_rng(self.config.seed)

    # -- evaluation --------------------------------------------------------

    def _evaluate(self, genomes: Sequence[Genome]) -> tuple[np.ndarray, np.ndarray]:
        """(D_avg, volume) arrays for a batch of genomes.

        The batch is packed once into a :class:`PackedPopulation` and
        evaluated by the population-wide kernel — the only Python-level
        per-genome work left in the hot loop is the packing itself.
        """
        packed = PackedPopulation.from_genomes(genomes, self.names)
        predicted = self.evaluator.throughputs_from_packed(
            packed, workspace=self._workspace
        )
        davgs = self.evaluator.davg_from_throughputs(predicted)
        volumes = packed.volumes().astype(np.float64)
        return davgs, volumes

    # -- stepping primitives ------------------------------------------------

    def init_state(self, rng: np.random.Generator | None = None) -> EvolutionState:
        """Sample and evaluate an initial population.

        ``rng`` defaults to the evolver's own generator (seeded from the
        config); island runs pass per-island generators derived from one
        root seed instead.
        """
        rng = rng if rng is not None else self._rng
        population = random_population(
            rng,
            self.config.population_size,
            self.names,
            self.ports.num_ports,
            self.singleton_throughputs,
        )
        davgs, volumes = self._evaluate(population)
        return EvolutionState(
            population=population,
            davgs=davgs,
            volumes=volumes,
            rng=rng,
            evaluations=len(population),
        )

    def _step(self, state: EvolutionState) -> None:
        """Advance ``state`` by exactly one generation (operate/evaluate/select)."""
        config = self.config
        p = config.population_size
        rng = state.rng

        children: list[Genome] = []
        while len(children) < p:
            i = int(rng.integers(0, p))
            j = int(rng.integers(0, p))
            child_a, child_b = recombine(rng, state.population[i], state.population[j])
            children.append(child_a)
            if len(children) < p:
                children.append(child_b)
        if config.mutation_rate > 0.0:
            children = [
                mutate(
                    rng,
                    child,
                    self.ports.num_ports,
                    self.singleton_throughputs,
                    rate=config.mutation_rate,
                )
                for child in children
            ]

        child_davgs, child_volumes = self._evaluate(children)
        state.evaluations += len(children)
        all_genomes = state.population + children
        all_davgs = np.concatenate([state.davgs, child_davgs])
        all_volumes = np.concatenate([state.volumes, child_volumes])

        fitness = scalarized_fitness(all_davgs, all_volumes)
        ranked = np.argsort(fitness, kind="stable")
        # Selection with deduplication: at the paper's population size
        # (100 000) duplicate genomes are statistically irrelevant, but
        # at our scaled-down sizes they flood the selection and collapse
        # diversity within a few generations.  Preferring distinct
        # genomes (falling back to duplicates only when there are not
        # enough) keeps the algorithm otherwise unchanged.
        selected: list[int] = []
        seen_keys: set[tuple] = set()
        duplicates: list[int] = []
        for index in ranked:
            key = genome_key(all_genomes[index])
            if key in seen_keys:
                duplicates.append(int(index))
                continue
            seen_keys.add(key)
            selected.append(int(index))
            if len(selected) == p:
                break
        if len(selected) < p:
            selected.extend(duplicates[: p - len(selected)])
        order = np.array(selected)
        state.population = [all_genomes[i] for i in order]
        state.davgs = all_davgs[order]
        state.volumes = all_volumes[order]
        state.generation += 1

        state.history.append(
            GenerationStats(
                generation=state.generation,
                best_davg=float(state.davgs.min()),
                median_davg=float(np.median(state.davgs)),
                best_volume=float(state.volumes[int(np.argmin(state.davgs))]),
                evaluations=state.evaluations,
            )
        )

        if (
            config.target_davg is not None
            and float(state.davgs.min()) <= config.target_davg
        ):
            state.target_reached = True
            return
        # Convergence: the whole population collapsed to one objective
        # point, or the best candidate stagnated for `patience` rounds.
        davg_span = float(state.davgs.max() - state.davgs.min())
        volume_span = float(state.volumes.max() - state.volumes.min())
        if davg_span <= config.convergence_tolerance and volume_span == 0.0:
            state.converged = True
            return
        key = (
            round(float(state.davgs.min()), 12),
            float(state.volumes[int(np.argmin(state.davgs))]),
        )
        if state.best_key is not None and key >= state.best_key:
            state.stale += 1
            if state.stale >= config.patience:
                state.stale_exhausted = True
        else:
            state.stale = 0
            state.best_key = key

    def advance(
        self, state: EvolutionState, generations: int | None = None
    ) -> EvolutionState:
        """Run up to ``generations`` more generations (default: to the budget).

        Stops early when the state converges, exhausts its patience, or hits
        ``config.max_generations``; returns the same (mutated) state for
        pipelining convenience.
        """
        budget = generations if generations is not None else self.config.max_generations
        for _ in range(budget):
            if state.stopped or state.generation >= self.config.max_generations:
                break
            self._step(state)
        return state

    def finalize(
        self, state: EvolutionState, wall_seconds: float = 0.0
    ) -> EvolutionResult:
        """Local-search the state's best individual and package the result."""
        best_genome = state.population[state.best_index()]
        if self.config.local_search_rounds > 0:
            best_genome, _ = local_search(
                self.evaluator,
                best_genome,
                max_rounds=self.config.local_search_rounds,
            )
        final_davg = float(self.evaluator.davg(best_genome))
        return EvolutionResult(
            mapping=genome_to_mapping(self.ports, best_genome),
            genome=best_genome,
            davg=final_davg,
            volume=genome_volume(best_genome),
            generations=state.generation,
            evaluations=state.evaluations,
            wall_seconds=wall_seconds,
            history=state.history,
            converged=state.converged,
        )

    # -- main loop ----------------------------------------------------------

    def run(self) -> EvolutionResult:
        """Execute Algorithm 1 and return the fittest mapping found."""
        start_time = time.perf_counter()
        state = self.advance(self.init_state())
        return self.finalize(state, wall_seconds=time.perf_counter() - start_time)
