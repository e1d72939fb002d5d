"""The evolutionary algorithm (Algorithm 1 of the paper) and its island model.

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
plus :meth:`PortMappingEvolver.init_state`, :meth:`PortMappingEvolver.advance`
and :meth:`PortMappingEvolver.finalize`).  :meth:`PortMappingEvolver.run`
drives it as an island model, the classic coarse-grained form of the paper's
parallelized EA (Section 4.5): ``config.islands`` populations evolve through
*epochs* of ``migration_interval`` generations, and at every epoch barrier
elite genomes move around a ring.  One island is Algorithm 1 itself.  Design
goals, in order:

1. **Bit-reproducibility.**  One island draws from ``default_rng(seed)``, the
   sequential stream; K islands get generators spawned from the root seed by
   :class:`~numpy.random.SeedSequence` (:func:`derive_island_rngs`).  Each
   state carries its own generator, so ``advance`` is a pure function of
   ``(state, generations)`` and a :class:`~repro.pmevo.transport.MigrationTransport`
   (in-process, or TCP workers that are forked locally or started by hand)
   only decides *where* an epoch runs.  Results are byte-identical for any
   transport, worker count, or worker failure and recovery schedule
   (``tests/test_islands.py``, ``tests/test_transport_equivalence.py``).
2. **Deterministic migration.**  Island k's ``migration_size`` best
   individuals (lexicographic ``(D_avg, volume)``, stable) replace the worst
   of island ``(k+1) % K`` (:func:`migrate_ring`).  All emigrants come from
   the pre-migration snapshot, so the ring order does not matter.  The
   scalarized fitness normalizes objectives per population, so immigrants
   are re-ranked under the destination's extremes; that, not raw
   throughput, is why migration helps search quality.
3. **Interruptibility.**  The epoch barrier is the checkpoint boundary: a
   :class:`~repro.pmevo.checkpoint.Checkpointer` writes atomic snapshots,
   and a loaded :class:`~repro.pmevo.checkpoint.CheckpointSnapshot` passed
   as ``resume`` continues bit-identically to an uninterrupted run.  Under
   a socket transport this doubles as coordinator crash recovery
   (``tests/test_chaos.py`` SIGKILLs each process class to prove it).

Serialization
-------------
:class:`EvolutionState` round-trips through JSON (``to_jsonable`` /
``from_jsonable``): the population, the objective arrays, the generation
counters, *and the numpy bit-generator state* are all captured, so a
deserialized state continues bit-identically to the original.  The
population is a :class:`~repro.pmevo.packed.PackedPopulation` throughout a
run, kept in normal form, and travels as it is, as a base64-armoured
compressed npz.  This codec is the only thing that crosses a process
boundary: the socket migration transport (:mod:`repro.pmevo.transport`)
ships it per epoch and checkpoint/resume (:mod:`repro.pmevo.checkpoint`)
writes it at epoch barriers.  Malformed payloads, a population that breaks
the packed invariants included, raise
:class:`repro.core.errors.CheckpointError` and nothing else.
:class:`EvolutionResult` never leaves the process; its ``to_json`` is the
byte string the transport-equivalence tests compare.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.errors import CheckpointError, InferenceError
from repro.core.experiment import ExperimentSet
from repro.core.mapping import ThreeLevelMapping
from repro.core.ports import PortSpace
from repro.pmevo.fitness import scalarized_fitness
from repro.pmevo.localsearch import local_search
from repro.pmevo.operators import mutate, random_population, recombine
from repro.pmevo.packed import PackedPopulation
from repro.pmevo.population import Genome, genome_to_jsonable, genome_volume
from repro.pmevo.population import genome_key  # noqa: F401  (perfbench traces this lookup)
from repro.throughput.batched import BatchedThroughputEvaluator

if TYPE_CHECKING:  # both modules import this one at load time
    from repro.pmevo.checkpoint import Checkpointer, CheckpointSnapshot
    from repro.pmevo.transport import MigrationTransport

__all__ = [
    "EvolutionConfig",
    "GenerationStats",
    "EvolutionResult",
    "EvolutionState",
    "PortMappingEvolver",
    "derive_island_rngs",
    "migrate_ring",
    "config_to_jsonable",
    "config_from_jsonable",
    "history_to_jsonable",
    "history_from_jsonable",
]

#: A population whose D_avg values span at most this much (and whose volumes
#: are all equal) has converged to one objective point.
_CONVERGENCE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class EvolutionConfig:
    """Hyper-parameters of the evolutionary algorithm.

    ``population_size`` is the paper's ``p``: each generation creates ``p``
    children and selects the best ``p`` of the combined ``2p`` candidates.
    ``mutation_rate > 0`` enables the ablation-only mutation operator.

    The island-model knobs (all inert at their defaults) shape
    :meth:`PortMappingEvolver.run`: ``islands`` independent populations of
    ``population_size`` each, and every ``migration_interval`` generations
    each island sends its ``migration_size`` best genomes to its ring
    successor.  Where the islands run is the transport's choice.
    """

    population_size: int = 100
    max_generations: int = 150
    patience: int = 25
    mutation_rate: float = 0.0
    local_search_rounds: int = 2
    seed: int = 0
    islands: int = 1
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
    except (TypeError, ValueError, InferenceError) as exc:
        raise CheckpointError(f"malformed evolution config: {exc}") from exc


@dataclass(frozen=True)
class GenerationStats:
    """Objective summary of one generation (after selection)."""

    generation: int
    best_davg: float
    median_davg: float
    best_volume: float
    evaluations: int


# The single history codec: EvolutionState, EvolutionResult, and checkpoints
# all serialize GenerationStats lists through these two helpers, so the
# JSON shape cannot diverge between the wire and the disk formats.
def history_to_jsonable(history: list[GenerationStats]) -> list[dict]:
    return [dataclasses.asdict(stats) for stats in history]


def history_from_jsonable(entries) -> list[GenerationStats]:
    return [GenerationStats(**entry) for entry in entries]


@dataclass
class EvolutionResult:
    """Outcome of one evolutionary inference run.

    ``history`` is the winning island's trajectory; the island fields record
    the whole archipelago (one island for a sequential run).  The result
    never crosses a process boundary, so it has no decoder; :meth:`to_json`
    serializes it exactly, and those bytes are what the
    transport-equivalence tests compare.
    """

    mapping: ThreeLevelMapping
    genome: Genome
    davg: float
    volume: int
    generations: int
    evaluations: int
    wall_seconds: float
    history: list[GenerationStats] = field(default_factory=list)
    converged: bool = False
    islands: int = 1
    epochs: int = 0
    migrations: int = 0
    best_island: int = 0
    island_histories: list[list[GenerationStats]] = field(default_factory=list)
    island_davgs: list[float] = field(default_factory=list)
    islands_converged: list[bool] = field(default_factory=list)
    #: Scheduling/recovery telemetry from the transport's ``stats``, where it
    #: keeps any (the socket coordinator does): leases, steals, stale
    #: results, requeues, worker drops.  Deliberately outside
    #: the serialized form and excluded from comparisons — it records *how*
    #: the run was scheduled, which the bit-identity guarantee says must
    #: never influence *what* was computed.
    transport_stats: dict | None = field(default=None, compare=False)

    def to_jsonable(self) -> dict:
        """JSON-safe dict form of the complete result."""
        return {
            "mapping": self.mapping.to_dict(),
            "genome": genome_to_jsonable(self.genome),
            "davg": float(self.davg),
            "volume": int(self.volume),
            "generations": self.generations,
            "evaluations": self.evaluations,
            "wall_seconds": float(self.wall_seconds),
            "history": history_to_jsonable(self.history),
            "converged": self.converged,
            "islands": self.islands,
            "epochs": self.epochs,
            "migrations": self.migrations,
            "best_island": self.best_island,
            "island_histories": [history_to_jsonable(h) for h in self.island_histories],
            "island_davgs": [float(v) for v in self.island_davgs],
            "islands_converged": list(self.islands_converged),
        }

    def to_json(self) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_jsonable())


@dataclass
class EvolutionState:
    """Resumable mid-run state of one evolving population.

    Everything the generation loop reads or writes lives here (not on the
    evolver), so several states can share one evolver — and one state can be
    shipped to a worker process, advanced a few generations, and shipped
    back — without interference.  ``population`` stays in
    :meth:`~repro.pmevo.packed.PackedPopulation.normalized` form, so its
    serialized bytes equal those of its dict genomes packed afresh.
    """

    population: PackedPopulation
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
    # from its bit-generator state — so `from_jsonable(to_jsonable())`
    # continues a run identically.  This is the wire format of the socket
    # transport and the on-disk format of checkpoints.

    #: Tag of the packed population encoding inside state payloads.
    POPULATION_ENCODING = "packed-npz-b64"

    def to_jsonable(self) -> dict:
        """JSON-safe dict capturing the complete resumable state.

        The population is embedded as a compact binary payload (compressed
        npz of the packed arrays, base64-armoured); everything else stays
        plain JSON.
        """
        return {
            "population": {
                "encoding": self.POPULATION_ENCODING,
                "data": self.population.to_npz_base64(),
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

    @classmethod
    def from_jsonable(cls, data: Mapping) -> "EvolutionState":
        """Rebuild a state from :meth:`to_jsonable` output.

        Raises :class:`repro.core.errors.CheckpointError`, and nothing
        else, on any malformed payload: missing keys, an unknown bit
        generator or population encoding, a population that breaks the
        :class:`~repro.pmevo.packed.PackedPopulation` invariants, values of
        the wrong type, or numbers too large for their field.
        """
        try:
            rng_payload = dict(data["rng"])
            generator_name = str(rng_payload["bit_generator"])
            generator_type = getattr(np.random, generator_name, None)
            if not (
                isinstance(generator_type, type)
                and issubclass(generator_type, np.random.BitGenerator)
                and generator_type is not np.random.BitGenerator
            ):
                raise CheckpointError(
                    f"unknown numpy bit generator {generator_name!r} in state"
                )
            bit_generator = generator_type()
            bit_generator.state = rng_payload
            best_key = data["best_key"]
            population_payload = data["population"]
            if not isinstance(population_payload, Mapping) or (
                population_payload.get("encoding") != cls.POPULATION_ENCODING
            ):
                raise CheckpointError(
                    "state population is not in the "
                    f"{cls.POPULATION_ENCODING!r} encoding"
                )
            population = PackedPopulation.from_npz_base64(
                population_payload["data"]
            ).normalized()
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
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise CheckpointError(f"malformed evolution state: {exc}") from exc


def derive_island_rngs(root_seed: int, islands: int) -> list[np.random.Generator]:
    """Per-island generators spawned deterministically from one root seed.

    A single island gets ``default_rng(root_seed)``, the sequential
    Algorithm 1 stream, so a one-island run that only wants checkpointing
    or a transport is bit-identical to a plain one.  Multiple islands get
    independent streams via ``SeedSequence`` spawning.
    """
    if islands < 1:
        raise InferenceError("need at least one island")
    if islands == 1:
        return [np.random.default_rng(root_seed)]
    children = np.random.SeedSequence(root_seed).spawn(islands)
    return [np.random.default_rng(sequence) for sequence in children]


def migrate_ring(states: list[EvolutionState], migration_size: int) -> int:
    """Send each island's elite to its ring successor; returns genomes moved.

    Emigrants are the ``migration_size`` best individuals (lexicographic
    ``(D_avg, volume)``, stable sort) of each island's *pre-migration*
    population; their rows replace the destination's worst individuals.
    States are mutated in place.  The donor keeps its copies — migration
    copies, it does not resettle.
    """
    if migration_size <= 0 or len(states) < 2:
        return 0
    snapshots = []
    for state in states:
        best = np.lexsort((state.volumes, state.davgs))[:migration_size]
        snapshots.append(
            (state.population.take(best), state.davgs[best], state.volumes[best])
        )
    moved = 0
    for source, (emigrants, davgs, volumes) in enumerate(snapshots):
        target = states[(source + 1) % len(states)]
        size = len(target.population)
        # Worst-first within the target, recomputed against its own
        # (pre-migration) objectives — deterministic under the stable sort.
        worst = np.lexsort((target.volumes, target.davgs))[::-1][: len(emigrants)]
        rows = np.arange(size)
        rows[worst] = size + np.arange(len(worst))
        target.population = PackedPopulation.concatenate(
            [target.population, emigrants]
        ).take(rows)
        target.davgs[worst] = davgs
        target.volumes[worst] = volumes
        moved += len(worst)
    return moved


def _select_distinct(keys: np.ndarray, ranked: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` of ``ranked``, preferring distinct genomes.

    ``keys[i]`` identifies candidate ``i``'s genome.  Walking ``ranked``
    best first, a candidate whose genome was already taken is set aside;
    the set-aside duplicates, in ranked order, fill up only when there are
    fewer than ``count`` distinct genomes.
    """
    _, first = np.unique(keys[ranked], return_index=True)
    distinct = np.zeros(len(ranked), dtype=bool)
    distinct[first] = True
    return np.concatenate([ranked[distinct], ranked[~distinct]])[:count]


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
        self._rng = np.random.default_rng(self.config.seed)

    # -- evaluation --------------------------------------------------------

    def _evaluate(self, packed: PackedPopulation) -> tuple[np.ndarray, np.ndarray]:
        """(D_avg, volume) arrays for a packed population, from the
        population-wide kernel."""
        predicted = self.evaluator.throughputs_from_packed(packed)
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

        children = recombine(rng, state.population, p)
        if config.mutation_rate > 0.0:
            children = PackedPopulation.from_genomes(
                [
                    mutate(
                        rng,
                        child,
                        self.ports.num_ports,
                        self.singleton_throughputs,
                        rate=config.mutation_rate,
                    )
                    for child in children.to_genomes()
                ],
                self.names,
            )

        child_davgs, child_volumes = self._evaluate(children)
        state.evaluations += len(children)
        candidates = PackedPopulation.concatenate([state.population, children])
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
        order = _select_distinct(candidates.row_keys(), ranked, p)
        state.population = candidates.take(order)
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
        if davg_span <= _CONVERGENCE_TOLERANCE and volume_span == 0.0:
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
            if not self._active(state):
                break
            self._step(state)
        return state

    def _active(self, state: EvolutionState) -> bool:
        """Whether ``state`` still evolves: no stop condition, budget left."""
        return not state.stopped and state.generation < self.config.max_generations

    def finalize(
        self, state: EvolutionState, wall_seconds: float = 0.0
    ) -> EvolutionResult:
        """Local-search the state's best individual and package the result."""
        best_genome = state.population.take([state.best_index()]).to_genomes()[0]
        best_genome, final_davg = local_search(
            self.evaluator, best_genome, max_rounds=self.config.local_search_rounds
        )
        return EvolutionResult(
            mapping=ThreeLevelMapping(self.ports, best_genome),
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

    def _check_resume(self, resume: CheckpointSnapshot, problem: str) -> None:
        resume.check_config(self.config)
        if resume.problem != problem:
            raise CheckpointError(
                "checkpoint covers a different instruction universe, ports or "
                "measurements than this run (did the machine preset, --forms, "
                "or --seed change?)"
            )
        if len(resume.states) != self.config.islands:
            raise CheckpointError(
                f"checkpoint holds {len(resume.states)} island states, "
                f"config wants {self.config.islands}"
            )

    def run(
        self,
        transport: MigrationTransport | None = None,
        checkpointer: Checkpointer | None = None,
        resume: CheckpointSnapshot | None = None,
    ) -> EvolutionResult:
        """Evolve every island to completion and return the global best.

        Each epoch advances the active islands ``migration_interval``
        generations on ``transport`` (default: in-process; the choice
        cannot affect results) and then migrates elites around the ring.
        ``checkpointer`` persists a snapshot at epoch barriers; ``resume``
        continues from a loaded snapshot, validated against this evolver's
        config and problem, bit-identically to never having stopped.
        """
        # Both modules import this one, so they are imported at call time.
        from repro.pmevo.checkpoint import CheckpointSnapshot
        from repro.pmevo.transport import SerialTransport, problem_to_jsonable

        start_time = time.perf_counter()
        config = self.config
        if transport is None:
            transport = SerialTransport()
        problem = ""
        if checkpointer is not None or resume is not None:
            document = problem_to_jsonable(self)
            del document["config"]
            problem = hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()
        if resume is not None:
            self._check_resume(resume, problem)
            states = list(resume.states)
            epochs = resume.epochs
            migrations = resume.migrations
        else:
            rngs = derive_island_rngs(config.seed, config.islands)
            states = [self.init_state(rng) for rng in rngs]
            epochs = 0
            migrations = 0

        try:
            # A run resumed after its last epoch has no work to hand out,
            # and a socket transport would wait for workers in vain.
            if any(self._active(state) for state in states):
                transport.start(self)
            while True:
                jobs = [(k, s) for k, s in enumerate(states) if self._active(s)]
                if not jobs:
                    break
                for k, advanced in transport.advance(jobs, config.migration_interval):
                    states[k] = advanced
                epochs += 1
                # Time-to-target runs: one island reaching the target ends
                # the whole archipelago (decided at the epoch barrier, so
                # the outcome is independent of worker scheduling).
                if any(state.target_reached for state in states):
                    break
                # Migrating into a stopped island could not change the
                # result (it never advances again and the migrant is judged
                # against the global best anyway), so exchange among all
                # islands unconditionally — it keeps the topology a ring.
                if any(self._active(state) for state in states):
                    migrations += migrate_ring(states, config.migration_size)
                if checkpointer is not None:
                    checkpointer.after_epoch(
                        CheckpointSnapshot(
                            config=config,
                            problem=problem,
                            epochs=epochs,
                            migrations=migrations,
                            states=states,
                        )
                    )
        finally:
            transport.close()

        # Global winner: lexicographic (D_avg, volume) over each island's
        # champion, ties broken by island index for determinism.
        champions = [
            (float(s.davgs[s.best_index()]), float(s.volumes[s.best_index()]), k)
            for k, s in enumerate(states)
        ]
        best_island = min(champions)[2]
        return dataclasses.replace(
            self.finalize(states[best_island]),
            generations=max(s.generation for s in states),
            evaluations=sum(s.evaluations for s in states),
            wall_seconds=time.perf_counter() - start_time,
            converged=all(s.converged for s in states),
            islands=config.islands,
            epochs=epochs,
            migrations=migrations,
            best_island=best_island,
            island_histories=[s.history for s in states],
            island_davgs=[davg for davg, _, _ in champions],
            islands_converged=[s.converged for s in states],
            transport_stats=getattr(transport, "stats", None),
        )
