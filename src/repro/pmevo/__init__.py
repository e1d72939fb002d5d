"""The PMEvo inference pipeline (Figure 5 of the paper)."""

from repro.pmevo.congruence import (
    CongruencePartition,
    find_congruence_classes,
    throughputs_equal,
)
from repro.pmevo.evolution import (
    EvolutionConfig,
    EvolutionResult,
    EvolutionState,
    GenerationStats,
    PortMappingEvolver,
    derive_island_rngs,
    migrate_ring,
)
from repro.pmevo.checkpoint import (
    CheckpointSnapshot,
    Checkpointer,
    load_checkpoint,
    previous_path,
    write_checkpoint,
)
from repro.pmevo.transport import (
    MigrationTransport,
    SerialTransport,
    SocketTransport,
    backoff_delays,
    run_worker,
)
from repro.pmevo.expgen import (
    pair_experiments,
    random_experiments,
    singleton_experiments,
)
from repro.pmevo.fitness import normalize_objective, scalarized_fitness
from repro.pmevo.localsearch import local_search
from repro.pmevo.operators import mutate, random_population, recombine
from repro.pmevo.packed import PackedPopulation
from repro.pmevo.pipeline import PMEvoConfig, PMEvoResult, infer_port_mapping
from repro.pmevo.population import Genome, genome_volume

__all__ = [
    "singleton_experiments",
    "pair_experiments",
    "random_experiments",
    "CongruencePartition",
    "find_congruence_classes",
    "throughputs_equal",
    "EvolutionConfig",
    "EvolutionResult",
    "EvolutionState",
    "GenerationStats",
    "PortMappingEvolver",
    "derive_island_rngs",
    "migrate_ring",
    "MigrationTransport",
    "SerialTransport",
    "SocketTransport",
    "run_worker",
    "backoff_delays",
    "Checkpointer",
    "CheckpointSnapshot",
    "load_checkpoint",
    "write_checkpoint",
    "previous_path",
    "normalize_objective",
    "scalarized_fitness",
    "local_search",
    "recombine",
    "mutate",
    "Genome",
    "PackedPopulation",
    "random_population",
    "genome_volume",
    "PMEvoConfig",
    "PMEvoResult",
    "infer_port_mapping",
]
