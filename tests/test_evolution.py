"""Tests for the evolutionary algorithm (Algorithm 1)."""

import numpy as np
import pytest

from reference_operators import random_genome
from planted_truth import measurements_from_truth as _measurements_from_truth
from repro.core import InferenceError, PortSpace
from repro.pmevo import EvolutionConfig, PackedPopulation, PortMappingEvolver
from repro.pmevo.evolution import _select_distinct
from repro.pmevo.population import genome_key


class TestEvolutionConfigValidation:
    def test_bad_population(self):
        with pytest.raises(InferenceError):
            EvolutionConfig(population_size=1)

    def test_bad_generations(self):
        with pytest.raises(InferenceError):
            EvolutionConfig(max_generations=0)

    def test_bad_mutation_rate(self):
        with pytest.raises(InferenceError):
            EvolutionConfig(mutation_rate=1.5)


class TestEvolverSetup:
    def test_missing_singletons_rejected(self):
        names = ("x",)
        measured, _ = _measurements_from_truth({"x": {0b1: 1}}, names, 1)
        with pytest.raises(InferenceError):
            PortMappingEvolver(PortSpace.numbered(1), measured, {})


class TestEvolutionRecovery:
    def test_recovers_simple_two_port_truth(self):
        truth = {"a": {0b01: 1}, "b": {0b10: 1}, "c": {0b11: 1}}
        names = ("a", "b", "c")
        measured, singles = _measurements_from_truth(
            truth, names, 2, extra_pairs=[{"a": 1, "b": 1, "c": 1}.items()]
        )
        evolver = PortMappingEvolver(
            PortSpace.numbered(2),
            measured,
            singles,
            EvolutionConfig(population_size=80, max_generations=60, seed=0),
        )
        result = evolver.run()
        assert result.davg == pytest.approx(0.0, abs=1e-9)
        assert result.generations <= 60
        assert result.evaluations > 0
        assert len(result.history) == result.generations

    def test_finds_multi_uop_decomposition(self):
        # 'st' needs two µops: one shared with 'ad', one exclusive.
        truth = {"ad": {0b011: 1}, "mu": {0b100: 2}, "st": {0b011: 1, 0b100: 1}}
        names = ("ad", "mu", "st")
        measured, singles = _measurements_from_truth(truth, names, 3)
        evolver = PortMappingEvolver(
            PortSpace.numbered(3),
            measured,
            singles,
            EvolutionConfig(population_size=150, max_generations=80, seed=2),
        )
        result = evolver.run()
        assert result.davg <= 0.02

    def test_seed_reproducibility(self):
        truth = {"a": {0b01: 1}, "b": {0b10: 1}}
        names = ("a", "b")
        measured, singles = _measurements_from_truth(truth, names, 2)
        config = EvolutionConfig(population_size=30, max_generations=20, seed=7)
        ports = PortSpace.numbered(2)
        first = PortMappingEvolver(ports, measured, singles, config).run()
        second = PortMappingEvolver(ports, measured, singles, config).run()
        assert first.mapping == second.mapping
        assert first.davg == second.davg

    def test_history_objectives_never_worsen(self):
        truth = {"a": {0b01: 1}, "b": {0b11: 1}}
        names = ("a", "b")
        measured, singles = _measurements_from_truth(truth, names, 2)
        evolver = PortMappingEvolver(
            PortSpace.numbered(2),
            measured,
            singles,
            EvolutionConfig(population_size=40, max_generations=30, seed=1),
        )
        result = evolver.run()
        best = [stats.best_davg for stats in result.history]
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(best, best[1:]))

    def test_mutation_variant_runs(self):
        truth = {"a": {0b01: 1}, "b": {0b10: 1}}
        names = ("a", "b")
        measured, singles = _measurements_from_truth(truth, names, 2)
        evolver = PortMappingEvolver(
            PortSpace.numbered(2),
            measured,
            singles,
            EvolutionConfig(
                population_size=30, max_generations=15, seed=3, mutation_rate=0.2
            ),
        )
        result = evolver.run()
        assert result.davg <= 0.05

    def test_result_mapping_covers_all_instructions(self):
        truth = {"a": {0b01: 1}, "b": {0b10: 1}}
        names = ("a", "b")
        measured, singles = _measurements_from_truth(truth, names, 2)
        result = PortMappingEvolver(
            PortSpace.numbered(2),
            measured,
            singles,
            EvolutionConfig(population_size=20, max_generations=10, seed=0),
        ).run()
        assert set(result.mapping.instructions) == set(names)
        assert result.volume == result.mapping.uop_volume()


def _selection_loop(genomes, ranked, count):
    """The evolver's selection before packed dedup: one genome key per
    candidate, walked in ranked order."""
    selected, seen, duplicates = [], set(), []
    for index in ranked:
        key = genome_key(genomes[index])
        if key in seen:
            duplicates.append(int(index))
            continue
        seen.add(key)
        selected.append(int(index))
        if len(selected) == count:
            break
    if len(selected) < count:
        selected.extend(duplicates[: count - len(selected)])
    return selected


@pytest.mark.parametrize("distinct", [40, 12, 5, 1])
def test_packed_dedup_selects_like_the_genome_key_loop(distinct):
    count = 12
    rng = np.random.default_rng(distinct)
    names = ("a", "b", "c")
    singles = {"a": 1.0, "b": 2.0, "c": 3.0}
    pool = [random_genome(rng, names, 4, singles) for _ in range(distinct)]
    # Planted duplicates, half of them with their µops in reverse slot
    # order: a genome is the same whatever order its µops were added in.
    genomes = []
    for _ in range(2 * count):
        genome = pool[int(rng.integers(0, distinct))]
        if rng.random() < 0.5:
            genome = {name: dict(reversed(uops.items())) for name, uops in genome.items()}
        genomes.append(genome)
    # Parents and children are packed apart, at their own widths.
    candidates = PackedPopulation.concatenate(
        [
            PackedPopulation.from_genomes(genomes[:count], names),
            PackedPopulation.from_genomes(genomes[count:], names),
        ]
    )
    keys = candidates.row_keys()
    for _ in range(20):
        ranked = rng.permutation(len(genomes))
        selected = _select_distinct(keys, ranked, count)
        assert selected.tolist() == _selection_loop(genomes, ranked, count)
