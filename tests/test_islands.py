"""Tests for the island-model parallel evolution subsystem."""

import numpy as np
import pytest

from planted_truth import measurements_from_truth as _measurements_from_truth
from repro.core import InferenceError, PortSpace
from repro.pmevo import (
    EvolutionConfig,
    EvolutionResult,
    PackedPopulation,
    PortMappingEvolver,
    SocketTransport,
    derive_island_rngs,
    migrate_ring,
)
from repro.pmevo.population import genome_key


def _island_evolver(config):
    truth = {"ad": {0b011: 1}, "mu": {0b100: 2}, "st": {0b011: 1, 0b100: 1}}
    names = ("ad", "mu", "st")
    measured, singles = _measurements_from_truth(truth, names, 3)
    return PortMappingEvolver(PortSpace.numbered(3), measured, singles, config)


class TestConfigKnobs:
    def test_defaults_are_single_population(self):
        config = EvolutionConfig()
        assert config.islands == 1

    def test_bad_islands(self):
        with pytest.raises(InferenceError):
            EvolutionConfig(islands=0)

    def test_bad_migration_interval(self):
        with pytest.raises(InferenceError):
            EvolutionConfig(migration_interval=0)

    def test_migration_size_must_fit_population(self):
        with pytest.raises(InferenceError):
            EvolutionConfig(population_size=10, migration_size=10, islands=2)

    def test_single_island_ignores_migration_bound(self):
        # The island knobs are inert at islands=1: a tiny population must
        # stay valid whatever the migration defaults are.
        assert EvolutionConfig(population_size=2).migration_size == 2

    def test_negative_migration_size_rejected(self):
        with pytest.raises(InferenceError):
            EvolutionConfig(migration_size=-1)


class TestSeedDerivation:
    def test_same_root_seed_same_streams(self):
        first = derive_island_rngs(42, 3)
        second = derive_island_rngs(42, 3)
        for a, b in zip(first, second):
            assert np.array_equal(a.integers(0, 1 << 30, 16), b.integers(0, 1 << 30, 16))

    def test_islands_get_distinct_streams(self):
        rngs = derive_island_rngs(42, 3)
        draws = [tuple(rng.integers(0, 1 << 30, 16)) for rng in rngs]
        assert len(set(draws)) == 3


def _genomes(state):
    return state.population.to_genomes()


def _elite(state):
    return _genomes(state)[int(np.lexsort((state.volumes, state.davgs))[0])]


class TestMigration:
    def _state(self, evolver, rng_seed):
        return evolver.init_state(np.random.default_rng(rng_seed))

    def test_ring_moves_elites_to_successor(self):
        config = EvolutionConfig(population_size=12, max_generations=5)
        evolver = _island_evolver(config)
        states = [self._state(evolver, k) for k in range(3)]
        elites = [genome_key(_elite(s)) for s in states]
        moved = migrate_ring(states, migration_size=1)
        assert moved == 3
        for source in range(3):
            target = states[(source + 1) % 3]
            keys = {genome_key(g) for g in _genomes(target)}
            assert elites[source] in keys

    def test_migration_keeps_objectives_consistent(self):
        config = EvolutionConfig(population_size=10, max_generations=5)
        evolver = _island_evolver(config)
        states = [self._state(evolver, k) for k in range(2)]
        migrate_ring(states, migration_size=2)
        for state in states:
            davgs, _ = evolver._evaluate(state.population)
            assert np.allclose(davgs, state.davgs)

    def test_zero_migration_size_is_noop(self):
        config = EvolutionConfig(population_size=10, max_generations=5)
        evolver = _island_evolver(config)
        states = [self._state(evolver, k) for k in range(2)]
        before = [[genome_key(g) for g in _genomes(s)] for s in states]
        assert migrate_ring(states, migration_size=0) == 0
        after = [[genome_key(g) for g in _genomes(s)] for s in states]
        assert before == after

    def test_rows_move_between_islands_of_different_slot_widths(self):
        config = EvolutionConfig(population_size=10, max_generations=5)
        evolver = _island_evolver(config)
        states = [self._state(evolver, k) for k in range(2)]
        # Island 0 holds a seven-µop row with a multiplicity past uint8, so
        # its arrays are wider than island 1's in both axes; make it the
        # elite so it emigrates.
        wide = _genomes(states[0])
        wide[0]["st"] = {mask: 1 for mask in range(1, 8)}
        wide[0]["st"][0b100] = 300
        states[0].population = PackedPopulation.from_genomes(wide, evolver.names)
        states[0].davgs, states[0].volumes = evolver._evaluate(states[0].population)
        states[0].davgs[0] = -1.0
        assert states[0].population.max_uops == 7
        assert states[1].population.max_uops < 7
        emigrant = wide[0]
        island_1 = _genomes(states[1])
        worst = int(np.lexsort((states[1].volumes, states[1].davgs))[-1])

        migrate_ring(states, migration_size=1)
        received = _genomes(states[1])
        assert list(received[worst]["st"].items()) == list(emigrant["st"].items())
        assert received[:worst] + received[worst + 1 :] == (
            island_1[:worst] + island_1[worst + 1 :]
        )
        for state in states:
            # Rows stay in from_genomes normal form, whatever moved in or out.
            fresh = PackedPopulation.from_genomes(_genomes(state), evolver.names)
            assert state.population.mults.dtype == fresh.mults.dtype
            assert np.array_equal(state.population.masks, fresh.masks)
            assert np.array_equal(state.population.mults, fresh.mults)
        assert states[1].population.mults.dtype == np.uint16
        # Island 0 got island 1's elite in place of its worst (the wide row
        # is its elite), so it keeps its width.
        assert states[0].population.max_uops == 7


class TestDeterminism:
    @staticmethod
    def _run(workers):
        config = EvolutionConfig(
            population_size=24,
            max_generations=30,
            seed=11,
            islands=4,
            migration_interval=5,
            migration_size=2,
        )
        transport = SocketTransport(local_workers=workers) if workers > 1 else None
        return _island_evolver(config).run(transport=transport)

    def test_worker_count_does_not_change_results(self):
        serial = self._run(workers=1)
        parallel = self._run(workers=4)
        assert genome_key(serial.genome) == genome_key(parallel.genome)
        assert serial.mapping == parallel.mapping
        assert serial.davg == parallel.davg
        assert serial.volume == parallel.volume
        assert serial.generations == parallel.generations
        assert serial.evaluations == parallel.evaluations
        assert serial.migrations == parallel.migrations
        assert serial.best_island == parallel.best_island
        assert serial.history == parallel.history
        assert serial.island_histories == parallel.island_histories
        assert serial.island_davgs == parallel.island_davgs

    def test_rerun_is_bit_identical(self):
        first = self._run(workers=2)
        second = self._run(workers=2)
        assert genome_key(first.genome) == genome_key(second.genome)
        assert first.history == second.history


class TestIslandRun:
    def test_result_metadata(self):
        config = EvolutionConfig(
            population_size=20,
            max_generations=20,
            seed=5,
            islands=3,
            migration_interval=4,
            migration_size=1,
        )
        result = _island_evolver(config).run()
        assert isinstance(result, EvolutionResult)
        assert result.islands == 3
        assert len(result.island_histories) == 3
        assert len(result.island_davgs) == 3
        assert result.epochs >= 1
        assert result.history == result.island_histories[result.best_island]
        assert result.evaluations == sum(
            history[-1].evaluations for history in result.island_histories
        )
        # The reported D_avg is the local-searched champion; it can only be
        # at least as good as the champion island's raw best.
        assert result.davg <= min(result.island_davgs) + 1e-12

    def test_single_island_matches_sequential_search_quality(self):
        # islands=1 never migrates and uses the sequential evolver's own
        # default_rng(seed) stream (see derive_island_rngs); it must still
        # find the planted truth.
        config = EvolutionConfig(
            population_size=60, max_generations=60, seed=0, islands=1
        )
        result = _island_evolver(config).run()
        assert result.migrations == 0
        assert result.davg <= 0.02

    def test_recovers_truth_with_parallel_islands(self):
        config = EvolutionConfig(
            population_size=40,
            max_generations=60,
            seed=1,
            islands=4,
            migration_interval=5,
            migration_size=2,
        )
        result = _island_evolver(config).run(transport=SocketTransport(local_workers=2))
        assert result.davg <= 0.02


class TestPipelineIntegration:
    def test_pipeline_switches_to_islands(self, quiet_toy_machine):
        from repro.pmevo import PMEvoConfig, infer_port_mapping

        config = PMEvoConfig(
            evolution=EvolutionConfig(
                population_size=30,
                max_generations=25,
                seed=0,
                islands=2,
                migration_interval=5,
                migration_size=1,
            )
        )
        result = infer_port_mapping(quiet_toy_machine, config=config)
        assert isinstance(result.evolution, EvolutionResult)
        assert result.evolution.islands == 2
        assert result.evolution.davg <= 0.1

    @pytest.mark.parametrize(
        "extra", [[], ["--bind", "127.0.0.1:0"]], ids=["forked", "forked-and-bind"]
    )
    def test_cli_exposes_island_flags(self, tmp_path, capsys, extra):
        # --workers 2 forks two local workers onto a socket coordinator;
        # --bind makes that coordinator take hand-started workers too.
        import multiprocessing

        from repro.cli import main

        argv = [
            "infer", "SKL", "--forms", "8", "--population", "24", "--generations", "10",
            "--islands", "2", "--migration-interval", "3",
        ]
        serial = tmp_path / "serial.json"
        assert main([*argv, "-o", str(serial), "--workers", "1"]) == 0
        capsys.readouterr()
        output = tmp_path / "mapping.json"
        assert main([*argv, "-o", str(output), "--workers", "2", *extra]) == 0
        out = capsys.readouterr().out
        assert "islands: 2 x 24 (workers: 2)" in out
        assert "\ncluster: " in out
        assert ("socket transport listening on 127.0.0.1:" in out) == bool(extra)
        assert output.read_bytes() == serial.read_bytes()
        assert multiprocessing.active_children() == []


class TestSteppingPrimitives:
    def test_advance_respects_generation_budget(self):
        truth = {"a": {0b01: 1}, "b": {0b10: 1}}
        names = ("a", "b")
        measured, singles = _measurements_from_truth(truth, names, 2)
        evolver = PortMappingEvolver(
            PortSpace.numbered(2),
            measured,
            singles,
            EvolutionConfig(population_size=16, max_generations=50, seed=3),
        )
        state = evolver.init_state()
        evolver.advance(state, 4)
        assert state.generation <= 4
        resumed = evolver.advance(state, 4)
        assert resumed is state
        assert state.generation <= 8

    def test_run_equals_init_advance_finalize(self):
        truth = {"a": {0b01: 1}, "b": {0b10: 1}}
        names = ("a", "b")
        measured, singles = _measurements_from_truth(truth, names, 2)
        config = EvolutionConfig(population_size=20, max_generations=15, seed=9)
        ports = PortSpace.numbered(2)
        whole = PortMappingEvolver(ports, measured, singles, config).run()
        stepped_evolver = PortMappingEvolver(ports, measured, singles, config)
        state = stepped_evolver.init_state()
        while not state.stopped and state.generation < config.max_generations:
            stepped_evolver.advance(state, 3)
        stepped = stepped_evolver.finalize(state)
        assert whole.mapping == stepped.mapping
        assert whole.davg == stepped.davg
        assert whole.history == stepped.history
