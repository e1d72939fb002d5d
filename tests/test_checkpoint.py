"""Checkpoint serialization, atomicity, and failure semantics."""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planted_truth import measurements_from_truth as _measurements_from_truth
from repro.core import CheckpointError, ExperimentSet, PortSpace
from repro.pmevo import (
    CheckpointSnapshot,
    Checkpointer,
    EvolutionConfig,
    EvolutionState,
    PackedPopulation,
    PortMappingEvolver,
    load_checkpoint,
    previous_path,
    write_checkpoint,
)


def _problem():
    truth = {"a": {0b01: 1}, "b": {0b10: 1}}
    names = ("a", "b")
    return _measurements_from_truth(truth, names, 2)


def _evolver(config=None):
    measured, singles = _problem()
    config = config or EvolutionConfig(population_size=12, max_generations=20, seed=3)
    return PortMappingEvolver(PortSpace.numbered(2), measured, singles, config)


ISLAND_CONFIG = EvolutionConfig(
    population_size=12,
    max_generations=12,
    seed=5,
    islands=2,
    migration_interval=3,
    migration_size=1,
)


class TestStateRoundTrip:
    def test_roundtrip_preserves_future_trajectory(self):
        # The serialized state must continue exactly like the original —
        # including the numpy generator — which is the property checkpoint
        # bit-identity rests on.
        evolver = _evolver()
        state = evolver.init_state()
        evolver.advance(state, 3)
        restored = EvolutionState.from_jsonable(json.loads(json.dumps(state.to_jsonable())))
        assert restored.to_jsonable() == state.to_jsonable()
        evolver.advance(state, 4)
        evolver.advance(restored, 4)
        assert restored.to_jsonable() == state.to_jsonable()
        assert np.array_equal(restored.davgs, state.davgs)
        assert restored.history == state.history

    def test_rng_draws_identical_after_roundtrip(self):
        evolver = _evolver()
        state = evolver.init_state()
        restored = EvolutionState.from_jsonable(json.loads(json.dumps(state.to_jsonable())))
        assert np.array_equal(
            state.rng.integers(0, 1 << 30, 32), restored.rng.integers(0, 1 << 30, 32)
        )

    def test_malformed_state_raises(self):
        with pytest.raises(CheckpointError, match="malformed evolution state"):
            EvolutionState.from_jsonable({"population": []})

    def test_unknown_bit_generator_raises(self):
        evolver = _evolver()
        payload = evolver.init_state().to_jsonable()
        payload["rng"]["bit_generator"] = "NoSuchGenerator"
        with pytest.raises(CheckpointError, match="bit generator"):
            EvolutionState.from_jsonable(payload)


def _documents() -> dict[str, dict]:
    """A valid state payload and a valid snapshot document holding it."""
    evolver = _evolver(ISLAND_CONFIG)
    state = evolver.advance(evolver.init_state(), 2)
    snapshot = CheckpointSnapshot(
        config=ISLAND_CONFIG,
        problem="0" * 64,
        epochs=1,
        migrations=0,
        states=[state],
    )
    return {"state": state.to_jsonable(), "snapshot": snapshot.to_jsonable()}


def _paths(node, prefix=()):
    """Every key path into a JSON document, the empty path included."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, (*prefix, key))


DOCUMENTS = _documents()
LOADERS = {
    "state": EvolutionState.from_jsonable,
    "snapshot": CheckpointSnapshot.from_jsonable,
}
FIELDS = [(kind, path) for kind, doc in DOCUMENTS.items() for path in _paths(doc)]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=12,
)


# The empty path swaps in a whole JSON value; any other path swaps one field
# of a valid document, at any depth.  The examples are the integer fields
# that once let int(1e400)'s OverflowError escape.
@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FIELDS), JSON_VALUES)
@example(("state", ("generation",)), 1e400)
@example(("state", ("evaluations",)), 1e400)
@example(("state", ("stale",)), 1e400)
@example(("snapshot", ("epochs",)), 1e400)
@example(("snapshot", ("migrations",)), 1e400)
def test_any_json_in_any_field_loads_or_raises_checkpoint_error(field, value):
    kind, path = field
    document = copy.deepcopy(DOCUMENTS[kind])
    if path:
        node = document
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    else:
        document = value
    try:
        LOADERS[kind](json.loads(json.dumps(document)))
    except CheckpointError:
        pass


def _pad_slot(masks, mults):
    """The arrays with one more, unused, slot per row."""
    pad = ((0, 0), (0, 0), (0, 1))
    return np.pad(masks, pad), np.pad(mults, pad)


def _gap_before_a_used_slot(masks, mults):
    masks, mults = _pad_slot(*_pad_slot(masks, mults))
    masks[0, 0, -1], mults[0, 0, -1] = 0b10, 1
    return masks, mults


def _repeated_mask(masks, mults):
    masks, mults = _pad_slot(masks, mults)
    used = int(np.count_nonzero(masks[0, 0]))
    masks[0, 0, used], mults[0, 0, used] = masks[0, 0, 0], 1
    return masks, mults


def _used_slot_without_multiplicity(masks, mults):
    mults = mults.copy()
    mults[0, 0, 0] = 0
    return masks, mults


def _instruction_without_uops(masks, mults):
    masks, mults = masks.copy(), mults.copy()
    masks[0, 0], mults[0, 0] = 0, 0
    return masks, mults


def _signed_multiplicities(masks, mults):
    return masks, mults.astype(np.int64)


# A loaded population goes straight into the hot loop, so the loader checks
# every PackedPopulation invariant instead of repairing rows.
@pytest.mark.parametrize(
    "edit",
    [
        _gap_before_a_used_slot,
        _repeated_mask,
        _used_slot_without_multiplicity,
        _instruction_without_uops,
        _signed_multiplicities,
    ],
)
def test_population_breaking_packed_invariants_raises_checkpoint_error(edit):
    document = copy.deepcopy(DOCUMENTS["state"])
    population = PackedPopulation.from_npz_base64(document["population"]["data"])
    masks, mults = edit(population.masks, population.mults)
    document["population"]["data"] = PackedPopulation(
        population.names, masks, mults
    ).to_npz_base64()
    with pytest.raises(CheckpointError, match="malformed packed population"):
        EvolutionState.from_jsonable(document)


class TestCheckpointFiles:
    def _snapshot(self):
        evolver = _evolver(ISLAND_CONFIG)
        states = [evolver.init_state(np.random.default_rng(k)) for k in range(2)]
        return CheckpointSnapshot(
            config=ISLAND_CONFIG,
            problem="0" * 64,
            epochs=1,
            migrations=2,
            states=states,
        )

    def test_write_load_roundtrip(self, tmp_path):
        path = tmp_path / "snap.json"
        snapshot = self._snapshot()
        write_checkpoint(path, snapshot)
        loaded = load_checkpoint(path)
        assert loaded.config == snapshot.config
        assert loaded.problem == snapshot.problem
        assert loaded.epochs == 1 and loaded.migrations == 2
        assert [s.to_jsonable() for s in loaded.states] == [
            s.to_jsonable() for s in snapshot.states
        ]

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "snap.json"
        write_checkpoint(path, self._snapshot())
        write_checkpoint(path, self._snapshot())  # overwrite is atomic too
        # Overwriting rotates the displaced snapshot to `.prev`; no tmp
        # files or deeper history may remain.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "snap.json",
            "snap.json.prev",
        ]

    def test_overwrite_rotates_previous_snapshot(self, tmp_path):
        path = tmp_path / "snap.json"
        first = self._snapshot()
        write_checkpoint(path, first)
        second = self._snapshot()
        second.epochs = 2
        write_checkpoint(path, second)
        assert load_checkpoint(path).epochs == 2
        assert load_checkpoint(previous_path(path)).epochs == first.epochs

    def test_first_write_leaves_no_prev(self, tmp_path):
        path = tmp_path / "snap.json"
        write_checkpoint(path, self._snapshot())
        assert not previous_path(path).exists()

    def test_load_falls_back_to_prev_with_warning(self, tmp_path):
        path = tmp_path / "snap.json"
        write_checkpoint(path, self._snapshot())
        write_checkpoint(path, self._snapshot())
        path.write_text("definitely not json")  # the latest snapshot is toast
        with pytest.warns(UserWarning, match="falling back to the previous"):
            loaded = load_checkpoint(path)
        assert loaded.epochs == 1

    def test_fallback_reports_primary_error_when_prev_also_bad(self, tmp_path):
        path = tmp_path / "snap.json"
        write_checkpoint(path, self._snapshot())
        write_checkpoint(path, self._snapshot())
        path.write_text("definitely not json")
        previous_path(path).write_text("also not json")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            load_checkpoint(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read checkpoint"):
            load_checkpoint(tmp_path / "nope.json")

    def test_corrupted_file_raises(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text("definitely not json")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            load_checkpoint(path)

    def test_partial_file_raises(self, tmp_path):
        # Simulate a snapshot torn mid-write (the atomic writer prevents
        # this at the real path, but a copied/truncated file must still
        # fail loudly, not resume from garbage).
        path = tmp_path / "snap.json"
        write_checkpoint(path, self._snapshot())
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CheckpointError, match="not valid JSON"):
            load_checkpoint(path)

    def test_wrong_format_tag_raises(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text(json.dumps({"format": "something/else"}))
        with pytest.raises(CheckpointError, match="unsupported checkpoint format"):
            load_checkpoint(path)
        path.write_text(json.dumps({"no": "format"}))
        with pytest.raises(CheckpointError, match="unsupported checkpoint format"):
            load_checkpoint(path)

    def test_missing_states_raises(self, tmp_path):
        path = tmp_path / "snap.json"
        payload = self._snapshot().to_jsonable()
        del payload["states"]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="malformed checkpoint"):
            load_checkpoint(path)

    def test_checkpointer_interval(self, tmp_path):
        path = tmp_path / "snap.json"
        checkpointer = Checkpointer(path, interval=2)
        snapshot = self._snapshot()
        snapshot.epochs = 1
        assert not checkpointer.after_epoch(snapshot)
        snapshot.epochs = 2
        assert checkpointer.after_epoch(snapshot)
        assert checkpointer.saves == 1
        assert load_checkpoint(path).epochs == 2

    def test_bad_interval_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="interval"):
            Checkpointer(tmp_path / "snap.json", interval=0)


class TestResumeValidation:
    def _checkpoint_from_run(self, tmp_path):
        path = tmp_path / "snap.json"
        _evolver(ISLAND_CONFIG).run(checkpointer=Checkpointer(path))
        return load_checkpoint(path)

    def test_config_mismatch_raises(self, tmp_path):
        snapshot = self._checkpoint_from_run(tmp_path)
        other = _evolver(
            EvolutionConfig(
                population_size=12,
                max_generations=12,
                seed=6,  # different seed
                islands=2,
                migration_interval=3,
                migration_size=1,
            )
        )
        with pytest.raises(CheckpointError, match="different evolution config"):
            other.run(resume=snapshot)

    @pytest.mark.parametrize(
        "key, value",
        [("batch_chunk", 16), ("convergence_tolerance", 1e-9), ("workers", 8)],
        ids=["batch_chunk", "convergence_tolerance", "workers"],
    )
    def test_config_with_retired_key_resumes_identically(self, tmp_path, key, value):
        # Snapshots written while the fitness chunk size, the convergence
        # tolerance or the worker count was a config field carry that key;
        # resuming ignores it.
        import dataclasses

        class StopAfterFirst(Checkpointer):
            def after_epoch(self, snapshot):
                super().after_epoch(snapshot)
                raise KeyboardInterrupt

        path = tmp_path / "snap.json"
        with pytest.raises(KeyboardInterrupt):
            _evolver(ISLAND_CONFIG).run(checkpointer=StopAfterFirst(path))
        document = json.loads(path.read_text())
        document["config"][key] = value
        path.write_text(json.dumps(document))
        snapshot = load_checkpoint(path)
        assert snapshot.epochs == 1

        def normalized(result):
            return dataclasses.replace(result, wall_seconds=0.0).to_json()

        resumed = _evolver(ISLAND_CONFIG).run(resume=snapshot)
        baseline = _evolver(ISLAND_CONFIG).run()
        assert normalized(resumed) == normalized(baseline)

    def test_problem_mismatch_raises(self, tmp_path):
        snapshot = self._checkpoint_from_run(tmp_path)
        truth = {"x": {0b01: 1}, "y": {0b10: 1}, "z": {0b11: 1}}
        measured, singles = _measurements_from_truth(truth, ("x", "y", "z"), 2)
        other = PortMappingEvolver(
            PortSpace.numbered(2), measured, singles, ISLAND_CONFIG
        )
        with pytest.raises(CheckpointError, match="different instruction universe"):
            other.run(resume=snapshot)

    def test_measurement_mismatch_raises(self, tmp_path):
        # Same instructions, ports and config, every throughput tripled: a
        # resume would continue a search over measurements it never saw.
        snapshot = self._checkpoint_from_run(tmp_path)
        measured, singles = _problem()
        tripled = ExperimentSet()
        for item in measured:
            tripled.add(item.experiment, 3 * item.throughput)
        other = PortMappingEvolver(
            PortSpace.numbered(2),
            tripled,
            {name: 3 * value for name, value in singles.items()},
            ISLAND_CONFIG,
        )
        with pytest.raises(CheckpointError, match="measurements"):
            other.run(resume=snapshot)


class TestCheckpointCLI:
    def test_infer_checkpoint_then_resume_is_identical(self, tmp_path, capsys):
        from repro.cli import main

        args = [
            "infer",
            "SKL",
            "--forms",
            "5",
            "--population",
            "12",
            "--generations",
            "6",
            "--islands",
            "2",
            "--migration-interval",
            "3",
            "--seed",
            "0",
        ]
        first = tmp_path / "first.json"
        snapshot = tmp_path / "snap.json"
        assert main([*args, "-o", str(first), "--checkpoint", str(snapshot)]) == 0
        assert snapshot.exists()

        # Resuming from the last snapshot replays the tail of the run and
        # must land on the identical mapping.
        resumed = tmp_path / "resumed.json"
        assert (
            main([*args, "-o", str(resumed), "--resume", str(snapshot)]) == 0
        )
        assert "resuming from" in capsys.readouterr().out
        assert resumed.read_text() == first.read_text()

    def test_resume_with_wrong_settings_fails_loudly(self, tmp_path, capsys):
        from repro.cli import main

        snapshot = tmp_path / "snap.json"
        base = [
            "infer",
            "SKL",
            "--forms",
            "5",
            "--population",
            "12",
            "--generations",
            "6",
            "--islands",
            "2",
            "--seed",
            "0",
        ]
        assert main([*base, "-o", str(tmp_path / "a.json"), "--checkpoint", str(snapshot)]) == 0
        capsys.readouterr()
        assert (
            main(
                [
                    "infer",
                    "SKL",
                    "--forms",
                    "5",
                    "--population",
                    "12",
                    "--generations",
                    "6",
                    "--islands",
                    "2",
                    "--seed",
                    "1",  # different seed
                    "-o",
                    str(tmp_path / "b.json"),
                    "--resume",
                    str(snapshot),
                ]
            )
            == 2
        )
        error = capsys.readouterr().err
        assert error.startswith("error: ") and "different evolution config" in error
