"""Checkpoint/resume for island-model inference runs.

A checkpoint is one JSON document written at an epoch barrier of
:meth:`repro.pmevo.evolution.PortMappingEvolver.run` — the only moment when
all island states are simultaneously at rest.  It contains everything the run
loop carries across an epoch: the serialized
:class:`~repro.pmevo.evolution.EvolutionState` of every island (populations,
objectives, generator states), the epoch/migration counters, the
:class:`~repro.pmevo.evolution.EvolutionConfig`, and the *problem*: the
sha256 of the evolver's problem document
(:func:`~repro.pmevo.transport.problem_to_jsonable`, the socket setup
frame's) without its config, which covers the ports, the measured
experiments with their throughputs and the singleton throughputs.

Guarantees:

* **Bit-identical resume.**  Because island states carry their own numpy
  generators, a run resumed from epoch ``n`` replays epochs ``n+1..`` exactly
  as the uninterrupted run would; ``tests/test_transport_equivalence.py``
  pins resumed results to the uninterrupted ones byte-for-byte.
* **Atomic snapshots.**  :func:`write_checkpoint` writes to a temporary file
  in the target directory and ``os.replace``\\ s it over the destination, so
  a crash mid-write leaves the previous snapshot intact — readers never see
  a partial file at the checkpoint path.
* **One-deep retention.**  Before the new snapshot lands, the previous good
  one is rotated to ``<path>.prev`` (another atomic ``os.replace``), so even
  a crash *between* the rotation and the next write — or a snapshot that was
  damaged after it was written — leaves one loadable checkpoint on disk.
  :func:`load_checkpoint` falls back to ``.prev`` (with a warning) when the
  primary raises :class:`~repro.core.errors.CheckpointError`; resuming from
  an older barrier merely replays more epochs, bit-identically.
* **Loud failure.**  Truncated, non-JSON, or wrong-format files — and
  resuming against a different config or problem — raise
  :class:`repro.core.errors.CheckpointError` with a message naming the
  problem; a malformed document never raises anything else.  The ``.prev``
  fallback only softens *unreadable primary* into a warning; when both
  copies are unusable the primary's error propagates.

Island populations inside a snapshot use the packed base64 npz encoding of
:class:`~repro.pmevo.packed.PackedPopulation`, the only population encoding
the loader reads; a snapshot with per-genome JSON lists, written before that
encoding existed, fails to load with :class:`CheckpointError`.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

from repro.core.errors import CheckpointError
from repro.pmevo.evolution import (
    EvolutionConfig,
    EvolutionState,
    config_from_jsonable,
    config_to_jsonable,
)

__all__ = [
    "CHECKPOINT_FORMAT",
    "CheckpointSnapshot",
    "Checkpointer",
    "write_checkpoint",
    "load_checkpoint",
    "previous_path",
]

#: Format tag of the snapshot document; bumped on incompatible changes.
CHECKPOINT_FORMAT = "repro-pmevo/checkpoint-v2"


@dataclass
class CheckpointSnapshot:
    """Everything needed to continue an island run from an epoch barrier."""

    config: EvolutionConfig
    problem: str
    epochs: int
    migrations: int
    states: list[EvolutionState]

    def to_jsonable(self) -> dict:
        return {
            "format": CHECKPOINT_FORMAT,
            "config": config_to_jsonable(self.config),
            "problem": self.problem,
            "epochs": self.epochs,
            "migrations": self.migrations,
            "states": [state.to_jsonable() for state in self.states],
        }

    def check_config(self, config: EvolutionConfig) -> None:
        """Refuse to continue under another evolution config.

        Unlike the problem digest, which hashes the measurements, the config
        can be checked before anything is measured.
        """
        if self.config != config:
            raise CheckpointError(
                "checkpoint was written under a different evolution config; "
                "resume with the same seed/population/island settings"
            )

    @classmethod
    def from_jsonable(cls, data: dict) -> "CheckpointSnapshot":
        if not isinstance(data, dict):
            raise CheckpointError(f"checkpoint is not a JSON object: {type(data).__name__}")
        tag = data.get("format")
        if tag != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"unsupported checkpoint format {tag!r} (expected {CHECKPOINT_FORMAT!r})"
            )
        try:
            return cls(
                config=config_from_jsonable(data["config"]),
                problem=str(data["problem"]),
                epochs=int(data["epochs"]),
                migrations=int(data["migrations"]),
                states=[EvolutionState.from_jsonable(s) for s in data["states"]],
            )
        except CheckpointError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CheckpointError(f"malformed checkpoint: {exc}") from exc


def previous_path(path: Path | str) -> Path:
    """Where :func:`write_checkpoint` rotates the previous good snapshot."""
    path = Path(path)
    return path.with_name(path.name + ".prev")


def write_checkpoint(path: Path | str, snapshot: CheckpointSnapshot) -> None:
    """Atomically write ``snapshot`` to ``path`` (temp file + ``os.replace``).

    An existing snapshot at ``path`` is first rotated to
    :func:`previous_path` — also via ``os.replace`` — so every instant of the
    write sequence leaves at least one loadable snapshot on disk: before the
    rotation it is ``path``, between rotation and replace it is
    ``path.prev``, after the replace both exist.
    """
    path = Path(path)
    payload = json.dumps(snapshot.to_jsonable())
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent or Path(".")
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        if path.exists():
            os.replace(path, previous_path(path))
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _load_one(path: Path) -> CheckpointSnapshot:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"checkpoint {path} is not valid JSON (truncated or corrupted?): {exc}"
        ) from exc
    return CheckpointSnapshot.from_jsonable(data)


def load_checkpoint(path: Path | str) -> CheckpointSnapshot:
    """Load a snapshot, raising :class:`CheckpointError` on any defect.

    An unreadable/corrupt/missing primary falls back to the rotated
    ``.prev`` snapshot with a warning — resuming one barrier earlier replays
    the missing epochs bit-identically.  When the fallback is also unusable,
    the *primary's* error propagates.
    """
    path = Path(path)
    try:
        return _load_one(path)
    except CheckpointError as exc:
        prev = previous_path(path)
        if not prev.exists():
            raise
        try:
            snapshot = _load_one(prev)
        except CheckpointError:
            raise exc from None
        warnings.warn(
            f"checkpoint {path} is unusable ({exc}); "
            f"falling back to the previous snapshot {prev}",
            stacklevel=2,
        )
        return snapshot


class Checkpointer:
    """Writes a snapshot every ``interval`` epochs (at the epoch barrier).

    Passed to :meth:`repro.pmevo.evolution.PortMappingEvolver.run`; the
    evolver calls :meth:`after_epoch` once per completed epoch.  The file at
    ``path`` always holds the most recent snapshot and ``<path>.prev`` the
    one before it, so a coordinator killed at *any* instant — including
    mid-rotation — leaves a loadable snapshot for ``infer --resume``.
    """

    def __init__(self, path: Path | str, interval: int = 1):
        if interval < 1:
            raise CheckpointError("checkpoint interval must be at least 1")
        self.path = Path(path)
        self.interval = interval
        self.saves = 0

    def after_epoch(self, snapshot: CheckpointSnapshot) -> bool:
        """Persist ``snapshot`` if its epoch count hits the interval."""
        if snapshot.epochs % self.interval != 0:
            return False
        write_checkpoint(self.path, snapshot)
        self.saves += 1
        return True
