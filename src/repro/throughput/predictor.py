"""Throughput predictor interface.

Everything that can predict a throughput (cycles per steady-state iteration)
for an experiment — inferred port mappings, ground-truth oracles, the
IACA/llvm-mca/Ithemal-style baselines — implements :class:`ThroughputPredictor`
so the evaluation harness (Tables 3/4, Figures 6/7) can treat them uniformly.

:class:`MappingPredictor` answers from its mapping's union-closure table, built
once in a :class:`~repro.throughput.batched.FixedMappingEvaluator`; the
uops.info and llvm-mca baselines are subclasses that only choose the mapping.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Protocol, runtime_checkable

import numpy as np

from repro.core.experiment import Experiment
from repro.core.mapping import ThreeLevelMapping, TwoLevelMapping
from repro.throughput.batched import FixedMappingEvaluator

__all__ = ["ThroughputPredictor", "MappingPredictor", "predict_many"]


@runtime_checkable
class ThroughputPredictor(Protocol):
    """Anything that maps an experiment to a predicted throughput."""

    name: str

    def predict(self, experiment: Experiment) -> float:
        """Predicted throughput in cycles per experiment iteration."""
        ...


def predict_many(
    predictor: ThroughputPredictor, experiments: Iterable[Experiment]
) -> np.ndarray:
    """Vector of predictions for a sequence of experiments."""
    return np.array([predictor.predict(e) for e in experiments], dtype=np.float64)


class MappingPredictor:
    """Predicts throughput from a port mapping via the analytical model.

    Parameters
    ----------
    mapping:
        A two- or three-level port mapping (a two-level one is lifted with
        :meth:`~repro.core.mapping.TwoLevelMapping.to_three_level`).
    name:
        Display name used in reports (defaults to ``"mapping"``).
    backend:
        Only ``"bottleneck"`` is accepted; anything else raises
        :class:`ValueError`.

    :meth:`predict` raises :class:`~repro.core.errors.ExperimentError` for
    an instruction the mapping does not cover.
    """

    def __init__(
        self,
        mapping: TwoLevelMapping | ThreeLevelMapping,
        name: str = "mapping",
        backend: str = "bottleneck",
    ):
        if backend != "bottleneck":
            raise ValueError(f"unknown backend {backend!r}")
        self.mapping = mapping
        self.name = name
        if isinstance(mapping, TwoLevelMapping):
            mapping = mapping.to_three_level()
        self._evaluator = FixedMappingEvaluator(mapping)

    def predict(self, experiment: Experiment) -> float:
        return self._evaluator.throughput(experiment)

    def __repr__(self) -> str:
        return f"MappingPredictor({self.name!r})"
