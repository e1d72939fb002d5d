"""Ithemal-style learned throughput predictor.

Ithemal (Mendis et al. 2019) trains a neural network on basic blocks
*extracted from compiled programs*, labeled with measured throughput.  Such
blocks are full of read-after-write dependencies, so the learned model's
notion of "cycles per instruction mix" bakes in latency effects.  The paper
finds that on PMEvo's dependency-free, port-mapping-bound experiments
Ithemal's error explodes (60.6% MAPE on SKL, Table 3) — not because the
model is bad at its own task, but because the evaluation distribution is
different.

We reproduce that *methodological* effect with an honest stand-in:

* training data = random instruction sequences allocated with a tiny
  register pool, creating realistic dependency chains, measured on the same
  machine (labels are real simulated cycles);
* model = ridge regression over instruction-form counts (a linear stand-in
  for the LSTM — sufficient, since the distribution shift, not model
  capacity, drives the effect);
* evaluation happens on dependency-free experiments elsewhere in the
  harness.

The predictor never sees the machine's ground truth mapping.
"""

from __future__ import annotations

import numpy as np

from repro.codegen.loop import interleaved_forms
from repro.codegen.regalloc import AllocationConfig, RegisterAllocator
from repro.core.errors import InferenceError
from repro.core.experiment import Experiment
from repro.machine.measurement import Machine

__all__ = ["IthemalPredictor", "TrainingConfig"]


class TrainingConfig:
    """Training-set shape for the learned baseline.

    ``register_pool`` controls how dependency-heavy the training blocks
    are: fewer allocatable registers mean shorter read-after-write
    distances, i.e. more latency-bound blocks (compiled code flavour).
    """

    def __init__(
        self,
        num_blocks: int = 300,
        min_length: int = 4,
        max_length: int = 16,
        register_pool: int = 4,
        ridge_lambda: float = 1.0,
        seed: int = 0,
    ):
        if num_blocks < 10:
            raise InferenceError("need at least 10 training blocks")
        if not 1 <= min_length <= max_length:
            raise InferenceError("invalid training block length range")
        if register_pool < 2:
            raise InferenceError("register pool must be at least 2")
        self.num_blocks = num_blocks
        self.min_length = min_length
        self.max_length = max_length
        self.register_pool = register_pool
        self.ridge_lambda = ridge_lambda
        self.seed = seed


class IthemalPredictor:
    """A learned regressor trained on dependency-heavy basic blocks."""

    def __init__(self, machine: Machine, training: TrainingConfig | None = None):
        self.name = "Ithemal"
        self.machine = machine
        self.training = training or TrainingConfig()
        self._names = machine.isa.names
        self._index = {name: i for i, name in enumerate(self._names)}
        self._weights: np.ndarray | None = None
        self._train()

    # -- training ----------------------------------------------------------

    def _measure_block(self, forms) -> float:
        """Cycles/iteration for a dependency-heavy block on the machine."""
        allocation = AllocationConfig(
            num_gprs=self.training.register_pool,
            num_vecs=self.training.register_pool,
        )
        allocator = RegisterAllocator(allocation)
        body = allocator.allocate_sequence(forms)
        # Same steady-state differencing as the measurement harness.
        short, long = self.machine.processor.run(body, (4, 12))
        return (long.cycles - short.cycles) / 8.0

    def _featurize(self, counts: dict[str, int]) -> np.ndarray:
        features = np.zeros(len(self._names) + 1)
        total = 0
        for name, count in counts.items():
            column = self._index.get(name)
            if column is None:
                raise InferenceError(f"unknown instruction form {name!r}")
            features[column] = float(count)
            total += count
        features[-1] = float(total)  # block length, a strong Ithemal signal
        return features

    def _train(self) -> None:
        rng = np.random.default_rng(self.training.seed)
        rows = []
        labels = []
        pool = list(self._names)
        for _ in range(self.training.num_blocks):
            length = int(
                rng.integers(self.training.min_length, self.training.max_length + 1)
            )
            picks = rng.integers(0, len(pool), size=length)
            counts: dict[str, int] = {}
            for pick in picks.tolist():
                counts[pool[pick]] = counts.get(pool[pick], 0) + 1
            forms = interleaved_forms(self.machine.isa, Experiment(counts))
            labels.append(self._measure_block(forms))
            rows.append(self._featurize(counts))
        matrix = np.stack(rows)
        target = np.array(labels)
        # Ridge regression: (X^T X + λI) w = X^T y.
        gram = matrix.T @ matrix
        gram += self.training.ridge_lambda * np.eye(gram.shape[0])
        self._weights = np.linalg.solve(gram, matrix.T @ target)

    # -- inference -----------------------------------------------------------

    def predict(self, experiment: Experiment) -> float:
        """Predicted cycles for one iteration of the experiment."""
        if self._weights is None:  # pragma: no cover - _train runs in __init__
            raise InferenceError("predictor is not trained")
        features = self._featurize(dict(experiment.counts))
        prediction = float(features @ self._weights)
        return max(prediction, 1e-6)

    def __repr__(self) -> str:
        return f"IthemalPredictor(machine={self.machine.name!r})"
