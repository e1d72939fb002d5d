"""Fitness computation and scalarization (Section 4.4).

PMEvo minimizes two objectives per candidate mapping ``m``:

* ``D_avg(m)`` — the average relative error of the analytical throughput
  model against the measured throughputs, and
* ``V(m)`` — the µop volume ``Σ n·|u|``, a compactness/interpretability
  proxy that breaks ties between the many mappings explaining the data.

The multi-objective problem is scalarized *a priori*: per generation, each
objective is affinely normalized so the current population's extremes map
to [0, 1000], and the fitness is the sum of the two normalized objectives
(lower is better).
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import InferenceError

__all__ = ["normalize_objective", "scalarized_fitness", "SCALE"]

#: Upper end of the normalization range Λ1/Λ2 map onto.
SCALE = 1000.0


def normalize_objective(values: np.ndarray) -> np.ndarray:
    """Affinely map ``values`` so min -> 0 and max -> ``SCALE``.

    A degenerate population (all values equal) maps to all zeros: the
    objective then cannot discriminate and should not contribute.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise InferenceError("expected a non-empty 1-D objective array")
    low = values.min()
    high = values.max()
    span = high - low
    # A subnormal span overflows SCALE/span (and 0*inf would be NaN); such
    # a population cannot be resolved any better than an exactly-collapsed
    # one, so both degenerate to zeros.
    with np.errstate(over="ignore"):
        factor = SCALE / span if span > 0.0 else np.inf
    if not np.isfinite(factor):
        return np.zeros_like(values)
    return (values - low) * factor


def scalarized_fitness(davgs: np.ndarray, volumes: np.ndarray) -> np.ndarray:
    """Per-candidate fitness ``F = Λ1(D_avg) + Λ2(V)`` (lower is better)."""
    davgs = np.asarray(davgs, dtype=np.float64)
    volumes = np.asarray(volumes, dtype=np.float64)
    if davgs.shape != volumes.shape:
        raise InferenceError("objective arrays must have matching shapes")
    return normalize_objective(davgs) + normalize_objective(volumes)
