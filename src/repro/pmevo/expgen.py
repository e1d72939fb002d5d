"""Experiment generation (Section 4.1).

From an ISA (a set of instruction forms), PMEvo generates three families of
experiments:

1. a singleton ``{i -> 1}`` per form, measuring the individual throughput,
2. a pair ``{iA -> 1, iB -> 1}`` per unordered pair of forms,
3. a *saturating* pair ``{iA -> 1, iB -> n}`` with ``n = ceil(t*(iA)/t*(iB))``
   for pairs where ``t*(iA) > t*(iB)`` — enough copies of the faster
   instruction to keep its ports busy for the whole duration of the slower
   one, which separates "shared ports" from "disjoint ports".

Family 3 needs measured singleton throughputs, so generation is two-phase:
:func:`singleton_experiments` first, then :func:`pair_experiments` given the
measurements.  Longer experiments (more than two distinct forms) are
supported via :func:`random_experiments` for the experiment-design ablation;
the paper found they do not improve mapping quality (Section 4.1).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro.core.errors import ExperimentError
from repro.core.experiment import Experiment

__all__ = [
    "singleton_experiments",
    "pair_experiments",
    "random_experiments",
]


def singleton_experiments(names: Iterable[str]) -> list[Experiment]:
    """Family 1: one ``{i -> 1}`` experiment per instruction form."""
    return [Experiment.singleton(name) for name in names]


def pair_experiments(
    names: Sequence[str],
    singleton_throughputs: Mapping[str, float],
) -> list[Experiment]:
    """Families 2 and 3 for all unordered pairs of ``names``.

    ``singleton_throughputs`` must contain the measured individual
    throughput of every name.  Saturating pairs that would coincide with
    the plain pair (``n == 1``) are not duplicated.
    """
    for name in names:
        if name not in singleton_throughputs:
            raise ExperimentError(f"missing singleton throughput for {name!r}")

    experiments: list[Experiment] = []
    seen: set[Experiment] = set()

    def emit(experiment: Experiment) -> None:
        if experiment not in seen:
            seen.add(experiment)
            experiments.append(experiment)

    for i, name_a in enumerate(names):
        for name_b in names[i + 1 :]:
            emit(Experiment({name_a: 1, name_b: 1}))
            t_a = singleton_throughputs[name_a]
            t_b = singleton_throughputs[name_b]
            if t_a > t_b:
                slow, fast, ratio = name_a, name_b, t_a / t_b
            elif t_b > t_a:
                slow, fast, ratio = name_b, name_a, t_b / t_a
            else:
                continue
            n = math.ceil(ratio - 1e-9)
            if n > 1:
                emit(Experiment({slow: 1, fast: n}))
    return experiments


def random_experiments(
    names: Sequence[str],
    size: int,
    count: int,
    seed: int = 0,
) -> list[Experiment]:
    """``count`` random instruction multisets of total size ``size``.

    Used for the benchmark sets of Section 5.3 (random multisets of size 5)
    and for the experiment-design ablation.  Sampling is uniform over
    multisets of instruction instances, like the paper's "sampled uniformly
    at random from the set of all instruction multi-sets of size 5".
    """
    if size <= 0:
        raise ExperimentError(f"experiment size must be positive, got {size}")
    if count <= 0:
        raise ExperimentError(f"experiment count must be positive, got {count}")
    rng = np.random.default_rng(seed)
    pool = list(names)
    if not pool:
        raise ExperimentError("need at least one instruction form")
    experiments = []
    for _ in range(count):
        picks = rng.integers(0, len(pool), size=size)
        experiments.append(Experiment.from_sequence(pool[i] for i in picks))
    return experiments
