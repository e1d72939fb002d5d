"""Planted-ground-truth inference problems for the test suites.

The evolution, island, transport, and checkpoint suites all search for a
*known* mapping; they need the (measured experiments, singleton
throughputs) pair that mapping would produce.  This one module builds it,
so measurement semantics stay in one place.
"""

from __future__ import annotations

from repro.core.experiment import Experiment, ExperimentSet
from repro.throughput.batched import BatchedThroughputEvaluator

__all__ = ["measurements_from_truth"]


def measurements_from_truth(truth, names, num_ports, extra_pairs=()):
    """Measured singleton + pair experiments of a planted genome.

    Returns ``(ExperimentSet, singleton_throughputs)`` — exactly what a
    :class:`~repro.pmevo.evolution.PortMappingEvolver` takes — with every
    throughput computed from ``truth`` by the batched evaluator, so a
    perfect search can reach ``D_avg = 0``.
    """
    experiments = [Experiment({n: 1}) for n in names]
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            experiments.append(Experiment({a: 1, b: 1}))
    experiments.extend(Experiment(dict(p)) for p in extra_pairs)
    probe = BatchedThroughputEvaluator(experiments, names, num_ports)
    measured = ExperimentSet()
    for experiment, value in zip(experiments, probe.throughputs(truth)):
        measured.add(experiment, float(value))
    singles = {n: measured.singleton_throughput(n) for n in names}
    return measured, singles
