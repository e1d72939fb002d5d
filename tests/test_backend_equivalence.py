"""Cross-backend equivalence of the three throughput models.

The evolutionary search is only as trustworthy as the fast path it runs on:
the batched numpy evaluator must agree with the bottleneck simulation
algorithm, and both must agree with the reference LP of Definition 3, or a
speedup would silently change inferred mappings.  This suite pins that
invariant on randomized mappings and experiment sets: all backends must
agree on t* within 1e-9.
"""

from __future__ import annotations

import numpy as np
import pytest

from reference_operators import random_genome
from repro.core import Experiment, PortSpace, ThreeLevelMapping
from repro.machine import preset_machine
from repro.pmevo import PackedPopulation, random_experiments
from repro.throughput import BatchedThroughputEvaluator, FixedMappingEvaluator
from repro.throughput.bottleneck import (
    bottleneck_throughput,
    bottleneck_throughput_dense,
    bottleneck_throughput_reference,
)
from repro.throughput.lp import lp_throughput, lp_throughput_masses

TOLERANCE = 1e-9


def _random_instance(seed: int):
    """A random (ports, genome, experiments) triple with bounded size."""
    rng = np.random.default_rng(seed)
    num_ports = int(rng.integers(2, 5))
    names = tuple(f"op{i}" for i in range(int(rng.integers(2, 6))))
    singles = {name: float(rng.uniform(0.5, 3.0)) for name in names}
    genome = random_genome(rng, names, num_ports, singles)
    experiments = []
    for _ in range(8):
        size = min(int(rng.integers(1, 4)), len(names))
        support = rng.choice(len(names), size=size, replace=False)
        counts = {names[int(i)]: int(rng.integers(1, 5)) for i in support}
        experiments.append(Experiment(counts))
    return num_ports, names, genome, experiments


@pytest.mark.parametrize("seed", range(20))
def test_all_backends_agree_on_random_instances(seed):
    num_ports, names, genome, experiments = _random_instance(seed)
    ports = PortSpace.numbered(num_ports)
    mapping = ThreeLevelMapping(ports, genome)
    batched = BatchedThroughputEvaluator(experiments, names, num_ports)
    fast = batched.throughputs(genome)

    for experiment, from_batched in zip(experiments, fast):
        masses = mapping.uop_masses(experiment)
        reference = bottleneck_throughput_reference(masses, num_ports)
        dense = bottleneck_throughput_dense(masses, num_ports)
        dispatched = bottleneck_throughput(masses, num_ports)
        lp = lp_throughput_masses(masses, num_ports)
        context = f"seed={seed} experiment={dict(experiment)}"
        assert from_batched == pytest.approx(reference, abs=TOLERANCE), context
        assert dense == pytest.approx(reference, abs=TOLERANCE), context
        assert dispatched == pytest.approx(reference, abs=TOLERANCE), context
        assert lp == pytest.approx(reference, abs=TOLERANCE), context


def test_lp_convenience_wrapper_matches_batched(paper_three_level, paper_experiment):
    """The paper's Example 2 instance through every entry point."""
    names = tuple(paper_three_level.instructions)
    batched = BatchedThroughputEvaluator(
        [paper_experiment], names, paper_three_level.ports.num_ports
    )
    genome = {name: dict(uops) for name, uops in paper_three_level.items()}
    from_batched = float(batched.throughputs(genome)[0])
    from_lp = lp_throughput(paper_three_level, paper_experiment)
    assert from_batched == pytest.approx(from_lp, abs=TOLERANCE)
    assert from_batched == pytest.approx(2.5, abs=TOLERANCE)


@pytest.mark.parametrize("seed", range(10))
def test_packed_kernel_agrees_with_all_backends(seed):
    """The population-scale packed kernel is another backend of the same
    model: for a packed population its per-genome throughputs must agree
    with the per-genome dict path (bit-identically, by construction) and
    with the reference bottleneck algorithm within 1e-9."""
    num_ports, names, _, experiments = _random_instance(seed)
    rng = np.random.default_rng(seed + 1000)
    singles = {name: float(rng.uniform(0.5, 3.0)) for name in names}
    genomes = [random_genome(rng, names, num_ports, singles) for _ in range(7)]
    ports = PortSpace.numbered(num_ports)
    batched = BatchedThroughputEvaluator(experiments, names, num_ports)

    packed = PackedPopulation.from_genomes(genomes, names)
    from_packed = batched.throughputs_from_packed(packed)
    legacy = np.stack([batched.throughputs(genome) for genome in genomes])
    assert np.array_equal(from_packed, legacy)

    for p, genome in enumerate(genomes):
        mapping = ThreeLevelMapping(ports, genome)
        for e, experiment in enumerate(experiments):
            masses = mapping.uop_masses(experiment)
            reference = bottleneck_throughput_reference(masses, num_ports)
            context = f"seed={seed} genome={p} experiment={dict(experiment)}"
            assert from_packed[p, e] == pytest.approx(
                reference, abs=TOLERANCE
            ), context


@pytest.mark.parametrize("machine", ["SKL", "ZEN", "A72"])
def test_scaling_an_experiment_scales_every_backend(machine):
    """Metamorphic: ``e.scaled(k)`` multiplies every µop mass by ``k``, so
    every backend must predict one float for it, and that float is
    ``k · t(e)`` up to rounding.  Not bit for bit: the backends compute
    ``k·W / |Q|`` in one rounding, while ``k · t(e)`` rounds ``W / |Q|``
    first, and the two differ in the last bit for some experiments."""
    truth = preset_machine(machine).ground_truth_mapping()
    names = truth.instructions
    num_ports = truth.ports.num_ports
    experiments = random_experiments(names, size=5, count=200, seed=5)
    fixed = FixedMappingEvaluator(truth)
    base = fixed.throughputs(experiments)
    for k in (2, 3, 7):
        scaled = [experiment.scaled(k) for experiment in experiments]
        predicted = fixed.throughputs(scaled)
        batched = BatchedThroughputEvaluator(scaled, names, num_ports)
        assert np.array_equal(batched.throughputs(truth), predicted)
        for experiment, value in zip(scaled, predicted.tolist()):
            masses = truth.uop_masses(experiment)
            assert bottleneck_throughput(masses, num_ports) == value
            assert bottleneck_throughput_reference(masses, num_ports) == value
        np.testing.assert_allclose(predicted, k * base, rtol=1e-15, atol=0)


@pytest.mark.parametrize("seed", [3, 11])
def test_agreement_survives_fractional_masses(seed):
    """Congruence scaling produces non-integer masses; backends still agree."""
    rng = np.random.default_rng(seed)
    num_ports = 3
    masses = {
        int(mask): float(rng.uniform(0.1, 4.0))
        for mask in rng.choice(range(1, 1 << num_ports), size=4, replace=False)
    }
    reference = bottleneck_throughput_reference(masses, num_ports)
    assert bottleneck_throughput_dense(masses, num_ports) == pytest.approx(
        reference, abs=TOLERANCE
    )
    assert bottleneck_throughput(masses, num_ports) == pytest.approx(
        reference, abs=TOLERANCE
    )
    assert lp_throughput_masses(masses, num_ports) == pytest.approx(
        reference, abs=TOLERANCE
    )
