"""Measurement-stage cost: operand allocation and the shared simulation.

The paper measures an experiment as the difference between a short and a
long run of an unrolled, register-allocated loop (Section 4.2), and its
Table 2 shows this benchmarking as the dominant cost of inference.  Here
the stage is :func:`~repro.codegen.loop.build_loop_body` (unrolling and
register allocation) followed by one :meth:`~repro.machine.processor.Processor.run`
call with both lengths, which simulates the long run once and forks the
short run off it where the short run stops dispatching.

Input: a fixed, seeded sample of SKL experiments shaped like an
``infer SKL --forms 20`` run's — the singletons of 20 forms and the pair
experiments built from their noise-free throughputs.

The bench prints codegen CPU per body, simulator CPU per measurement and
simulated instructions per CPU second (both runs' instructions, as
``Machine.simulated_instructions`` counts them).  Its bar: the shared
``(6, 16)`` call must cost at most 1/1.2 of the CPU of the two
single-length calls on the same bodies, taking the best of five passes.
Within a pass the two ways alternate body by body, and both figures come
from this process, so neither a slow host nor one that changes speed
mid-run can fail it.  With ``REPRO_BENCH_RECORD=1`` the record is
appended to ``benchmarks/results/measurement_stage.txt``.
"""

from __future__ import annotations

import time

import numpy as np

from bench_lib import append_result, scaled
from repro.codegen import build_loop_body
from repro.machine import MeasurementConfig, skl_machine
from repro.pmevo.expgen import pair_experiments, singleton_experiments

FORMS = 20
SAMPLE = 160
PASSES = 5
LENGTHS = (6, 16)
MIN_SHARED_SPEEDUP = 1.2


def _sample_experiments(machine):
    """Singletons and pairs of 20 seeded SKL forms, then a seeded sample."""
    rng = np.random.default_rng(0)
    names = list(machine.isa.names)
    names = [names[i] for i in sorted(rng.choice(len(names), size=FORMS, replace=False))]
    singletons = singleton_experiments(names)
    singles = {e.support[0]: machine.measure(e) for e in singletons}
    experiments = singletons + pair_experiments(names, singles)
    picks = rng.choice(len(experiments), size=min(scaled(SAMPLE), len(experiments)), replace=False)
    return [experiments[i] for i in sorted(picks)]


def _shared(processor, body):
    return processor.run(body, LENGTHS)


def _separate(processor, body):
    return [processor.run(body, (n,))[0] for n in LENGTHS]


def _interleaved_cpu(processor, bodies) -> dict:
    """CPU seconds of each way of simulating over all bodies, the two ways
    alternating body by body so that a drift in host speed hits both alike."""
    seconds = {_shared: 0.0, _separate: 0.0}
    for index, body in enumerate(bodies):
        for way in (_shared, _separate) if index % 2 else (_separate, _shared):
            start = time.process_time()
            way(processor, body)
            seconds[way] += time.process_time() - start
    return seconds


def test_measurement_stage():
    machine = skl_machine(measurement=MeasurementConfig(noisy=False))
    experiments = _sample_experiments(machine)
    processor = machine.processor

    codegen = float("inf")
    for _ in range(PASSES):
        start = time.process_time()
        bodies = [build_loop_body(machine.isa, e)[0] for e in experiments]
        codegen = min(codegen, time.process_time() - start)
    shared = [_shared(processor, body) for body in bodies]
    assert shared == [_separate(processor, body) for body in bodies]

    best = {_shared: float("inf"), _separate: float("inf")}
    for _ in range(PASSES):
        for way, seconds in _interleaved_cpu(processor, bodies).items():
            best[way] = min(best[way], seconds)

    count = len(experiments)
    instructions = sum(run.instructions for runs in shared for run in runs)
    speedup = best[_separate] / best[_shared]
    append_result(
        "measurement_stage",
        "\n".join(
            [
                f"measurement stage (SKL, {count} experiments, runs {LENGTHS}, "
                f"best of {PASSES} passes, process CPU)",
                f"  codegen           : {codegen / count * 1e3:7.3f} ms per body",
                f"  simulator, shared : {best[_shared] / count * 1e3:7.3f} ms per measurement, "
                f"{instructions / best[_shared] / 1e3:6.0f} kinstr/s",
                f"  simulator, 2 calls: {best[_separate] / count * 1e3:7.3f} ms per measurement, "
                f"{instructions / best[_separate] / 1e3:6.0f} kinstr/s",
                f"  shared run is {speedup:.2f}x cheaper (bar {MIN_SHARED_SPEEDUP}x)",
            ]
        ),
    )
    assert speedup >= MIN_SHARED_SPEEDUP
