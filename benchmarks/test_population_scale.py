"""Population scale: what an island of many genomes costs in one process.

The paper evolves populations of 100,000 genomes (Section 4.4), which the
original reaches only with a C++ core (Section 4.5).  This bench records,
on the fitness-kernel bench's a72 problem (7 ports, 16 forms, 214
experiments), at ``scaled(4096)`` genomes (``REPRO_BENCH_SCALE=25`` gives
about 100,000):

* the init CPU: sampling and evaluating the initial population;
* the CPU per generation, over two generations;
* the peak RSS of the process.

Each size runs in a child process of its own, so that ``ru_maxrss`` is that
size's alone.  The child runs with glibc's mmap threshold fixed at its
initial 128 KiB (``MALLOC_MMAP_THRESHOLD_``, unless the caller set it):
under the dynamic threshold, a freed population-sized temporary raises it
and later frees stay resident, so the peak follows the order of frees more
than the program's memory.  The bench asserts no timing.  It checks only that the best
genome's ``D_avg`` is Equation 1, recomputed by the literal
``bottleneck_throughput_reference``.  With ``REPRO_BENCH_RECORD=1`` the
record is appended to ``benchmarks/results/population_scale.txt``.

Run one size by hand with ``PYTHONPATH=src:benchmarks python
benchmarks/test_population_scale.py SIZE``: it prints the child's JSON.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bench_lib import a72_problem, append_result, scaled
from repro.core import PortSpace, ThreeLevelMapping
from repro.pmevo import EvolutionConfig, PortMappingEvolver
from repro.pmevo.population import genome_to_jsonable
from repro.throughput import bottleneck_throughput_reference

GENERATIONS = 2
SIZES = (scaled(4096),)
#: glibc's initial mmap threshold; setting it turns the dynamic one off.
MMAP_THRESHOLD = "131072"

_HERE = Path(__file__).resolve().parent


def _child(size: int) -> dict:
    """One evolver at ``size`` genomes: its costs and its best genome."""
    num_ports, measured, singles = a72_problem()
    config = EvolutionConfig(
        population_size=size,
        max_generations=GENERATIONS,
        patience=GENERATIONS,
        seed=0,
    )
    evolver = PortMappingEvolver(PortSpace.numbered(num_ports), measured, singles, config)
    start = time.process_time()
    state = evolver.init_state()
    init_cpu = time.process_time() - start
    start = time.process_time()
    evolver.advance(state, GENERATIONS)
    generation_cpu = (time.process_time() - start) / max(1, state.generation)
    best = state.best_index()
    return {
        "size": size,
        "generations": state.generation,
        "init_cpu_s": init_cpu,
        "generation_cpu_s": generation_cpu,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "davg": float(state.davgs[best]),
        "genome": genome_to_jsonable(state.population.take([best]).to_genomes()[0]),
    }


def _child_env() -> dict[str, str]:
    paths = [str(_HERE.parent / "src"), str(_HERE), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    env.setdefault("MALLOC_MMAP_THRESHOLD_", MMAP_THRESHOLD)
    return env


def _run_child(size: int, env: dict[str, str]) -> dict:
    process = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), str(size)],
        capture_output=True, text=True, env=env, timeout=3600,
    )
    assert process.returncode == 0, process.stderr
    return json.loads(process.stdout)


def _equation_1_davg(genome, measured, num_ports: int) -> float:
    """``D_avg`` by the literal Equation 1, independent of the kernel."""
    mapping = ThreeLevelMapping(PortSpace.numbered(num_ports), genome)
    errors = [
        abs(bottleneck_throughput_reference(mapping.uop_masses(e), num_ports) - t) / t
        for e, t in zip(measured.experiments, measured.throughputs)
    ]
    return sum(errors) / len(errors)


def test_population_scale_record():
    num_ports, measured, _ = a72_problem()
    env = _child_env()
    lines = [
        f"population-scale (a72: {num_ports} ports, {len(measured)} experiments, "
        f"{GENERATIONS} generations, one process per size, "
        f"MALLOC_MMAP_THRESHOLD_={env['MALLOC_MMAP_THRESHOLD_']})"
    ]
    for size in SIZES:
        record = _run_child(size, env)
        genome = {
            name: {int(mask): mult for mask, mult in uops.items()}
            for name, uops in record["genome"].items()
        }
        expected = _equation_1_davg(genome, measured, num_ports)
        assert record["davg"] == pytest.approx(expected, rel=1e-12)
        lines.append(
            f"  pop={size}: init {record['init_cpu_s']:.2f} CPU-s, "
            f"{record['generation_cpu_s']:.3f} CPU-s/generation, "
            f"peak RSS {record['peak_rss_mib']:.1f} MiB, best D_avg {record['davg']:.4f}"
        )
    append_result("population_scale", "\n".join(lines))


if __name__ == "__main__":
    print(json.dumps(_child(int(sys.argv[1]))))
