"""Shared fixtures for the reproduction benchmarks.

Every bench regenerates one table or figure of the paper; docs/paper_map.md
indexes them.  Scales are reduced relative to the paper — the
paper benchmarks 310–390 forms for 20–74 hours and evolves populations of
100 000; we subsample forms and use laptop-scale populations so the whole
suite runs in minutes.  Set the environment variable ``REPRO_BENCH_SCALE``
(default 1.0) to grow or shrink every workload proportionally.

Results are always printed.  With ``REPRO_BENCH_RECORD=1`` (the nightly
job sets it) they are also written to ``benchmarks/results/*.txt`` as a
durable record; without it a run leaves the tracked records untouched.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from bench_lib import scaled, stratified_forms
from repro.core import ExperimentSet
from repro.machine import (
    Machine,
    MeasurementConfig,
    a72_machine,
    skl_machine,
    zen_machine,
)
from repro.pmevo import (
    EvolutionConfig,
    PMEvoConfig,
    infer_port_mapping,
    random_experiments,
)


_BENCH_DIR = Path(__file__).parent


def pytest_collection_modifyitems(items):
    """Mark everything under benchmarks/ so tiers can be selected with -m.

    The fast CI tier runs ``-m "not benchmark"``; the nightly tier runs the
    ``benchmark``-marked reproduction suite.
    """
    for item in items:
        if _BENCH_DIR in Path(item.fspath).parents:
            item.add_marker(pytest.mark.benchmark)


def _machine_factory(name: str):
    return {"SKL": skl_machine, "ZEN": zen_machine, "A72": a72_machine}[name]


@pytest.fixture(scope="session")
def machines() -> dict[str, Machine]:
    """The three Table 1 machines with realistic measurement noise."""
    return {
        name: _machine_factory(name)(measurement=MeasurementConfig(noisy=True, seed=17))
        for name in ("SKL", "ZEN", "A72")
    }


@pytest.fixture(scope="session")
def bench_forms(machines) -> dict[str, list[str]]:
    """Instruction-form subsample per machine (scaled from 310/390 forms).

    Two forms per semantic class: real ISAs carry many forms per execution
    resource, which is what makes congruence filtering effective (Table 2
    reports 53%-69% congruent) — a 1-per-class sample would misrepresent
    that structure.
    """
    limit = scaled(26, minimum=10)
    return {
        name: stratified_forms(machine, per_class=2, limit=limit)
        for name, machine in machines.items()
    }


@pytest.fixture(scope="session")
def pmevo_results(machines, bench_forms):
    """PMEvo pipeline results per machine (Figure 5 end to end).

    Session-scoped: Table 2, Tables 3/4 and Figure 7 all reuse these runs,
    exactly like the paper evaluates one inferred mapping per machine.
    """
    config = PMEvoConfig(
        epsilon=0.05,
        evolution=EvolutionConfig(
            population_size=scaled(200, minimum=40),
            max_generations=scaled(120, minimum=20),
            patience=25,
            seed=0,
        ),
    )
    return {
        name: infer_port_mapping(machine, names=bench_forms[name], config=config)
        for name, machine in machines.items()
    }


@pytest.fixture(scope="session")
def benchmark_sets(machines, bench_forms) -> dict[str, ExperimentSet]:
    """Random size-5 multiset benchmark sets, measured (Section 5.3).

    The paper uses 40 000 experiments per machine; scaled default is 250.
    """
    count = scaled(250, minimum=40)
    sets: dict[str, ExperimentSet] = {}
    for name, machine in machines.items():
        experiments = random_experiments(bench_forms[name], size=5, count=count, seed=99)
        sets[name] = machine.measure_many(experiments)
    return sets
