"""Shared helpers for the reproduction benchmarks (see conftest.py)."""

from __future__ import annotations

import os
from pathlib import Path

from repro.machine import Machine

RESULTS_DIR = Path(__file__).parent / "results"

#: Global workload multiplier (paper-scale would be ~100).
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled(value: int, minimum: int = 1) -> int:
    """Scale an integer workload knob by ``REPRO_BENCH_SCALE``."""
    return max(minimum, int(round(value * SCALE)))


#: Records are written only when this is set, so an ordinary test run leaves
#: the tracked files alone; the nightly benchmark job sets it.
RECORD = os.environ.get("REPRO_BENCH_RECORD") == "1"


def write_result(name: str, text: str) -> None:
    """Print a bench's table/figure text; with ``REPRO_BENCH_RECORD=1``
    also persist it under benchmarks/results/."""
    print()
    print(text)
    if RECORD:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def append_result(name: str, text: str) -> None:
    """Print a bench's record; with ``REPRO_BENCH_RECORD=1`` also append it
    under benchmarks/results/ (kept across runs, so regressions show up as
    history rather than overwrites)."""
    print()
    print(text)
    if RECORD:
        RESULTS_DIR.mkdir(exist_ok=True)
        with open(RESULTS_DIR / f"{name}.txt", "a", encoding="utf-8") as handle:
            handle.write(text + "\n")


def stratified_forms(machine: Machine, per_class: int = 1, limit: int = 24) -> list[str]:
    """A deterministic, semantically diverse subsample of instruction forms.

    Takes up to ``per_class`` forms from every semantic class (so dividers,
    stores, shuffles etc. are all represented), capped at ``limit``.
    """
    by_class: dict[str, list[str]] = {}
    for form in machine.isa:
        by_class.setdefault(form.semantic_class, []).append(form.name)
    names: list[str] = []
    for cls in sorted(by_class):
        names.extend(by_class[cls][:per_class])
    return names[:limit]
