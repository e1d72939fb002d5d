"""Tests of the benchmark itself: tiny runs through the real code path,
seeded inputs, and agreement between the printed metrics and BENCHMARK.json.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = HERE.parent, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def result_of(process: subprocess.CompletedProcess) -> dict:
    assert process.returncode == 0, process.stderr
    return json.loads(process.stdout.strip().splitlines()[-1])


def units(entries) -> dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in entries}


def test_declared_metrics_match_the_runner():
    assert units(DECLARED["end_to_end"]) == run.END_TO_END
    assert units(DECLARED["per_layer"]) == run.PER_LAYER
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_is_correct_and_prints_every_end_to_end_metric(workload):
    result = result_of(bench(workload, trace=0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units(DECLARED["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["infer-skl", "serve-zipf"])
def test_traced_run_prints_every_per_layer_metric(workload):
    result = result_of(bench(workload, trace=1))
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == units(DECLARED["per_layer"])
    if workload == "infer-skl":
        assert metrics["machine.sim_s"]["value"] > 0
        assert metrics["throughput.kernel_ms"]["value"] > 0
        assert metrics["trace.coverage_share"]["value"] >= 0.9
    else:
        assert metrics["serving.hit_share"]["value"] > 0
        assert metrics["throughput.fixed_eval_ms"]["value"] > 0
    assert (HERE / "out" / f"{workload}-seed1.trace.json").is_file()


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    process = bench("infer-skl", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert process.returncode != 0
    assert "correct" not in process.stdout


def test_serve_inputs_are_seeded():
    first, again, other = (workloads.serve_mapping(s, workloads.TINY) for s in (3, 3, 4))
    assert first == again and first != other
    names = list(first["instructions"])
    a, b, c = (workloads.serve_requests(s, names, workloads.TINY) for s in (3, 3, 4))
    assert a.fragments == b.fragments and (a.stream == b.stream).all() and a.sample == b.sample
    assert a.fragments != c.fragments
    assert a.body(0) == b.body(0)


def test_serve_mapping_has_the_presets_shape():
    from repro.core import ThreeLevelMapping

    mapping = ThreeLevelMapping.from_dict(workloads.serve_mapping(0))
    assert len(mapping) == workloads.FULL.serve_forms
    assert mapping.ports.num_ports == workloads.SERVE_PORTS
    assert all(1 <= len(mapping.uops_of(name)) <= 3 for name in mapping.instructions)
    assert len(mapping.distinct_uops()) <= workloads.SERVE_PORT_GROUPS


def test_evolve_inputs_are_seeded_and_keep_their_shape():
    first, again, other = (workloads.evolve_training_set(s) for s in (3, 3, 4))
    assert first.names == again.names
    assert first.measurements.throughputs == again.measurements.throughputs
    assert first.names != other.names
    for training in (first, other):
        assert len(training.singles) == workloads.FULL.evolve_classes
        assert len(training.measurements) == workloads.FULL.evolve_classes ** 2
        assert training.experiments_total == workloads.FULL.evolve_forms ** 2


def test_infer_inputs_are_seeded():
    assert workloads.infer_inputs(3) == workloads.infer_inputs(3)
    assert workloads.infer_inputs(3) != workloads.infer_inputs(4)
    assert len(workloads.infer_inputs(0).names) == workloads.FULL.infer_forms


def test_percentile_matches_linear_interpolation():
    assert run.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert run.percentile([5.0], 90) == 5.0
    assert run.percentile([0.0, 10.0], 90) == 9.0
