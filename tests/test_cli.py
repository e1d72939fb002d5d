"""Tests for the command line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import _parse_experiment, build_parser, main
from repro.core import Experiment, PortSpace, ThreeLevelMapping


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_infer_args(self):
        args = build_parser().parse_args(
            ["infer", "SKL", "-o", "map.json", "--forms", "10"]
        )
        assert args.machine == "SKL"
        assert args.forms == 10

    def test_parse_experiment(self):
        assert _parse_experiment(["a=2", "b"]) == Experiment({"a": 2, "b": 1})
        assert _parse_experiment(["a", "a"]) == Experiment({"a": 2})

    def test_cluster_tunables_defaults(self):
        from repro.pmevo import SocketTransport
        from repro.pmevo.transport import (
            DEFAULT_HEARTBEAT_INTERVAL,
            DEFAULT_HEARTBEAT_TIMEOUT,
            DEFAULT_START_TIMEOUT,
        )

        # Unset coordinator flags leave the coordinator's own defaults.
        infer = build_parser().parse_args(["infer", "SKL", "-o", "m.json"])
        assert infer.bind is None
        assert infer.min_workers is None
        assert infer.heartbeat_timeout is None
        assert infer.start_timeout is None
        coordinator = SocketTransport()
        assert coordinator.min_workers == 1
        assert coordinator.heartbeat_timeout == DEFAULT_HEARTBEAT_TIMEOUT
        assert coordinator.start_timeout == DEFAULT_START_TIMEOUT
        assert SocketTransport(local_workers=3).min_workers == 3
        worker = build_parser().parse_args(["worker", "--connect", "h:1"])
        assert worker.heartbeat_interval == DEFAULT_HEARTBEAT_INTERVAL
        assert worker.max_reconnect_attempts == 10
        assert worker.reconnect_window == 60.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["infer", "SKL", "-o", "m.json", "--heartbeat-timeout", "0"],
            ["infer", "SKL", "-o", "m.json", "--heartbeat-timeout", "-3"],
            ["infer", "SKL", "-o", "m.json", "--heartbeat-timeout", "soon"],
            ["infer", "SKL", "-o", "m.json", "--start-timeout", "0"],
            ["worker", "--connect", "h:1", "--heartbeat-interval", "0"],
            ["worker", "--connect", "h:1", "--reconnect-window", "-1"],
            ["worker", "--connect", "h:1", "--max-reconnect-attempts", "-1"],
            ["worker", "--connect", "h:1", "--max-reconnect-attempts", "1.5"],
        ],
        ids=[
            "timeout-zero",
            "timeout-negative",
            "timeout-not-a-number",
            "start-timeout-zero",
            "heartbeat-zero",
            "window-negative",
            "attempts-negative",
            "attempts-fractional",
        ],
    )
    def test_invalid_cluster_tunables_exit_2(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    def test_heartbeat_timeout_must_exceed_heartbeat_interval(self, tmp_path, capsys):
        # A coordinator timeout below one worker heartbeat period would
        # reap perfectly healthy workers; infer refuses it before measuring.
        argv = ["infer", "SKL", "-o", str(tmp_path / "m.json"), "--heartbeat-timeout", "1.0"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "must exceed the worker heartbeat interval" in captured.err
        assert "inferring port mapping" not in captured.out

    def test_zero_reconnect_attempts_is_allowed(self):
        # 0 is a valid operator choice: "never reconnect, die with the
        # coordinator".
        args = build_parser().parse_args(
            ["worker", "--connect", "h:1", "--max-reconnect-attempts", "0"]
        )
        assert args.max_reconnect_attempts == 0


def test_importing_the_cli_does_not_import_scipy():
    # Only the LP oracle and the rank correlation call scipy; every command
    # starts faster and smaller when its import waits for them.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    code = (
        "import sys, repro.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"


@pytest.fixture
def mapping_file(tmp_path):
    ports = PortSpace.numbered(2)
    mapping = ThreeLevelMapping(ports, {"op_a": {0b01: 1}, "op_b": {0b11: 2}})
    path = tmp_path / "mapping.json"
    path.write_text(mapping.to_json())
    return path


class TestCommands:
    def test_show(self, mapping_file, capsys):
        assert main(["show", str(mapping_file)]) == 0
        out = capsys.readouterr().out
        assert "op_a" in out and "op_b" in out

    def test_predict(self, mapping_file, capsys):
        assert main(["predict", str(mapping_file), "op_a=2"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(2.0)  # 2 µops on one port

    def test_predict_mixture(self, mapping_file, capsys):
        assert main(["predict", str(mapping_file), "op_a", "op_b"]) == 0
        out = capsys.readouterr().out.strip()
        # op_a: 1 on {P0}; op_b: 2 on {P0,P1} -> (1+2)/2 = 1.5.
        assert float(out) == pytest.approx(1.5)

    def test_infer_small_run(self, tmp_path, capsys):
        output = tmp_path / "skl.json"
        code = main(
            [
                "infer",
                "SKL",
                "-o",
                str(output),
                "--forms",
                "8",
                "--population",
                "40",
                "--generations",
                "15",
            ]
        )
        assert code == 0
        data = json.loads(output.read_text())
        assert len(data["instructions"]) == 8
        out = capsys.readouterr().out
        assert "insns found congruent" in out

    def test_compare_with_inferred_mapping(self, tmp_path, capsys):
        output = tmp_path / "skl.json"
        main(
            ["infer", "SKL", "-o", str(output), "--forms", "8",
             "--population", "40", "--generations", "15"]
        )
        capsys.readouterr()
        code = main(["compare", "SKL", str(output), "--count", "20", "--size", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PMEvo" in out and "llvm-mca" in out

    def test_diff_identical_files(self, mapping_file, capsys):
        assert main(["diff", str(mapping_file), str(mapping_file)]) == 0
        out = capsys.readouterr().out
        assert "behavioural distance: 0.0000" in out
        assert "mappings are identical" in out

    def test_export_llvm(self, mapping_file, capsys):
        assert main(["export", str(mapping_file), "--format", "llvm"]) == 0
        out = capsys.readouterr().out
        assert "SchedMachineModel" in out
        assert "Writeop_a" in out

    def test_export_osaca(self, mapping_file, capsys):
        assert main(["export", str(mapping_file), "--format", "osaca"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("instruction,P0,P1,cycles")


BAD_MAPPING = '{"ports": ["P0"], "instructions": {"a": [{"ports": ["P0"], "count": "z"}]}}'

# A valid mapping whose µop count (10^400) does not fit in float64.
HUGE_COUNT_MAPPING = BAD_MAPPING.replace('"z"', "1" + "0" * 400)

# A valid mapping that covers no instruction form of any preset.
FOREIGN_MAPPING = '{"ports": ["P0"], "instructions": {"zzz": [{"ports": ["P0"], "count": 1}]}}'

# A mapping file whose one instruction name is Latin-1, not UTF-8.
LATIN1_MAPPING = b'{"ports": ["P0"], "instructions": {"\xe9": []}}'

# A checkpoint whose epoch count overflows int(): JSON reads 1e400 as inf.
OVERFLOW_CHECKPOINT = (
    '{"format": "repro-pmevo/checkpoint-v2", "config": {}, "problem": "", '
    '"epochs": 1e400, "migrations": 0, "states": []}'
)


class TestUserMistakes:
    """Every user mistake ends in one ``error:`` line and exit code 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["infer", "SKL", "-o", "{tmp}/m.json", "--population", "1"],
            ["infer", "SKL", "-o", "{tmp}/m.json", "--resume", "{tmp}/corrupt.json"],
            [
                "infer", "SKL", "-o", "{tmp}/m.json", "--forms", "5",
                "--population", "8", "--generations", "2",
                "--resume", "{tmp}/overflow.json",
            ],
            ["show", "{tmp}/missing.json"],
            ["infer", "SKL", "-o", "{tmp}/m.json", "--islands", "2", "--bind", "nohost"],
            ["predict", "{mapping}", "x=z"],
            ["predict", "{mapping}", "y=1"],
            ["serve", "--mapping", "{tmp}/bad.json", "--bind", "127.0.0.1:0"],
            ["serve", "--mapping", "{mapping}", "--mapping", "{mapping}", "--bind", ":0"],
            ["serve", "--mapping", "{mapping}", "--bind", "nohost"],
            ["serve", "--mapping", "{tmp}/huge.json", "--bind", ":0"],
            ["predict", "{tmp}/huge.json", "a=1"],
            ["compare", "SKL", "{tmp}/foreign.json"],
            ["show", "{tmp}/latin1.json"],
            ["serve", "--mapping", "{tmp}/latin1.json", "--bind", ":0"],
        ],
        ids=[
            "population-1",
            "resume-corrupt",
            "resume-epochs-overflow",
            "show-missing",
            "bind-without-port",
            "count-not-integer",
            "unknown-instruction",
            "serve-malformed-mapping",
            "serve-duplicate-ids",
            "serve-bad-bind",
            "serve-huge-count",
            "predict-huge-count",
            "compare-foreign-mapping",
            "show-not-utf8",
            "serve-not-utf8",
        ],
    )
    def test_one_error_line_and_exit_2(self, argv, tmp_path, mapping_file, capsys):
        (tmp_path / "corrupt.json").write_text("{not json")
        (tmp_path / "bad.json").write_text(BAD_MAPPING)
        (tmp_path / "huge.json").write_text(HUGE_COUNT_MAPPING)
        (tmp_path / "overflow.json").write_text(OVERFLOW_CHECKPOINT)
        (tmp_path / "foreign.json").write_text(FOREIGN_MAPPING)
        (tmp_path / "latin1.json").write_bytes(LATIN1_MAPPING)
        argv = [a.format(tmp=tmp_path, mapping=mapping_file) for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_serve_huge_count_error_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(HUGE_COUNT_MAPPING)
        assert main(["serve", "--mapping", str(path), "--bind", ":0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "huge.json" in err

    @pytest.mark.parametrize(
        "option",
        [
            ["--forms", "-3"],
            ["--forms", "0"],
            ["--epsilon", "-1"],
            ["--checkpoint-interval", "3"],
            # Coordinator flags need a coordinator: --bind, or local workers.
            ["--min-workers", "2"],
            ["--heartbeat-timeout", "60"],
            ["--islands", "2", "--start-timeout", "5"],
            ["--workers", "4", "--min-workers", "2"],
            ["--workers", "0"],
        ],
        ids=[
            "forms-negative",
            "forms-zero",
            "epsilon-negative",
            "checkpoint-interval-alone",
            "min-workers-alone",
            "heartbeat-timeout-alone",
            "start-timeout-alone",
            "min-workers-one-island",
            "workers-zero",
        ],
    )
    def test_bad_forms_or_epsilon_fail_before_measuring(self, option, tmp_path, capsys):
        assert main(["infer", "SKL", "-o", str(tmp_path / "m.json"), *option]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "inferring port mapping" not in captured.out

    def test_resume_under_another_config_fails_before_measuring(
        self, tmp_path, capsys, monkeypatch
    ):
        import gc
        import warnings

        from repro.machine import Machine

        args = ["infer", "SKL", "--forms", "6", "--generations", "2", "--islands", "2"]
        snapshot = tmp_path / "snap.json"
        first = [*args, "--population", "10", "-o", str(tmp_path / "a.json")]
        assert main([*first, "--checkpoint", str(snapshot)]) == 0
        capsys.readouterr()
        measured = []
        measure = Machine.measure
        monkeypatch.setattr(
            Machine, "measure", lambda self, e: measured.append(e) or measure(self, e)
        )
        # --bind opens the coordinator's listener before the refusal, which
        # must close it.
        second = [*args, "--population", "11", "-o", str(tmp_path / "b.json")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*second, "--bind", ":0", "--resume", str(snapshot)]) == 2
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "different evolution config" in err
        assert measured == []

    @pytest.mark.parametrize(
        "option",
        [
            ["-o", "{tmp}/missing/m.json"],
            ["-o", "{tmp}/m.json", "--checkpoint", "{tmp}/missing/ck.json"],
        ],
        ids=["output", "checkpoint"],
    )
    def test_missing_directory_fails_before_measuring(self, option, tmp_path, capsys):
        option = [a.format(tmp=tmp_path) for a in option]
        argv = ["infer", "SKL", *option, "--forms", "4", "--population", "8", "--generations", "2"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert str(tmp_path / "missing") in captured.err
        assert "inferring port mapping" not in captured.out
