"""Command line interface: ``repro-pmevo`` / ``python -m repro.cli``.

Subcommands (see ``docs/cli.md`` for the full reference):

* ``infer``   — run the PMEvo pipeline against a machine preset and write
  the inferred port mapping as JSON; supports island-model parallel search
  (``--islands``/``--workers``), distributed search over TCP (``--bind``),
  and checkpoint/resume (``--checkpoint``/``--resume``).
* ``worker``  — serve island epochs for an ``infer --bind`` coordinator
  (run one per core, on any machine that can reach the coordinator).
* ``serve``   — serve throughput predictions for one or more mapping files
  over an async HTTP/JSON API (``POST /v1/predict``) with a memoizing LRU
  cache and batched backend evaluation; see ``docs/serving.md``.
* ``predict`` — predict the throughput of an experiment with a mapping file.
* ``compare`` — evaluate a mapping (and the built-in baselines) on a random
  benchmark set, printing a Table 3/4-style accuracy report.
* ``show``    — pretty-print a mapping file.
* ``diff``    — compare two mapping files (behavioural + structural).
* ``export``  — emit a mapping as an LLVM/OSACA/JSON flavour.

A user mistake (a bad option value, an unreadable file, a corrupt
checkpoint) ends in one ``error: <message>`` line on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis import evaluate_predictor, format_table
from repro.baselines import LLVMMCAPredictor
from repro.core import (
    CheckpointError,
    Experiment,
    ExperimentError,
    MappingError,
    ReproError,
    ThreeLevelMapping,
    TransportError,
)
from repro.machine import MeasurementConfig, preset_machine
from repro.pmevo import (
    EvolutionConfig,
    PMEvoConfig,
    infer_port_mapping,
    random_experiments,
)
from repro.pmevo.transport import (
    DEFAULT_HEARTBEAT_INTERVAL,
    DEFAULT_HEARTBEAT_TIMEOUT,
    DEFAULT_START_TIMEOUT,
)
from repro.throughput import MappingPredictor

__all__ = ["main", "build_parser"]


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _positive_int(text: str) -> int:
    value = _nonnegative_int(text)
    if value == 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-pmevo",
        description="PMEvo reproduction: infer and evaluate port mappings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    infer = sub.add_parser(
        "infer",
        help="infer a port mapping for a machine preset",
        epilog="Island-model defaults: --islands 1 (sequential Algorithm 1), "
        "--workers 1, --migration-interval 10, --migration-size 2; "
        "--workers is capped at the island count.  Epochs run in-process "
        "unless a socket coordinator runs them: --workers > 1 forks that many "
        "`repro-pmevo worker` processes onto one, and --bind opens one that "
        "also takes `repro-pmevo worker --connect HOST:PORT` processes "
        "started by hand; the coordinator flags need one.  --checkpoint "
        "writes atomic snapshots every --checkpoint-interval epochs; "
        "--resume continues a snapshot bit-identically to an uninterrupted "
        "run.",
    )
    infer.add_argument("machine", choices=["SKL", "ZEN", "A72"], help="machine preset")
    infer.add_argument("--output", "-o", type=Path, required=True, help="mapping JSON path")
    infer.add_argument("--forms", type=int, default=40, help="number of instruction forms")
    infer.add_argument("--population", type=int, default=200, help="EA population size")
    infer.add_argument("--generations", type=int, default=120, help="EA max generations")
    infer.add_argument("--epsilon", type=float, default=0.05, help="congruence tolerance")
    infer.add_argument("--seed", type=int, default=0, help="random seed")
    infer.add_argument(
        "--islands",
        type=int,
        default=1,
        help="number of island populations (>1 enables parallel island-model search)",
    )
    infer.add_argument(
        "--workers",
        type=int,
        default=1,
        help="local worker processes evolving islands concurrently on a "
        "socket coordinator (effective only with --islands > 1; capped at "
        "the island count)",
    )
    infer.add_argument(
        "--migration-interval",
        type=int,
        default=10,
        help="generations between elite migrations around the island ring",
    )
    infer.add_argument(
        "--migration-size",
        type=int,
        default=2,
        help="elite genomes each island emigrates per migration",
    )
    infer.add_argument(
        "--bind",
        help="HOST:PORT where a socket coordinator also takes `repro-pmevo "
        "worker` processes started by hand (':PORT' means loopback; port 0 "
        "picks an ephemeral port, printed before measuring)",
    )
    infer.add_argument(
        "--min-workers",
        type=int,
        help="workers the socket coordinator waits for before the first "
        "epoch (default: its local workers, at least 1; needs a coordinator)",
    )
    infer.add_argument(
        "--heartbeat-timeout",
        type=_positive_float,
        help="seconds of silence before the coordinator declares a worker "
        f"dead and requeues its leases (default {DEFAULT_HEARTBEAT_TIMEOUT:g}; "
        "must exceed the worker heartbeat interval; needs a coordinator)",
    )
    infer.add_argument(
        "--start-timeout",
        type=_positive_float,
        help="seconds the coordinator waits for --min-workers before giving "
        f"up (default {DEFAULT_START_TIMEOUT:g}; needs a coordinator)",
    )
    infer.add_argument(
        "--checkpoint",
        type=Path,
        default=None,
        help="write an atomic evolution snapshot to this path at epoch "
        "barriers (the file always holds the latest snapshot)",
    )
    infer.add_argument(
        "--checkpoint-interval",
        type=int,
        help="epochs between checkpoint snapshots (default 1; needs --checkpoint)",
    )
    infer.add_argument(
        "--resume",
        type=Path,
        default=None,
        help="resume from a checkpoint written by --checkpoint; the run "
        "must use the same machine, seed, and island settings",
    )

    worker = sub.add_parser(
        "worker",
        help="serve island epochs for an `infer --bind` coordinator",
        epilog="Start any number of workers (one per core), on this or "
        "other machines; they may join mid-run and may die mid-epoch — "
        "the coordinator reassigns leased epochs, and results are "
        "bit-identical regardless.",
    )
    worker.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="address the coordinator printed at startup (':PORT' means loopback)",
    )
    worker.add_argument(
        "--heartbeat-interval",
        type=_positive_float,
        default=DEFAULT_HEARTBEAT_INTERVAL,
        help=f"seconds between heartbeat frames (default {DEFAULT_HEARTBEAT_INTERVAL:g})",
    )
    worker.add_argument(
        "--max-reconnect-attempts",
        type=_nonnegative_int,
        default=10,
        help="reconnect attempts (capped exponential backoff) after the "
        "coordinator connection drops or a handshake fails, before concluding "
        "it is gone (default 10; 0 disables reconnecting)",
    )
    worker.add_argument(
        "--reconnect-window",
        type=_positive_float,
        default=60.0,
        help="seconds after a connection drop during which reconnects are "
        "attempted; past this the coordinator is treated as gone and the "
        "worker exits, cleanly if it had completed a handshake (default 60)",
    )

    serve = sub.add_parser(
        "serve",
        help="serve throughput predictions over HTTP/JSON",
        epilog="Serves POST /v1/predict (batched sequence -> throughput), "
        "GET /healthz, GET /v1/stats, and POST /v1/reload over a mapping "
        "registry.  Predictions are memoized in a bounded LRU, and each "
        "request's cache misses are evaluated in one batched backend call.  "
        "SIGTERM drains in-flight requests before exiting.  See "
        "docs/serving.md for the API reference.",
    )
    serve.add_argument(
        "--mapping",
        action="append",
        required=True,
        metavar="[ID=]PATH",
        help="mapping JSON artifact to serve (repeatable; id defaults to "
        "the file stem)",
    )
    serve.add_argument(
        "--bind",
        default="127.0.0.1:8123",
        help="HOST:PORT to listen on (':0' binds loopback on an ephemeral "
        "port; the bound address is printed as 'serving on HOST:PORT')",
    )
    serve.add_argument(
        "--cache-size",
        type=_nonnegative_int,
        default=4096,
        help="LRU capacity in cached predictions (0 disables caching; "
        "default 4096)",
    )
    serve.add_argument(
        "--max-batch",
        type=_positive_int,
        default=256,
        help="maximum sequences per /v1/predict request (default 256)",
    )
    serve.add_argument(
        "--max-sequence",
        type=_positive_int,
        default=1024,
        help="maximum instructions per sequence (default 1024)",
    )
    serve.add_argument(
        "--max-body-kib",
        type=_positive_int,
        default=1024,
        help="maximum request body size in KiB (default 1024)",
    )
    serve.add_argument(
        "--idle-timeout",
        type=_positive_float,
        default=30.0,
        help="seconds a keep-alive connection may idle between requests, "
        "and seconds each request's whole head and body may take to arrive "
        "and its response to be written (default 30)",
    )
    serve.add_argument(
        "--grace",
        type=_positive_float,
        default=10.0,
        help="seconds shutdown waits for in-flight requests to drain "
        "(default 10)",
    )

    predict = sub.add_parser("predict", help="predict throughput of an experiment")
    predict.add_argument("mapping", type=Path, help="mapping JSON path")
    predict.add_argument(
        "experiment",
        nargs="+",
        help="experiment as name=count pairs, e.g. add_r64rw_r64=2",
    )

    compare = sub.add_parser("compare", help="evaluate a mapping against baselines")
    compare.add_argument("machine", choices=["SKL", "ZEN", "A72"])
    compare.add_argument("mapping", type=Path, help="mapping JSON path")
    compare.add_argument("--count", type=int, default=200, help="benchmark experiments")
    compare.add_argument("--size", type=int, default=5, help="experiment size")
    compare.add_argument("--seed", type=int, default=0)

    show = sub.add_parser("show", help="pretty-print a mapping file")
    show.add_argument("mapping", type=Path)

    diff = sub.add_parser("diff", help="compare two mapping files")
    diff.add_argument("first", type=Path)
    diff.add_argument("second", type=Path)

    export = sub.add_parser("export", help="export a mapping for downstream tools")
    export.add_argument("mapping", type=Path)
    export.add_argument(
        "--format",
        choices=["llvm", "osaca", "json"],
        default="llvm",
        help="output flavour (default: llvm scheduling-model snippet)",
    )
    return parser


def _subsample_names(machine, count: int, seed: int) -> list[str]:
    """A deterministic, class-diverse subsample of instruction forms."""
    import numpy as np

    if count < 1:
        raise ExperimentError(f"--forms must be at least 1, got {count}")
    names = list(machine.isa.names)
    if count >= len(names):
        return names
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(names), size=count, replace=False)
    return [names[i] for i in sorted(picks)]


def _make_transport(args: argparse.Namespace):
    """The socket coordinator the flags ask for, or None for in-process epochs.

    ``min(--workers, --islands)`` local workers are forked when that is above
    1.  A coordinator exists if and only if there are local workers or
    ``--bind`` is given; the coordinator flags are mistakes without one.
    """
    from repro.pmevo import SocketTransport
    from repro.pmevo.transport import parse_address

    if args.workers < 1:
        raise TransportError(f"--workers must be at least 1, got {args.workers}")
    timeout = args.heartbeat_timeout
    if timeout is not None and timeout <= DEFAULT_HEARTBEAT_INTERVAL:
        raise TransportError(
            f"--heartbeat-timeout {timeout:g} must exceed the worker heartbeat "
            f"interval (default {DEFAULT_HEARTBEAT_INTERVAL:g}s); a timeout "
            "shorter than one heartbeat period drops healthy workers"
        )
    local = min(args.workers, args.islands)
    local = local if local > 1 else 0
    tunables = {
        name: value
        for name in ("min_workers", "heartbeat_timeout", "start_timeout")
        if (value := getattr(args, name)) is not None
    }
    if args.bind is None and not local:
        if tunables:
            flag = "--" + next(iter(tunables)).replace("_", "-")
            raise TransportError(
                f"{flag} configures a socket coordinator, and this run has "
                "none: pass --bind HOST:PORT, or --workers > 1 with --islands > 1"
            )
        return None
    host, port = parse_address(args.bind or ":0")
    transport = SocketTransport(host, port, local_workers=local, **tunables)
    if args.bind is not None:
        # Print the actual (possibly ephemeral) address before measurement
        # starts, so workers can be pointed at it right away.
        address = transport.listen()
        print(f"socket transport listening on {address[0]}:{address[1]}", flush=True)
    return transport


def _cmd_infer(args: argparse.Namespace) -> int:
    from repro.pmevo import Checkpointer, load_checkpoint

    for flag, path in (("--output", args.output), ("--checkpoint", args.checkpoint)):
        if path is not None and not path.parent.is_dir():
            raise FileNotFoundError(f"{flag} {path}: directory {path.parent} does not exist")
    machine = preset_machine(args.machine, MeasurementConfig(seed=args.seed))
    names = _subsample_names(machine, args.forms, args.seed)
    config = PMEvoConfig(
        epsilon=args.epsilon,
        evolution=EvolutionConfig(
            population_size=args.population,
            max_generations=args.generations,
            seed=args.seed,
            islands=args.islands,
            migration_interval=args.migration_interval,
            migration_size=args.migration_size,
        ),
    )
    checkpointer = None
    if args.checkpoint is not None:
        interval = 1 if args.checkpoint_interval is None else args.checkpoint_interval
        checkpointer = Checkpointer(args.checkpoint, interval)
    elif args.checkpoint_interval is not None:
        raise CheckpointError("--checkpoint-interval needs --checkpoint PATH")
    resume = load_checkpoint(args.resume) if args.resume is not None else None
    transport = _make_transport(args)
    print(f"inferring port mapping for {machine.describe()}")
    print(f"instruction forms: {len(names)}")
    if args.islands > 1:
        workers = transport.local_workers if transport is not None else 1
        print(f"islands: {args.islands} x {args.population} (workers: {workers})")
    elif args.workers > 1:
        print(
            f"note: --workers {args.workers} has no effect with a single "
            "population; pass --islands > 1 for parallel search",
            file=sys.stderr,
        )
    if resume is not None:
        print(f"resuming from {args.resume} (epoch {resume.epochs})")
    try:
        result = infer_port_mapping(
            machine,
            names=names,
            config=config,
            transport=transport,
            checkpointer=checkpointer,
            resume=resume,
        )
    finally:
        # The run closes its transport, but a failure before the first
        # epoch (a refused resume, a measurement error) never reaches it.
        if transport is not None:
            transport.close()
    args.output.write_text(result.mapping.to_json())
    cluster = result.evolution.transport_stats
    if cluster:
        print(
            "cluster: {epochs} epochs, {leases} leases, {steals} steals, "
            "{requeued} requeued, {workers_dropped} workers dropped, "
            "{late_joiners} late joiners".format(**cluster)
        )
    stats = result.table2_row()
    print(format_table(["statistic", "value"], list(stats.items())))
    print(f"D_avg on training experiments: {result.evolution.davg:.4f}")
    print(f"mapping written to {args.output}")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.pmevo import run_worker
    from repro.pmevo.transport import parse_address

    host, port = parse_address(args.connect)
    print(f"worker connecting to {host}:{port}", flush=True)
    return run_worker(
        host,
        port,
        heartbeat_interval=args.heartbeat_interval,
        max_reconnect_attempts=args.max_reconnect_attempts,
        reconnect_window=args.reconnect_window,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.pmevo.transport import parse_address
    from repro.serving import MappingRegistry, PredictionServer, parse_mapping_spec

    specs = [parse_mapping_spec(spec) for spec in args.mapping]
    host, port = parse_address(args.bind)
    registry = MappingRegistry(specs)
    for mapping_id in registry.ids:
        entry = registry.get(mapping_id)
        print(
            f"mapping {mapping_id!r}: {len(entry.mapping)} instructions, "
            f"{entry.mapping.ports.num_ports} ports, "
            f"fingerprint {entry.fingerprint} ({entry.path})"
        )
    server = PredictionServer(
        registry,
        cache_size=args.cache_size,
        max_batch=args.max_batch,
        max_sequence=args.max_sequence,
        max_body_bytes=args.max_body_kib * 1024,
        idle_timeout=args.idle_timeout,
        grace=args.grace,
    )
    return asyncio.run(server.run(host, port))


def _parse_experiment(tokens: list[str]) -> Experiment:
    counts: dict[str, int] = {}
    for token in tokens:
        name, _, count_text = token.partition("=")
        try:
            count = int(count_text) if count_text else 1
        except ValueError:
            raise ExperimentError(
                f"count in {token!r} is not an integer; expected NAME[=COUNT]"
            ) from None
        counts[name] = counts.get(name, 0) + count
    return Experiment(counts)


def _cmd_predict(args: argparse.Namespace) -> int:
    mapping = ThreeLevelMapping.load(args.mapping)
    experiment = _parse_experiment(args.experiment)
    predictor = MappingPredictor(mapping, name=str(args.mapping))
    print(f"{predictor.predict(experiment):.4f}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    machine = preset_machine(args.machine, MeasurementConfig(seed=args.seed))
    mapping = ThreeLevelMapping.load(args.mapping)
    names = [n for n in mapping.instructions if n in machine.isa]
    if not names:
        raise MappingError(f"{args.mapping} covers no instruction form of {machine.name}")
    experiments = random_experiments(names, size=args.size, count=args.count, seed=args.seed)
    bench = machine.measure_many(experiments)
    predictors = [MappingPredictor(mapping, name="PMEvo"), LLVMMCAPredictor(machine)]
    rows = []
    for predictor in predictors:
        report = evaluate_predictor(predictor, bench, machine.name)
        row = report.row()
        rows.append([row["predictor"], row["MAPE"], row["Pearson CC"], row["Spearman CC"]])
    print(
        format_table(
            ["predictor", "MAPE", "Pearson CC", "Spearman CC"],
            rows,
            title=f"accuracy on {machine.name} ({args.count} experiments of size {args.size})",
        )
    )
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    mapping = ThreeLevelMapping.load(args.mapping)
    print(mapping.describe())
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.analysis import mapping_diff

    first = ThreeLevelMapping.load(args.first)
    second = ThreeLevelMapping.load(args.second)
    comparison = mapping_diff(first, second, args.first.name, args.second.name)
    print(f"behavioural distance: {comparison.behavioural_distance:.4f}")
    print(f"equivalent up to port renaming: {comparison.structurally_equivalent}")
    if comparison.permutation is not None:
        print(f"port permutation: {comparison.permutation}")
    print(comparison.diff_text)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.analysis import to_llvm_sched_model, to_osaca_table

    mapping = ThreeLevelMapping.load(args.mapping)
    if args.format == "llvm":
        print(to_llvm_sched_model(mapping), end="")
    elif args.format == "osaca":
        print(to_osaca_table(mapping), end="")
    else:
        print(mapping.to_json())
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "infer": _cmd_infer,
        "worker": _cmd_worker,
        "serve": _cmd_serve,
        "predict": _cmd_predict,
        "compare": _cmd_compare,
        "show": _cmd_show,
        "diff": _cmd_diff,
        "export": _cmd_export,
    }
    try:
        return handlers[args.command](args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
