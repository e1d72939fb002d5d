"""Command line interface: ``repro-pmevo`` / ``python -m repro.cli``.

Subcommands (see ``docs/cli.md`` for the full reference):

* ``infer``   — run the PMEvo pipeline against a machine preset and write
  the inferred port mapping as JSON; supports island-model parallel search
  (``--islands``/``--workers``), distributed search over TCP
  (``--transport socket``), and checkpoint/resume
  (``--checkpoint``/``--resume``).
* ``worker``  — serve island epochs for a ``--transport socket`` coordinator
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
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis import evaluate_predictor, format_table
from repro.baselines import LLVMMCAPredictor
from repro.core import Experiment, ExperimentSet, ThreeLevelMapping
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
        "--workers is capped at the island count.  --transport auto picks "
        "serial for one worker and a multiprocessing pool otherwise; "
        "--transport socket distributes epochs to `repro-pmevo worker "
        "--connect HOST:PORT` processes.  --checkpoint writes atomic "
        "snapshots every --checkpoint-interval epochs; --resume continues "
        "a snapshot bit-identically to an uninterrupted run.",
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
        help="worker processes evolving islands concurrently "
        "(effective only with --islands > 1; capped at the island count)",
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
        "--transport",
        choices=["auto", "serial", "pool", "socket"],
        default="auto",
        help="where island epochs run (default auto: serial for one worker, "
        "a multiprocessing pool otherwise; socket distributes to "
        "`repro-pmevo worker` processes)",
    )
    infer.add_argument(
        "--bind",
        default="127.0.0.1:0",
        help="HOST:PORT the socket coordinator listens on (port 0 picks an "
        "ephemeral port, printed at startup; only with --transport socket)",
    )
    infer.add_argument(
        "--min-workers",
        type=int,
        default=1,
        help="workers the socket coordinator waits for before the first "
        "epoch (only with --transport socket)",
    )
    infer.add_argument(
        "--heartbeat-timeout",
        type=_positive_float,
        default=DEFAULT_HEARTBEAT_TIMEOUT,
        help="seconds of silence before the coordinator declares a worker "
        f"dead and requeues its leases (default {DEFAULT_HEARTBEAT_TIMEOUT:g}; "
        "must exceed the worker heartbeat interval; only with "
        "--transport socket)",
    )
    infer.add_argument(
        "--start-timeout",
        type=_positive_float,
        default=DEFAULT_START_TIMEOUT,
        help="seconds the coordinator waits for --min-workers before giving "
        f"up (default {DEFAULT_START_TIMEOUT:g}; only with --transport socket)",
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
        default=1,
        help="epochs between checkpoint snapshots (default 1)",
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
        help="serve island epochs for a --transport socket coordinator",
        epilog="Start any number of workers (one per core), on this or "
        "other machines; they may join mid-run and may die mid-epoch — "
        "the coordinator reassigns leased epochs, and results are "
        "bit-identical regardless.",
    )
    worker.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="address the coordinator printed at startup",
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
        "coordinator connection drops before concluding it is gone "
        "(default 10; 0 disables reconnecting)",
    )
    worker.add_argument(
        "--reconnect-window",
        type=_positive_float,
        default=60.0,
        help="seconds after a connection drop during which reconnects are "
        "attempted; past this the coordinator is treated as gone and the "
        "worker exits cleanly (default 60)",
    )

    serve = sub.add_parser(
        "serve",
        help="serve throughput predictions over HTTP/JSON",
        epilog="Serves POST /v1/predict (batched sequence -> throughput), "
        "GET /healthz, GET /v1/stats, and POST /v1/reload over a mapping "
        "registry.  Predictions are memoized in a bounded LRU and concurrent "
        "cache misses are coalesced into single batched backend calls.  "
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
        help="seconds a keep-alive connection may idle between requests "
        "(default 30)",
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

    names = list(machine.isa.names)
    if count >= len(names):
        return names
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(names), size=count, replace=False)
    return [names[i] for i in sorted(picks)]


def _make_transport(args: argparse.Namespace):
    """Build the transport selected by ``--transport`` (None for auto)."""
    from repro.pmevo import PoolTransport, SerialTransport, SocketTransport
    from repro.pmevo.transport import parse_address

    if args.transport == "auto":
        return None
    if args.transport == "serial":
        return SerialTransport()
    if args.transport == "pool":
        return PoolTransport(min(args.workers, args.islands))
    host, port = parse_address(args.bind)
    transport = SocketTransport(
        host,
        port,
        min_workers=args.min_workers,
        heartbeat_timeout=args.heartbeat_timeout,
        start_timeout=args.start_timeout,
    )
    # Print the actual (possibly ephemeral) address before measurement
    # starts, so workers can be pointed at it right away.
    address = transport.listen()
    print(f"socket transport listening on {address[0]}:{address[1]}", flush=True)
    return transport


def _cmd_infer(args: argparse.Namespace) -> int:
    from repro.pmevo import Checkpointer, load_checkpoint

    machine = preset_machine(args.machine, MeasurementConfig(seed=args.seed))
    names = _subsample_names(machine, args.forms, args.seed)
    config = PMEvoConfig(
        epsilon=args.epsilon,
        evolution=EvolutionConfig(
            population_size=args.population,
            max_generations=args.generations,
            seed=args.seed,
            islands=args.islands,
            workers=args.workers,
            migration_interval=args.migration_interval,
            migration_size=args.migration_size,
        ),
    )
    transport = _make_transport(args)
    checkpointer = (
        Checkpointer(args.checkpoint, args.checkpoint_interval)
        if args.checkpoint is not None
        else None
    )
    resume = load_checkpoint(args.resume) if args.resume is not None else None
    print(f"inferring port mapping for {machine.describe()}")
    print(f"instruction forms: {len(names)}")
    if args.islands > 1:
        effective_workers = min(args.workers, args.islands)
        print(
            f"islands: {args.islands} x {args.population} "
            f"(workers: {effective_workers})"
        )
    elif args.workers > 1 and args.transport != "socket":
        print(
            f"note: --workers {args.workers} has no effect with a single "
            "population; pass --islands > 1 for parallel search",
            file=sys.stderr,
        )
    if resume is not None:
        print(f"resuming from {args.resume} (epoch {resume.epochs})")
    result = infer_port_mapping(
        machine,
        names=names,
        config=config,
        transport=transport,
        checkpointer=checkpointer,
        resume=resume,
    )
    args.output.write_text(result.mapping.to_json())
    cluster = getattr(result.evolution, "transport_stats", None)
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

    from repro.serving import MappingRegistry, PredictionServer, parse_bind, parse_mapping_spec

    from repro.core.errors import ServingError

    specs = [parse_mapping_spec(spec) for spec in args.mapping]
    host, port = parse_bind(args.bind)
    try:
        registry = MappingRegistry(specs)
    except ServingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
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
        counts[name] = counts.get(name, 0) + (int(count_text) if count_text else 1)
    return Experiment(counts)


def _cmd_predict(args: argparse.Namespace) -> int:
    mapping = ThreeLevelMapping.from_json(args.mapping.read_text())
    experiment = _parse_experiment(args.experiment)
    predictor = MappingPredictor(mapping, name=str(args.mapping))
    print(f"{predictor.predict(experiment):.4f}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    machine = preset_machine(args.machine, MeasurementConfig(seed=args.seed))
    mapping = ThreeLevelMapping.from_json(args.mapping.read_text())
    names = [n for n in mapping.instructions if n in machine.isa]
    if not names:
        print("mapping covers no instructions of this machine's ISA", file=sys.stderr)
        return 1
    experiments = random_experiments(names, size=args.size, count=args.count, seed=args.seed)
    bench = ExperimentSet()
    for experiment in experiments:
        bench.add(experiment, machine.measure(experiment))
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
    mapping = ThreeLevelMapping.from_json(args.mapping.read_text())
    print(mapping.describe())
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.analysis import mapping_diff

    first = ThreeLevelMapping.from_json(args.first.read_text())
    second = ThreeLevelMapping.from_json(args.second.read_text())
    comparison = mapping_diff(first, second, args.first.name, args.second.name)
    print(f"behavioural distance: {comparison.behavioural_distance:.4f}")
    print(f"equivalent up to port renaming: {comparison.structurally_equivalent}")
    if comparison.permutation is not None:
        print(f"port permutation: {comparison.permutation}")
    print(comparison.diff_text)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.analysis import to_llvm_sched_model, to_osaca_table

    mapping = ThreeLevelMapping.from_json(args.mapping.read_text())
    if args.format == "llvm":
        print(to_llvm_sched_model(mapping), end="")
    elif args.format == "osaca":
        print(to_osaca_table(mapping), end="")
    else:
        print(mapping.to_json())
    return 0


def _validate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Cross-field checks that argparse types cannot express alone."""
    if args.command == "infer" and args.heartbeat_timeout <= DEFAULT_HEARTBEAT_INTERVAL:
        parser.error(
            f"--heartbeat-timeout {args.heartbeat_timeout:g} must exceed the "
            f"worker heartbeat interval (default {DEFAULT_HEARTBEAT_INTERVAL:g}s); "
            "a timeout shorter than one heartbeat period drops healthy workers"
        )
    if args.command == "serve":
        from repro.core.errors import ServingError
        from repro.serving import parse_bind, parse_mapping_spec

        try:
            specs = [parse_mapping_spec(spec) for spec in args.mapping]
            parse_bind(args.bind)
        except ServingError as exc:
            parser.error(str(exc))
        seen: set[str] = set()
        for mapping_id, _ in specs:
            if mapping_id in seen:
                parser.error(
                    f"duplicate mapping id {mapping_id!r}; disambiguate with "
                    "--mapping ID=PATH"
                )
            seen.add(mapping_id)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
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
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
