"""perfbench: the end-to-end benchmark of the PMEvo reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Workloads (``perfbench/README.md`` says why each was chosen):

* ``infer-skl``  - one op is ``infer_port_mapping`` on a fresh noisy SKL machine;
* ``evolve-a72`` - one op is a ``PortMappingEvolver`` run on labelled A72 data;
* ``serve-zipf`` - one op is a ``POST /v1/predict`` to ``repro-pmevo serve``.

The program runs in processes of its own (``host.py``), started several
times per run so that set-up is a median over cold starts.  Times that
decide a run are CPU times of those processes: on a shared virtual machine
the hypervisor steals CPU for minutes at a time, which moves wall-clock
times by up to 50% but leaves CPU time alone.  Wall-clock figures are
printed beside them for people.

The last line of standard output is one JSON object::

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing.  With ``--trace 1`` the run spends half its time untraced and half
with span wrappers installed, and the metrics are the per-layer ones plus
the tracing overhead; the spans are written to ``perfbench/out/`` as a
Chrome trace that Perfetto opens.  Lines before the last start with ``#``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: A run that has not finished by then is stopped, under the 180 s limit.
WALL_LIMIT_S = 170
#: One BLAS thread in the program.  Idle BLAS workers spin, and on two CPUs
#: the spinning is billed as CPU time that varies from run to run; with one
#: thread the program's CPU time is its work (and an evolve op is no slower).
PROGRAM_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "op_cpu_ms": "ms",
}

PER_LAYER = {
    "machine.measure_s": "s",
    "machine.sim_s": "s",
    "machine.sim_kinstr_per_s": "kinstr/s",
    "machine.experiments": "count",
    "codegen.loop_body_s": "s",
    "pmevo.congruence_s": "s",
    "pmevo.evolution_s": "s",
    "pmevo.recombine_ms": "ms",
    "pmevo.dedup_ms": "ms",
    "pmevo.pack_ms": "ms",
    "pmevo.localsearch_ms": "ms",
    "pmevo.distinct_child_share": "1",
    "pmevo.davg": "1",
    "throughput.kernel_ms": "ms",
    "throughput.kernel_genomes_per_s": "1/s",
    "throughput.kernel_gflop": "GFLOP",
    "throughput.kernel_mb": "MB",
    "throughput.fixed_eval_ms": "ms",
    "serving.hit_share": "1",
    "serving.coalesced_share": "1",
    "serving.eval_rows": "count",
    "serving.server_p50_ms": "ms",
    "serving.parse_ms": "ms",
    "serving.cache_us": "us",
    "serving.wait_ms": "ms",
    "trace.overhead_share": "1",
    "trace.coverage_share": "1",
}


class BenchError(RuntimeError):
    """The benchmark could not run to the end."""


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median_of(records: list[dict], key: str) -> float:
    return statistics.median(record[key] for record in records)


def process_cpu_s(pid: int) -> float:
    """CPU seconds the live threads of a process have run, to the nanosecond.

    The first field of ``/proc/PID/task/TID/schedstat`` is a thread's time
    on a CPU; like ``time.process_time`` it excludes time stolen by the
    hypervisor.
    """
    total = 0
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            total += int((task / "schedstat").read_text().split()[0])
        except FileNotFoundError:  # the thread ended meanwhile
            pass
    return total / 1e9


class Processes:
    """Every child process of a run; all are stopped and reaped on exit."""

    def __init__(self) -> None:
        self.running: list[subprocess.Popen] = []

    def start(self, argv: list[str]) -> subprocess.Popen:
        process = subprocess.Popen(
            [sys.executable, *argv],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, **PROGRAM_ENV},
        )
        self.running.append(process)
        return process

    def finish(self, process: subprocess.Popen, timeout: float = 60.0) -> str:
        """Wait for a process to exit; returns the rest of its output."""
        out, _ = process.communicate(timeout=timeout)
        self.running.remove(process)
        if process.returncode != 0:
            raise BenchError(f"{process.args[1:3]} exited with code {process.returncode}")
        return out

    def __enter__(self) -> "Processes":
        return self

    def __exit__(self, *exc_info) -> None:
        for process in self.running:
            process.kill()
        for process in self.running:
            process.wait()
        self.running.clear()


def wait_for_line(process: subprocess.Popen, prefix: str) -> str:
    for line in process.stdout:
        if line.startswith(prefix):
            return line
    raise BenchError(f"{process.args[1:3]} exited before printing {prefix!r}")


def rounded(values: list[float]) -> list[float]:
    return [round(value, 3) for value in values]


def spread(values: list[float]) -> str:
    return f"median {statistics.median(values):.3f} (min {min(values):.3f}, max {max(values):.3f})"


# -- infer-skl and evolve-a72 ------------------------------------------------


def kernel_cost(record: dict) -> tuple[float, float]:
    """(flops, bytes) of the packed fitness kernel for one op, from array shapes.

    Per genome and experiment the product does 2·I·2^P flops, the zeta
    transform P·2^(P-1) adds, the divide and the max 2^P each.  Bytes count
    three passes over each genome's [I, 2^P] µop matrix and, over its
    [E, 2^P] masses, one write by the product, 1.5 per zeta step, 2 for the
    divide and 1 for the max.
    """
    genomes, experiments = record["evaluations"], record["experiments"]
    instructions, ports = record["instructions"], record["ports"]
    size = 1 << ports
    flops = genomes * experiments * (2 * instructions * size + ports * size / 2 + 2 * size)
    moved = 8 * genomes * (3 * instructions * size + experiments * size * (4 + 1.5 * ports))
    return flops, moved


def host_layers(record: dict, op: dict) -> dict[str, float]:
    """Per-layer metrics of one traced infer-skl or evolve-a72 op."""
    layers = op["layers"]

    def total(name: str) -> float:
        return layers.get(name, {}).get("total", 0.0)

    def calls(name: str) -> int:
        return layers.get(name, {}).get("calls", 0)

    generations = max(record["generations"], 1)
    sim_s = total("machine.sim")
    kernel_s = total("throughput.kernel")
    flops, moved = kernel_cost(record)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(
        {
            "machine.measure_s": total("machine.measure"),
            "machine.sim_s": sim_s,
            "machine.sim_kinstr_per_s": record["sim_instructions"] / sim_s / 1e3 if sim_s else 0.0,
            "machine.experiments": calls("machine.measure"),
            "codegen.loop_body_s": total("codegen.loop_body"),
            "pmevo.congruence_s": total("pmevo.congruence"),
            "pmevo.evolution_s": total("pmevo.evolution"),
            "pmevo.recombine_ms": total("pmevo.recombine") / generations * 1e3,
            "pmevo.dedup_ms": total("pmevo.dedup") / generations * 1e3,
            "pmevo.pack_ms": total("pmevo.pack") / generations * 1e3,
            "pmevo.localsearch_ms": total("pmevo.localsearch") * 1e3,
            "pmevo.distinct_child_share": record["distinct_child_share"],
            "pmevo.davg": record["davg"],
            "throughput.kernel_ms": kernel_s / calls("throughput.kernel") * 1e3 if kernel_s else 0.0,
            "throughput.kernel_genomes_per_s": record["evaluations"] / kernel_s if kernel_s else 0.0,
            "throughput.kernel_gflop": flops / 1e9,
            "throughput.kernel_mb": moved / 1e6,
            "trace.coverage_share": 1.0 - layers[op["root"]]["self"] / op["wall"],
        }
    )
    return metrics


def layer_table(ops: list[dict]) -> list[str]:
    """Median self time per layer over traced ops, as a share of op wall time."""
    wall = statistics.median(op["wall"] for op in ops)
    rows = []
    for name in {name for op in ops for name in op["layers"]}:
        seconds = statistics.median(op["layers"].get(name, {}).get("self", 0.0) for op in ops)
        calls = statistics.median(op["layers"].get(name, {}).get("calls", 0) for op in ops)
        rows.append((seconds, name, calls))
    lines = [f"layer split: self time per op, median of {len(ops)} traced ops of {wall * 1e3:.1f} ms"]
    for seconds, name, calls in sorted(rows, reverse=True):
        lines.append(
            f"  {name:<22} {seconds * 1e3:10.1f} ms {100 * seconds / wall:5.1f}%  {calls:8.0f} calls"
        )
    return lines


def run_host(args, scale: workloads.Scale, processes: Processes) -> dict:
    base = [str(HERE / "host.py"), args.workload, "--seed", str(args.seed), "--scale", args.scale]
    setups, setup_walls = [], []

    def cold_start(argv: list[str]) -> subprocess.Popen:
        start = time.perf_counter()
        process = processes.start(argv)
        setups.append(float(wait_for_line(process, "ready").split()[1]))
        setup_walls.append(time.perf_counter() - start)
        return process

    for _ in range(scale.setup_probes):
        processes.finish(cold_start(base + ["--seconds", "0"]))
    seconds = args.seconds / 2 if args.trace else args.seconds
    argv = base + ["--seconds", str(seconds)]
    trace_path = OUT / f"{args.workload}-seed{args.seed}.trace.json"
    if args.trace:
        argv += ["--trace-seconds", str(seconds), "--trace-out", str(trace_path)]
    output = processes.finish(cold_start(argv), timeout=WALL_LIMIT_S)
    result = next(
        (json.loads(line[len("result ") :]) for line in output.splitlines() if line.startswith("result ")),
        None,
    )
    if result is None:
        raise BenchError("the host printed no result")

    untraced, traced = result["untraced"], result["traced"]
    ops = untraced + traced
    walls = [r["seconds"] for r in untraced]
    davgs = [r["davg"] for r in ops if "davg" in r] or [float("nan")]
    wall_name = "infer_s" if args.workload == "infer-skl" else "evolve_s"
    lines = [
        f"setup CPU s {rounded(setups)}, wall s {rounded(setup_walls)}",
        f"{len(untraced)} untraced ops: CPU s {spread([r['cpu_seconds'] for r in untraced])}, "
        f"wall s {spread(walls)}",
        f"wall-clock view: {wall_name} {statistics.median(walls):.3f} s (median op), "
        f"davg {statistics.median(davgs):.4f} (median over ops), generations "
        f"{sorted({r['generations'] for r in ops if 'generations' in r})}",
    ] + result["problems"]
    outcome = {
        "correct": not result["problems"],
        "attempted": len(ops),
        "failed": sum(1 for r in ops if r.get("failed")),
        "lines": lines,
    }
    if not args.trace:
        outcome["metrics"] = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
            "op_cpu_ms": median_of(untraced, "cpu_seconds") * 1e3,
        }
        return outcome

    breakdown = [result["breakdown"][key] for key in sorted(result["breakdown"], key=int)]
    per_op = [
        host_layers(record, op) for record, op in zip(traced, breakdown) if "error" not in record
    ] or [dict.fromkeys(PER_LAYER, 0.0)]
    metrics = {name: statistics.median(op[name] for op in per_op) for name in PER_LAYER}
    metrics["trace.overhead_share"] = (
        median_of(traced, "cpu_seconds") / median_of(untraced, "cpu_seconds") - 1.0
    )
    outcome["metrics"] = metrics
    outcome["lines"] += layer_table(breakdown) + [f"trace written to {trace_path.relative_to(ROOT)}"]
    if metrics["trace.coverage_share"] < 0.9:
        outcome["lines"].append(
            f"warning: named layers cover {metrics['trace.coverage_share']:.1%} of op "
            "wall time (< 90%): a layer is missing from spans.LAYERS"
        )
    return outcome


# -- serve-zipf --------------------------------------------------------------


class Server:
    """One ``repro-pmevo serve`` process, ready once it answers ``/healthz``."""

    def __init__(self, processes: Processes, mapping: Path, trace_out: Path | None = None):
        self.processes = processes
        argv = [str(HERE / "host.py"), "serve", "--mapping", str(mapping)]
        if trace_out is not None:
            argv += ["--trace-out", str(trace_out)]
        start = time.perf_counter()
        self.process = processes.start(argv)
        address = wait_for_line(self.process, "serving on ").split()[-1]
        host, _, port = address.rpartition(":")
        self.host, self.port = host, int(port)
        if self.get("/healthz")["status"] != "ok":
            raise BenchError("the server is not healthy")
        self.setup_cpu_s = self.cpu_s()
        self.setup_wall_s = time.perf_counter() - start

    def get(self, path: str) -> dict:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            body = response.read()
        finally:
            connection.close()
        if response.status != 200:
            raise BenchError(f"GET {path} answered {response.status}")
        return json.loads(body)

    def cpu_s(self) -> float:
        return process_cpu_s(self.process.pid)

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        line = next(line for line in status.splitlines() if line.startswith("VmHWM:"))
        return int(line.split()[1]) / 1024.0

    def stop(self) -> None:
        """SIGTERM: the server drains and exits 0."""
        self.process.send_signal(signal.SIGTERM)
        self.processes.finish(self.process, timeout=30)


def drive(server: Server, requests: workloads.ServeRequests, seconds: float, scale) -> dict:
    """Warm the cache, then time a closed loop for ``seconds``.

    The loop runs in one-second slices, and the server's CPU time per
    request is the median over slices: a burst of host noise then spoils a
    few slices instead of the run.
    """
    from loadgen import ClosedLoop

    client = ClosedLoop(server.host, server.port, requests.body, workloads.SERVE_CONNECTIONS)
    try:
        warmup = client.run(0, count=scale.serve_warmup)
        before = server.get("/v1/stats")
        replies, per_request = [], []
        start = time.perf_counter()
        while not replies or time.perf_counter() - start < seconds:
            cpu = server.cpu_s()
            chunk = client.run(scale.serve_warmup + len(replies), seconds=min(1.0, seconds))
            per_request.append((server.cpu_s() - cpu) / len(chunk))
            replies += chunk
        end = replies[-1][2]
        after = server.get("/v1/stats")
    finally:
        client.close()
    return {
        "warmup": warmup,
        "replies": replies,
        "latencies": [done - sent for _, sent, done, _, _ in replies],
        "window": (start, end),
        "before": before,
        "after": after,
        "cpu_ms_per_request": statistics.median(per_request) * 1e3,
        "peak_rss_mb": server.peak_rss_mb(),
    }


def check_replies(phase: dict, requests: workloads.ServeRequests, answers: dict) -> int:
    """Count bad replies; gather the answers given for the checked sequences."""
    sample = set(requests.sample)
    bad = 0
    for request, _, _, status, body in phase["warmup"] + phase["replies"]:
        try:
            values = json.loads(body)["throughputs"] if status == 200 else None
        except (ValueError, KeyError, TypeError):
            values = None
        row = requests.stream[request % len(requests.stream)]
        if not isinstance(values, list) or len(values) != len(row):
            bad += 1
            continue
        for index, value in zip(row.tolist(), values):
            if index in sample:
                answers.setdefault(index, set()).add(value)
    return bad


def serve_layers(phase: dict, events: list[dict]) -> dict[str, float]:
    """Per-layer metrics of a traced serve-zipf phase, inside its window."""
    low, high = (t * 1e6 for t in phase["window"])
    inside = [e for e in events if low <= e["ts"] <= high]
    requests = [e for e in inside if e["name"] == "serving.request"]
    evaluations = [e for e in inside if e["name"] == "throughput.fixed_eval"]

    def leaf(name: str) -> tuple[int, float]:
        pairs = [e["args"]["leaves"].get(name, (0, 0.0)) for e in requests]
        return sum(p[0] for p in pairs), sum(p[1] for p in pairs)

    _, parse_s = leaf("serving.parse")
    cache_calls, cache_s = leaf("serving.cache")
    waits = sum(
        e["dur"] / 1e6 - sum(seconds for _, seconds in e["args"]["leaves"].values())
        for e in requests
    )
    before, after = phase["before"], phase["after"]

    def delta(section: str, key: str) -> float:
        return after[section][key] - before[section][key]

    lookups = delta("cache", "hits") + delta("cache", "misses")
    batches = delta("batches", "count")
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(
        {
            "throughput.fixed_eval_ms": (
                sum(e["dur"] for e in evaluations) / len(evaluations) / 1e3 if evaluations else 0.0
            ),
            "serving.hit_share": delta("cache", "hits") / lookups if lookups else 0.0,
            "serving.coalesced_share": delta("predictions", "coalesced")
            / delta("predictions", "total"),
            "serving.eval_rows": delta("batches", "entries") / batches if batches else 0.0,
            "serving.server_p50_ms": after["latency"]["p50_ms"],
            "serving.parse_ms": parse_s / len(requests) * 1e3,
            "serving.cache_us": cache_s / cache_calls * 1e6 if cache_calls else 0.0,
            "serving.wait_ms": waits / len(requests) * 1e3,
            "trace.coverage_share": sum(e["dur"] for e in requests) / 1e6 / sum(phase["latencies"]),
        }
    )
    return metrics


def run_serve(args, scale: workloads.Scale, processes: Processes) -> dict:
    from spans import read_trace

    mapping = workloads.serve_mapping(args.seed, scale)
    mapping_path = OUT / f"serve-zipf-seed{args.seed}.mapping.json"
    mapping_path.write_text(json.dumps(mapping))
    requests = workloads.serve_requests(args.seed, list(mapping["instructions"]), scale)

    setups, setup_walls = [], []

    def start_server() -> Server:
        server = Server(processes, mapping_path)
        setups.append(server.setup_cpu_s)
        setup_walls.append(server.setup_wall_s)
        return server

    for _ in range(scale.setup_probes):
        start_server().stop()
    seconds = args.seconds / 2 if args.trace else args.seconds
    server = start_server()
    phases = [drive(server, requests, seconds, scale)]
    server.stop()
    trace_path = OUT / f"serve-zipf-seed{args.seed}.trace.json"
    if args.trace:
        server = Server(processes, mapping_path, trace_out=trace_path)
        phases.append(drive(server, requests, seconds, scale))
        server.stop()

    # The program is imported for checking only after timing, so that the
    # client process stays small while it drives the server.
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core import Experiment, ThreeLevelMapping
    from repro.throughput.batched import FixedMappingEvaluator

    evaluator = FixedMappingEvaluator(ThreeLevelMapping.from_dict(mapping))
    answers: dict[int, set] = {}
    failed = sum(check_replies(phase, requests, answers) for phase in phases)
    problems = []
    for index in requests.sample:
        direct = evaluator.throughput(Experiment(requests.pool[index]))
        if answers.get(index) != {direct}:
            problems.append(
                f"sequence {index}: served {sorted(answers.get(index, ()))}, direct {direct!r}"
            )
    if failed:
        problems.append(f"{failed} replies were not a 200 with one value per sequence")

    untraced = phases[0]
    latencies = untraced["latencies"]
    window = untraced["window"][1] - untraced["window"][0]
    stats = untraced["after"]
    lines = [
        f"setup CPU s {rounded(setups)}, wall s {rounded(setup_walls)}",
        f"untraced: {len(latencies)} requests in {window:.2f} s, server CPU "
        f"{untraced['cpu_ms_per_request']:.3f} ms per request, cache hit rate "
        f"{stats['cache']['hit_rate']:.3f}, mean evaluator batch {stats['batches']['mean']:.2f}",
        f"wall-clock view: pred_per_s {workloads.SERVE_BATCH * len(latencies) / window:.0f}, "
        f"req_p50_ms {statistics.median(latencies) * 1e3:.3f}, "
        f"req_p90_ms {percentile(latencies, 90) * 1e3:.3f}",
    ] + problems
    outcome = {
        "correct": not problems,
        "attempted": sum(len(phase["warmup"]) + len(phase["replies"]) for phase in phases),
        "failed": failed,
        "lines": lines,
    }
    if not args.trace:
        outcome["metrics"] = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": untraced["peak_rss_mb"],
            "op_cpu_ms": untraced["cpu_ms_per_request"],
        }
        return outcome

    traced = phases[1]
    metrics = serve_layers(traced, read_trace(trace_path))
    metrics["trace.overhead_share"] = (
        traced["cpu_ms_per_request"] / untraced["cpu_ms_per_request"] - 1.0
    )
    outcome["metrics"] = metrics
    outcome["lines"].append(f"trace written to {trace_path.relative_to(ROOT)}")
    return outcome


# -- the run record and the entry point ---------------------------------------


def steal_ticks() -> int:
    """Ticks the hypervisor took from this host's CPUs (``/proc/stat``)."""
    try:
        return int(Path("/proc/stat").read_text().split("\n", 1)[0].split()[8])
    except (OSError, IndexError, ValueError):
        return -1


def checked_out_commit() -> str:
    """The commit in ``.git``, read directly so that nothing outside the checkout is read."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_record(args, steal: int) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "commit": checked_out_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": int(PROGRAM_ENV["OPENBLAS_NUM_THREADS"]),
        "steal_ticks": steal_ticks() - steal,
        "loadavg": [round(load, 2) for load in os.getloadavg()],
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time measured per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=sorted(workloads.SCALES),
        default="full",
        help="'tiny' shrinks every op for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    def out_of_time(signum, frame):
        raise BenchError(f"the run did not finish within {WALL_LIMIT_S} s")

    signal.signal(signal.SIGALRM, out_of_time)
    signal.alarm(WALL_LIMIT_S)
    OUT.mkdir(exist_ok=True)
    steal = steal_ticks()
    scale = workloads.SCALES[args.scale]
    try:
        with Processes() as processes:
            runner = run_serve if args.workload == "serve-zipf" else run_host
            outcome = runner(args, scale, processes)
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)

    print("# run " + json.dumps(run_record(args, steal)))
    for line in outcome["lines"]:
        print("# " + line)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": outcome["metrics"][name], "unit": unit} for name, unit in units.items()}
    for name, entry in metrics.items():
        print(f"# {name:<32} {entry['value']:14.6g} {entry['unit']}")
    result = {
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
