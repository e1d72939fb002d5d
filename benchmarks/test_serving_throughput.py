"""Prediction-server throughput: cold vs warm cache, 1 vs 32 clients.

PR 10 added the serving layer (``repro-pmevo serve``): an asyncio HTTP/JSON
API over inferred mappings with a bounded prediction LRU; each request's
misses are evaluated in one batched backend call on the event loop.  This
bench measures what the cache actually buys end to end — the server runs as a
real subprocess and every number includes HTTP framing, JSON, and
canonicalization, exactly what a client pays:

* **cold** — every sequence is a miss: request parse + inline
  fixed-mapping evaluation (one product of the batch's counts with the
  mapping's union-closure table; exact, hence batch-independent) + cache
  fill.
* **warm** — every sequence hits the LRU: request parse + dict lookup.
* **1 vs 32 clients** — one event loop answers hits and evaluates misses
  for every connection.  Warm throughput is bounded by that loop, so 32
  clients land at parity with 1, not above it — the bar is that
  concurrency does not *collapse* it: a warm prediction at 32 clients costs
  at most twice the server CPU of a single-client one.

The server figures are its CPU seconds per prediction, not wall time:
hypervisor steal moves wall time by up to half on a shared host, which made
a ratio of two wall-clock windows flaky.  The wall-clock rates and both
warm/cold ratios are printed beside them.

A second bar runs in process, on the same 12-port mapping (Figure 8a's
port-scaling axis) and the single client's sequences in the same batches:
:class:`~repro.throughput.batched.FixedMappingEvaluator` must answer them
with at least five times less CPU than the dense kernel over all
``2^|P|`` = 4096 masks (``bottleneck_rows`` on the mapping's scattered
``[I, 2^|P|]`` matrix), and with the same floats.  The dense side reuses
count matrices built once, so the ratio understates the saving.  With
``REPRO_BENCH_RECORD=1`` results are *appended* to
``benchmarks/results/serving_throughput.txt`` as history across runs.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from bench_lib import append_result, scaled
from repro.core import Experiment, PortSpace, ThreeLevelMapping
from repro.throughput import BatchedThroughputEvaluator, FixedMappingEvaluator, bottleneck_rows

REPO_ROOT = Path(__file__).resolve().parent.parent

NUM_PORTS = 12
NUM_INSTRUCTIONS = 24
BATCH = 64
CLIENTS = 32
WARM_PASSES = 5
KERNEL_REPEATS = 5
MIN_KERNEL_SPEEDUP = 5.0

_SERVING_LINE = re.compile(r"^serving on (?P<host>[^\s:]+):(?P<port>\d+)$")


def _bench_mapping() -> ThreeLevelMapping:
    """A dense 12-port mapping: the mask space, not Python, bounds a miss."""
    rng = np.random.default_rng(42)
    full = (1 << NUM_PORTS) - 1
    assignment = {}
    for i in range(NUM_INSTRUCTIONS):
        uops = {}
        for _ in range(int(rng.integers(2, 5))):
            mask = int(rng.integers(1, full + 1))
            uops[mask] = int(rng.integers(1, 4))
        assignment[f"op{i}"] = uops
    return ThreeLevelMapping(PortSpace.numbered(NUM_PORTS), assignment)


def _sequence_pool(tag: str, count: int) -> list[dict]:
    """``count`` distinct sequences in the count-dict spelling.

    A per-pool salt op with a unique count makes every sequence (and every
    pool) a distinct cache key, so "cold" really is cold.
    """
    rng = np.random.default_rng(hash(tag) % (2**32))
    pool = []
    for i in range(count):
        support = rng.choice(NUM_INSTRUCTIONS, size=3, replace=False)
        seq = {f"op{int(op)}": int(rng.integers(1, 9)) for op in support}
        seq[f"op{int(support[0])}"] = 1000 + i  # uniqueness salt
        pool.append(seq)
    return pool


class _Server:
    def __init__(self, mapping_path: Path):
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--mapping", str(mapping_path),
                "--bind", "127.0.0.1:0",
                "--cache-size", "1000000",
                "--max-batch", str(BATCH),
                "--max-sequence", "1000000",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        deadline = time.monotonic() + 60
        while True:
            line = self.proc.stdout.readline()
            if not line:
                raise AssertionError(f"serve exited: {self.proc.stderr.read()}")
            match = _SERVING_LINE.match(line.strip())
            if match:
                self.host, self.port = match.group("host"), int(match.group("port"))
                return
            if time.monotonic() > deadline:
                raise AssertionError("serve never printed its bind line")

    def stop(self) -> None:
        self.proc.send_signal(signal.SIGTERM)
        self.proc.wait(timeout=30)

    def request(self, conn: http.client.HTTPConnection, path: str, payload=None):
        body = None if payload is None else json.dumps(payload)
        conn.request("GET" if payload is None else "POST", path, body=body)
        response = conn.getresponse()
        return response.status, json.loads(response.read())


def _cpu_seconds(pid: int) -> float:
    """CPU seconds the live threads of process ``pid`` have run.

    The first field of ``/proc/PID/task/TID/schedstat`` is a thread's time
    on a CPU, to the nanosecond; unlike wall time it excludes time stolen
    by the hypervisor.
    """
    total = 0
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            total += int((task / "schedstat").read_text().split()[0])
        except FileNotFoundError:  # the thread ended meanwhile
            pass
    return total / 1e9


def _drive(
    server: _Server, pools: list[list[dict]], passes: int = 1
) -> tuple[float, float]:
    """Serve each pool (one client thread per pool, batched requests,
    keep-alive connection).

    Returns predictions per wall-clock second across all threads, and the
    server's CPU seconds per prediction.
    """
    errors: list[str] = []

    def client(pool: list[dict]) -> None:
        conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
        try:
            for _ in range(passes):
                for start in range(0, len(pool), BATCH):
                    batch = pool[start : start + BATCH]
                    status, body = server.request(
                        conn, "/v1/predict", {"sequences": batch}
                    )
                    if status != 200 or len(body["throughputs"]) != len(batch):
                        errors.append(f"status {status}: {body}")
                        return
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(pool,)) for pool in pools]
    cpu_start = _cpu_seconds(server.proc.pid)
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    cpu = _cpu_seconds(server.proc.pid) - cpu_start
    assert not errors, errors[:3]
    total = sum(len(pool) for pool in pools) * passes
    return total / elapsed, cpu / total


def _cpu_of(fn) -> float:
    start = time.process_time()
    fn()
    return time.process_time() - start


def _closure_vs_dense_cpu(mapping: ThreeLevelMapping, pool: list[dict]) -> tuple[float, float]:
    """Best-of-``KERNEL_REPEATS`` process CPU seconds to answer ``pool`` in
    ``BATCH``-row batches: the fixed-mapping evaluator, then the dense
    ``2^|P|`` kernel on the mapping's matrix scattered once."""
    sequences = [Experiment(seq) for seq in pool]
    evaluator = FixedMappingEvaluator(mapping)
    dense = BatchedThroughputEvaluator(sequences, mapping.instructions, NUM_PORTS)
    uops = dense.uop_matrix(dict(mapping.items()))
    starts = range(0, len(sequences), BATCH)

    def closure():
        return np.concatenate([evaluator.throughputs(sequences[i : i + BATCH]) for i in starts])

    def dense_kernel():
        return np.concatenate([bottleneck_rows(dense.counts[i : i + BATCH], uops) for i in starts])

    assert np.array_equal(closure(), dense_kernel())
    closure_cpu = dense_cpu = float("inf")
    for _ in range(KERNEL_REPEATS):  # interleaved, so host noise hits both sides
        closure_cpu = min(closure_cpu, _cpu_of(closure))
        dense_cpu = min(dense_cpu, _cpu_of(dense_kernel))
    return closure_cpu, dense_cpu


def test_serving_throughput(tmp_path):
    mapping = _bench_mapping()
    sequences_single = scaled(1024, minimum=256)
    per_client = scaled(64, minimum=16)
    single_pool = _sequence_pool("single", sequences_single)
    closure_cpu, dense_cpu = _closure_vs_dense_cpu(mapping, single_pool)

    mapping_path = tmp_path / "bench.json"
    mapping_path.write_text(mapping.to_json())
    server = _Server(mapping_path)
    try:
        cold_1, cold_cpu_1 = _drive(server, [single_pool])
        warm_1, warm_cpu_1 = _drive(server, [single_pool], passes=WARM_PASSES)

        client_pools = [
            _sequence_pool(f"client{i}", per_client) for i in range(CLIENTS)
        ]
        cold_32, cold_cpu_32 = _drive(server, client_pools)
        warm_32, warm_cpu_32 = _drive(server, client_pools, passes=WARM_PASSES)

        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        _, stats = server.request(conn, "/v1/stats")
        conn.close()
    finally:
        server.stop()

    kernel_speedup = dense_cpu / closure_cpu
    speedup_1 = cold_cpu_1 / warm_cpu_1
    speedup_32 = cold_cpu_32 / warm_cpu_32
    report = [
        f"serving throughput ({NUM_INSTRUCTIONS} instr, {NUM_PORTS} ports, "
        f"batch {BATCH}, HTTP end to end)",
        f"  in process: {len(single_pool)} sequences, dense 2^|P| kernel "
        f"{dense_cpu * 1e3:.1f} ms -> union-closure table {closure_cpu * 1e3:.1f} ms "
        f"CPU ({kernel_speedup:.1f}x)",
        f"   1 client : {cold_1:9.0f} cold -> {warm_1:9.0f} warm predictions/s "
        f"({warm_1 / cold_1:.1f}x wall)",
        f"              {cold_cpu_1 * 1e6:9.1f} cold -> {warm_cpu_1 * 1e6:9.1f} warm "
        f"µs server CPU per prediction ({speedup_1:.1f}x)",
        f"  {CLIENTS} clients: {cold_32:9.0f} cold -> {warm_32:9.0f} warm predictions/s "
        f"({warm_32 / cold_32:.1f}x wall)",
        f"              {cold_cpu_32 * 1e6:9.1f} cold -> {warm_cpu_32 * 1e6:9.1f} warm "
        f"µs server CPU per prediction ({speedup_32:.1f}x)",
        f"  cache hit rate {stats['cache']['hit_rate']:.2f}, "
        f"mean eval batch {stats['batches']['mean']:.1f}, "
        f"p99 latency {stats['latency'].get('p99_ms', float('nan')):.1f} ms",
    ]
    append_result("serving_throughput", "\n".join(report))

    assert kernel_speedup >= MIN_KERNEL_SPEEDUP, (
        f"the fixed-mapping evaluator is only {kernel_speedup:.1f}x cheaper "
        f"than the dense 2^|P| kernel (bar: {MIN_KERNEL_SPEEDUP}x)"
    )
    assert warm_cpu_32 <= 2 * warm_cpu_1, (
        f"32 concurrent clients collapsed warm throughput: "
        f"{warm_cpu_32 * 1e6:.1f} vs {warm_cpu_1 * 1e6:.1f} µs server CPU per "
        "prediction single-client"
    )
