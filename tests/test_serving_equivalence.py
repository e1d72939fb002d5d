"""The equivalence wall around the prediction serving layer.

Serving must be a *transparent* cache over the analytical model: the float a
client receives for a sequence is one specific value, regardless of

* whether the cache was cold or warm, or a concurrent request already
  evaluated the sequence,
* which other sequences happened to share its evaluation batch (counts and
  multiplicities are integers, so the kernel's sums are exact in any order
  and a whole-batch matmul cannot depend on the batch width),
* whether the caller asked over HTTP or called the backend directly.

The properties pinned here:

1. served == direct single-sequence ``BatchedThroughputEvaluator`` calls,
   bit for bit;
2. served == ``FixedMappingEvaluator`` == ``bottleneck_throughput_reference``,
   bit for bit, for any batch split;
3. served == the per-experiment ``bottleneck_throughput``, bit for bit: both
   maximize over the union closure of the masks with exact integer sums;
4. cold == warm, and overlapping concurrent requests share one evaluation,
   bit for bit.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import tempfile
import threading
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Experiment, PortSpace, ThreeLevelMapping
from repro.serving import MappingRegistry, PredictionServer
from repro.throughput import (
    BatchedThroughputEvaluator,
    FixedMappingEvaluator,
    bottleneck_throughput,
    bottleneck_throughput_reference,
)


def _random_problem(seed: int, num_sequences: int = 12):
    """A random mapping plus random request sequences over its ISA."""
    rng = np.random.default_rng(seed)
    num_ports = int(rng.integers(2, 6))
    full = (1 << num_ports) - 1
    names = tuple(f"op{i}" for i in range(int(rng.integers(2, 8))))
    assignment = {}
    for name in names:
        uops = {}
        for _ in range(int(rng.integers(1, 4))):
            mask = int(rng.integers(1, full + 1))
            uops[mask] = int(rng.integers(1, 4))
        assignment[name] = uops
    mapping = ThreeLevelMapping(PortSpace.numbered(num_ports), assignment)
    sequences = []
    for _ in range(num_sequences):
        size = min(int(rng.integers(1, 5)), len(names))
        support = rng.choice(len(names), size=size, replace=False)
        sequences.append(
            Experiment({names[int(i)]: int(rng.integers(1, 6)) for i in support})
        )
    return mapping, sequences


@contextlib.contextmanager
def _server_for(mapping, mapping_id="m"):
    """A PredictionServer over a throwaway on-disk artifact, which lives
    as long as the ``with`` block.

    Plain tempfile (not the tmp_path fixture): hypothesis runs many examples
    per test invocation and function-scoped fixtures are not reset between
    them.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{mapping_id}.json"
        path.write_text(mapping.to_json())
        yield PredictionServer(MappingRegistry([(mapping_id, path)]))


def _payload(sequences):
    return {"sequences": [dict(seq) for seq in sequences]}


def _served(server, sequences):
    status, body = asyncio.run(server.handle_predict(_payload(sequences)))
    assert status == 200
    return np.array(body["throughputs"], dtype=np.float64), body["cached"]


def _direct_single(mapping, sequences):
    """The direct backend: one BatchedThroughputEvaluator call per sequence."""
    out = []
    for seq in sequences:
        evaluator = BatchedThroughputEvaluator(
            [seq], mapping.instructions, mapping.ports.num_ports
        )
        out.append(float(evaluator.throughputs(mapping)[0]))
    return np.array(out, dtype=np.float64)


class TestServedEqualsDirect:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_cold_warm_coalesced_and_direct_bit_identical(self, seed):
        mapping, sequences = _random_problem(seed)
        with _server_for(mapping) as server:
            cold, cold_cached = _served(server, sequences)
            warm, warm_cached = _served(server, sequences)
        assert not any(cold_cached)
        assert all(warm_cached)
        assert np.array_equal(cold, warm)

        direct = _direct_single(mapping, sequences)
        assert np.array_equal(cold, direct)

        fixed = FixedMappingEvaluator(mapping).throughputs(sequences)
        assert np.array_equal(cold, fixed)

        dict_path = np.array(
            [
                bottleneck_throughput(mapping.uop_masses(seq), mapping.ports.num_ports)
                for seq in sequences
            ]
        )
        assert np.array_equal(cold, dict_path)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), split=st.integers(1, 11))
    def test_batch_split_invariance(self, seed, split):
        # The same sequences, batched differently, give the same bits: the
        # exact kernel makes a prediction independent of its batch-mates.
        mapping, sequences = _random_problem(seed)
        whole = FixedMappingEvaluator(mapping).throughputs(sequences)
        evaluator = FixedMappingEvaluator(mapping)
        parts = [
            evaluator.throughputs(sequences[i : i + split])
            for i in range(0, len(sequences), split)
        ]
        assert np.array_equal(np.concatenate(parts), whole)
        reference = [
            bottleneck_throughput_reference(mapping.uop_masses(seq), mapping.ports.num_ports)
            for seq in sequences
        ]
        assert whole.tolist() == reference

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_concurrent_overlapping_requests_bit_identical(self, seed):
        # Concurrent requests with overlapping cold sequences: the first
        # evaluates its misses on the loop's own thread without yielding, so
        # the others find every sequence cached — all see identical floats.
        mapping, sequences = _random_problem(seed, num_sequences=8)
        overlap = sequences[: len(sequences) // 2 + 1]
        threads = []
        with _server_for(mapping) as server:
            evaluator = server.registry.get("m").evaluator
            evaluate = evaluator.throughputs

            def recording(batch):
                threads.append(threading.get_ident())
                return evaluate(batch)

            evaluator.throughputs = recording

            async def fire():
                return await asyncio.gather(
                    server.handle_predict(_payload(sequences)),
                    server.handle_predict(_payload(overlap)),
                    server.handle_predict(_payload(list(reversed(sequences)))),
                )

            (s1, b1), (s2, b2), (s3, b3) = asyncio.run(fire())
        assert s1 == s2 == s3 == 200
        direct = _direct_single(mapping, sequences)
        assert np.array_equal(np.array(b1["throughputs"]), direct)
        assert np.array_equal(np.array(b2["throughputs"]), direct[: len(overlap)])
        assert np.array_equal(np.array(b3["throughputs"]), direct[::-1])
        assert all(b2["cached"]) and all(b3["cached"])
        assert server.stats.batches == 1
        assert threads == [threading.get_ident()]

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_list_and_count_spellings_share_results_and_cache(self, seed):
        mapping, sequences = _random_problem(seed, num_sequences=6)
        as_counts = {"sequences": [dict(seq) for seq in sequences]}
        as_lists = {"sequences": [list(seq.instances()) for seq in sequences]}
        with _server_for(mapping) as server:
            _, body_counts = asyncio.run(server.handle_predict(as_counts))
            _, body_lists = asyncio.run(server.handle_predict(as_lists))
        assert body_counts["throughputs"] == body_lists["throughputs"]
        # The list spelling canonicalized onto the cached multiset entries.
        assert all(body_lists["cached"])


class TestServedOverHttp:
    def test_http_response_floats_survive_json_exactly(self):
        # One full-stack pin: the floats on the wire, decoded from the HTTP
        # JSON body, equal the direct backend bit for bit (json round-trips
        # IEEE doubles exactly via repr shortest-round-trip).
        mapping, sequences = _random_problem(7)

        async def drive(server):
            host, port = await server.start("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(host, port)
            payload = json.dumps(_payload(sequences)).encode()
            writer.write(
                b"POST /v1/predict HTTP/1.1\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(payload), payload)
            )
            await writer.drain()
            status_line = await reader.readline()
            headers = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n"):
                    break
                name, _, value = line.decode().partition(":")
                headers[name.strip().lower()] = value.strip()
            body = await reader.readexactly(int(headers["content-length"]))
            writer.close()
            await writer.wait_closed()
            await server.shutdown()
            return status_line, json.loads(body)

        with _server_for(mapping) as server:
            status_line, body = asyncio.run(drive(server))
        assert b"200" in status_line
        direct = _direct_single(mapping, sequences)
        assert np.array_equal(np.array(body["throughputs"], dtype=np.float64), direct)
