"""Protocol error paths, the prediction cache, and registry hot reload.

The serving contract under test: every client mistake is a *structured* 4xx
JSON error — never a 500, never a hung connection — and the registry can
swap mapping artifacts under a running server with the cache invalidated
for exactly the reloaded ids.
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import json
import socket
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Experiment, PortSpace, ServingError, ThreeLevelMapping
from repro.serving import (
    MappingRegistry,
    PredictionCache,
    PredictionServer,
    ProtocolError,
    canonical_sequence,
    parse_mapping_spec,
    parse_predict_request,
)
from repro.throughput import FixedMappingEvaluator, bottleneck_throughput_reference


def _toy_mapping():
    return ThreeLevelMapping(
        PortSpace.numbered(3), {"add": {0b001: 1}, "mul": {0b110: 2}, "st": {0b011: 1}}
    )


@pytest.fixture
def mapping():
    return _toy_mapping()


@pytest.fixture
def other_mapping():
    return ThreeLevelMapping(
        PortSpace.numbered(3), {"add": {0b111: 2}, "mul": {0b100: 1}, "st": {0b011: 1}}
    )


@pytest.fixture
def registry(tmp_path, mapping):
    path = tmp_path / "toy.json"
    path.write_text(mapping.to_json())
    return MappingRegistry([("toy", path)])


@pytest.fixture
def server(registry):
    return PredictionServer(registry, max_batch=8, max_sequence=16)


def _heavy_mapping(b_multiplicity=1):
    return ThreeLevelMapping(
        PortSpace.numbered(2), {"a": {0b01: 2**52 + 1}, "b": {0b10: b_multiplicity}}
    )


def _predict(server, payload):
    return asyncio.run(server.handle_predict(payload))


def _expect_protocol_error(server, payload, status, code):
    with pytest.raises(ProtocolError) as excinfo:
        _predict(server, payload)
    assert excinfo.value.status == status
    assert excinfo.value.code == code


def _toy_server():
    """A server over the toy mapping; the registry reads the artifact when
    it is built, so the file need not outlive this call."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "toy.json"
        path.write_text(_toy_mapping().to_json())
        return PredictionServer(MappingRegistry([("toy", path)]))


class TestSequenceCanonicalization:
    def test_list_and_counts_agree(self):
        assert canonical_sequence(["a", "b", "a"]) == canonical_sequence({"a": 2, "b": 1})

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_canonical_key_is_the_experiments_items(self, data):
        # The key the cache stores and the evaluator reads: an Experiment's
        # items, whichever spelling, and served cold or warm as the float
        # the evaluator gives that Experiment.
        counts = data.draw(
            st.dictionaries(st.sampled_from(["add", "mul", "st"]), st.integers(1, 5), min_size=1)
        )
        names = data.draw(
            st.permutations([name for name, count in counts.items() for _ in range(count)])
        )
        key = canonical_sequence(counts)
        assert key == tuple(Experiment(counts))
        assert canonical_sequence(names) == key

        expected = FixedMappingEvaluator(_toy_mapping()).throughput(Experiment(counts))
        server = _toy_server()
        _, cold = _predict(server, {"sequences": [names]})
        _, warm = _predict(server, {"sequences": [counts]})
        assert (cold["cached"], warm["cached"]) == ([False], [True])
        assert [value.hex() for value in cold["throughputs"] + warm["throughputs"]] == [
            expected.hex()
        ] * 2

    @pytest.mark.parametrize(
        "raw",
        [[], {}, "add", 42, [1, 2], ["ok", ""], {"a": 0}, {"a": -1}, {"a": 1.5}, {"a": True}, {"": 2}],
    )
    def test_malformed_sequences_rejected(self, raw):
        with pytest.raises(ProtocolError) as excinfo:
            canonical_sequence(raw)
        assert 400 <= excinfo.value.status < 500

    def test_overlong_sequence_is_413(self):
        with pytest.raises(ProtocolError) as excinfo:
            canonical_sequence(["a"] * 20, max_sequence=16)
        assert excinfo.value.status == 413
        with pytest.raises(ProtocolError) as excinfo:
            canonical_sequence({"a": 20}, max_sequence=16)
        assert excinfo.value.status == 413


class TestPredictRequestValidation:
    @pytest.mark.parametrize(
        "payload, code",
        [
            ([], "bad_request"),
            ("x", "bad_request"),
            ({}, "bad_request"),
            ({"sequences": "nope"}, "bad_request"),
            ({"sequences": []}, "bad_request"),
            ({"sequences": [["a"]], "mapping": 3}, "bad_request"),
            ({"sequences": [["a"]], "bogus": 1}, "bad_request"),
        ],
    )
    def test_structural_errors(self, payload, code):
        with pytest.raises(ProtocolError) as excinfo:
            parse_predict_request(payload)
        assert excinfo.value.code == code
        assert excinfo.value.status == 400

    def test_sequences_are_canonical_tuples(self):
        request = parse_predict_request({"sequences": [["b", "a", "b"], {"b": 2, "a": 1}]})
        assert request.sequences == [(("a", 1), ("b", 2))] * 2
        assert all(type(sequence) is tuple for sequence in request.sequences)

    def test_oversized_batch_is_413(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_predict_request({"sequences": [["a"]] * 9}, max_batch=8)
        assert excinfo.value.status == 413
        assert excinfo.value.code == "batch_too_large"


class TestPredictErrorPaths:
    def test_unknown_mapping_is_404(self, server):
        _expect_protocol_error(
            server, {"mapping": "nope", "sequences": [["add"]]}, 404, "unknown_mapping"
        )

    def test_unknown_instruction_is_400(self, server):
        _expect_protocol_error(
            server, {"sequences": [["add", "fdiv"]]}, 400, "unknown_instruction"
        )

    def test_unknown_instruction_never_reaches_backend(self, server):
        # A bad sequence must not poison the valid ones sharing its request:
        # the request fails before anything is cached or counted as a batch.
        _expect_protocol_error(
            server, {"sequences": [["add"], ["fdiv"]]}, 400, "unknown_instruction"
        )
        assert server.stats.batches == 0
        assert len(server.cache) == 0

    def test_uncovered_cached_mix_is_400_and_changes_nothing(self, server):
        _predict(server, {"sequences": [["add"]]})
        batches, size = server.stats.batches, len(server.cache)
        _expect_protocol_error(
            server, {"sequences": [["add"], ["fdiv"]]}, 400, "unknown_instruction"
        )
        assert (server.stats.batches, len(server.cache)) == (batches, size)

    def test_fully_cached_request_never_calls_the_evaluator(self, server):
        # The cache is filled only after the evaluator answered under the
        # same mapping, so a hit is not checked again.
        sequences = [["add"], {"mul": 2, "st": 1}]
        _, cold = _predict(server, {"sequences": sequences})

        class _Untouchable:
            def __getattr__(self, name):
                raise AssertionError(f"evaluator.{name} called on a fully cached request")

        server.registry.get("toy").evaluator = _Untouchable()
        status, warm = _predict(server, {"sequences": sequences})
        assert status == 200
        assert warm["cached"] == [True, True]
        assert warm["throughputs"] == cold["throughputs"]

    def test_uncovered_name_wins_over_an_earlier_mass_at_2_to_53(self, tmp_path):
        path = tmp_path / "heavy.json"
        path.write_text(_heavy_mapping().to_json())
        server = PredictionServer(MappingRegistry([("heavy", path)]))
        with pytest.raises(ProtocolError) as excinfo:
            _predict(server, {"sequences": [{"a": 3, "b": 1}, {"b": 1, "c": 1}]})
        assert excinfo.value.code == "unknown_instruction"
        assert excinfo.value.message == "mapping 'heavy' does not cover instruction 'c'"

    def test_mass_at_2_to_53_is_400_and_never_reaches_backend(self, tmp_path):
        # µop multiplicity 2^52 + 1: {a: 3, b: 1} weighs 3 * (2^52 + 1) + 1.
        path = tmp_path / "heavy.json"
        path.write_text(_heavy_mapping().to_json())
        server = PredictionServer(MappingRegistry([("heavy", path)]))
        _expect_protocol_error(
            server, {"sequences": [{"b": 1}, {"a": 3, "b": 1}]}, 400, "mass_too_large"
        )
        assert server.stats.batches == 0
        assert len(server.cache) == 0

    def test_mass_just_below_2_to_53_answers_exactly(self, tmp_path):
        path = tmp_path / "heavy.json"
        mapping = _heavy_mapping(2**52 - 3)
        path.write_text(mapping.to_json())
        server = PredictionServer(MappingRegistry([("heavy", path)]))
        sequence = {"a": 1, "b": 1}  # total mass 2^53 - 2
        status, body = _predict(server, {"sequences": [sequence]})
        assert status == 200
        expected = bottleneck_throughput_reference(
            mapping.uop_masses(Experiment(sequence)), 2
        )
        assert body["throughputs"] == [expected] == [2**52 + 1]

    def test_ambiguous_mapping_with_several_served(self, tmp_path, mapping, other_mapping):
        (tmp_path / "a.json").write_text(mapping.to_json())
        (tmp_path / "b.json").write_text(other_mapping.to_json())
        registry = MappingRegistry([("a", tmp_path / "a.json"), ("b", tmp_path / "b.json")])
        server = PredictionServer(registry)
        _expect_protocol_error(server, {"sequences": [["add"]]}, 400, "ambiguous_mapping")
        status, body = _predict(server, {"mapping": "b", "sequences": [["add"]]})
        assert status == 200 and body["mapping"] == "b"


class TestPredictionCache:
    """Keyed, as the server keys it, by canonical tuples."""

    def test_lru_eviction_order_and_bound(self):
        cache = PredictionCache(2)
        a, b, c = (("a", 1),), (("b", 1),), (("c", 1),)
        cache.put("m", a, 1.0)
        cache.put("m", b, 2.0)
        assert cache.get("m", a) == 1.0  # refresh a; b is now LRU
        cache.put("m", c, 3.0)
        assert len(cache) == 2
        assert cache.get("m", b) is None
        assert cache.get("m", a) == 1.0 and cache.get("m", c) == 3.0
        assert cache.evictions == 1

    def test_zero_capacity_disables_caching(self):
        cache = PredictionCache(0)
        cache.put("m", (("a", 1),), 1.0)
        assert len(cache) == 0
        assert cache.get("m", (("a", 1),)) is None

    def test_invalidate_is_per_mapping(self):
        cache = PredictionCache(8)
        seq = (("a", 1),)
        cache.put("m1", seq, 1.0)
        cache.put("m2", seq, 2.0)
        assert cache.invalidate_mapping("m1") == 1
        assert cache.get("m1", seq) is None
        assert cache.get("m2", seq) == 2.0

    def test_server_cache_bound_holds_under_load(self, registry):
        server = PredictionServer(registry, cache_size=3)
        for i in range(1, 9):
            _predict(server, {"sequences": [{"add": i}]})
        assert len(server.cache) == 3
        assert server.cache.evictions == 5


class TestRegistryAndReload:
    def test_spec_parsing(self):
        assert parse_mapping_spec("results/skl.json")[0] == "skl"
        mapping_id, path = parse_mapping_spec("prod=results/skl.json")
        assert mapping_id == "prod" and str(path) == "results/skl.json"

    def test_duplicate_ids_rejected(self, tmp_path, mapping):
        path = tmp_path / "m.json"
        path.write_text(mapping.to_json())
        with pytest.raises(ServingError):
            MappingRegistry([("m", path), ("m", path)])

    def test_malformed_artifacts_fail_loudly(self, tmp_path):
        missing = tmp_path / "missing.json"
        with pytest.raises(ServingError, match="missing.json"):
            MappingRegistry([("m", missing)])
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ServingError, match="bad.json"):
            MappingRegistry([("m", bad)])
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"ports": ["P0"], "instructions": {"a": []}}))
        with pytest.raises(ServingError, match="wrong.json"):
            MappingRegistry([("m", wrong)])

    def test_hot_reload_swaps_predictions_and_invalidates_cache(
        self, tmp_path, mapping, other_mapping, registry
    ):
        server = PredictionServer(registry)
        status, before = _predict(server, {"sequences": [["add", "add"]]})
        assert status == 200 and before["generation"] == 1
        assert len(server.cache) == 1

        (tmp_path / "toy.json").write_text(other_mapping.to_json())
        status, report = server.handle_reload()
        assert status == 200
        assert report["reloaded"] == ["toy"]
        assert report["cache_entries_invalidated"] == 1

        status, after = _predict(server, {"sequences": [["add", "add"]]})
        assert after["generation"] == 2
        assert after["cached"] == [False]  # the stale entry really is gone
        assert after["throughputs"] != before["throughputs"]

        # Reloading again without a change is a no-op.
        status, report = server.handle_reload()
        assert report["reloaded"] == [] and report["unchanged"] == ["toy"]

    def test_reload_of_a_count_past_float64_raises_serving_error(self, tmp_path, registry):
        before = (registry.ids, registry.describe())
        huge = {"ports": ["P0"], "instructions": {"add": [{"ports": ["P0"], "count": 0}]}}
        text = json.dumps(huge).replace('"count": 0', '"count": 1' + "0" * 400)
        (tmp_path / "toy.json").write_text(text)
        with pytest.raises(ServingError, match="toy.json"):
            registry.reload()
        assert (registry.ids, registry.describe()) == before

    def test_failed_reload_keeps_serving_old_mapping(self, tmp_path, registry):
        server = PredictionServer(registry)
        _, before = _predict(server, {"sequences": [["mul"]]})
        (tmp_path / "toy.json").write_text("{truncated")
        with pytest.raises(ServingError):
            server.handle_reload()
        _, after = _predict(server, {"sequences": [["mul"]]})
        assert after["throughputs"] == before["throughputs"]
        assert after["generation"] == 1


class _Client:
    """A tiny keep-alive HTTP client against an in-process server; a
    context manager that closes its connection."""

    def __init__(self, host, port):
        self.conn = http.client.HTTPConnection(host, port, timeout=5)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.conn.close()

    def request(self, method, path, body=None, headers=None):
        raw = None if body is None else (
            body if isinstance(body, (bytes, str)) else json.dumps(body)
        )
        self.conn.request(method, path, body=raw, headers=headers or {})
        response = self.conn.getresponse()
        payload = response.read()
        return response.status, json.loads(payload) if payload else None


def _with_server(server, scenario):
    """Run ``scenario(host, port)`` in a thread while the server serves."""
    import threading

    async def main():
        host, port = await server.start("127.0.0.1", 0)
        loop = asyncio.get_running_loop()
        outcome = await loop.run_in_executor(None, scenario, host, port)
        await server.shutdown()
        return outcome

    return asyncio.run(main())


#: The servers of the read-deadline tests close a connection after this long.
_IDLE = 0.3


def _fresh_predict_status(host, port):
    """A new connection's answer to a valid predict request."""
    with _Client(host, port) as client:
        return client.request("POST", "/v1/predict", body={"sequences": [["add"]]})[0]


def _read_until_closed(sock):
    """Everything the server sends until it closes the connection."""
    data = b""
    while chunk := sock.recv(4096):
        data += chunk
    return data


def _dribble(sock, lines, pause):
    """Send ``lines`` one per ``pause`` seconds until the server closes the
    connection; returns the bytes the server sent and the seconds until it
    closed, or None if it never did."""
    start = time.monotonic()
    sock.settimeout(pause)
    received = b""
    for line in lines:
        try:
            chunk = sock.recv(4096)
        except TimeoutError:  # still open: send the next line
            sock.sendall(line)
            continue
        except ConnectionResetError:
            chunk = b""
        if not chunk:
            return received, time.monotonic() - start
        received += chunk
    return received, None


class TestHttpErrorPaths:
    """The same contracts, end to end over a real socket: structured 4xx
    JSON, never a 500, never a hung connection."""

    def test_http_error_statuses_are_structured_4xx(self, server):
        def scenario(host, port):
            with _Client(host, port) as client:
                checks = []
                checks.append(client.request("POST", "/v1/predict", body=b"{nope"))
                checks.append(client.request("POST", "/v1/predict", body={"sequences": [["fdiv"]]}))
                checks.append(client.request("POST", "/v1/predict", body={"mapping": "x", "sequences": [["add"]]}))
                checks.append(client.request("POST", "/v1/predict", body={"sequences": [["add"]] * 9}))
                checks.append(client.request("GET", "/nope"))
                checks.append(client.request("DELETE", "/v1/predict", body=b""))
                # The connection survived every error and still serves:
                checks.append(client.request("POST", "/v1/predict", body={"sequences": [["add"]]}))
                return checks

        results = _with_server(server, scenario)
        statuses = [status for status, _ in results]
        assert statuses == [400, 400, 404, 413, 404, 405, 200]
        for status, body in results[:-1]:
            assert 400 <= status < 500, "client mistakes must never be 5xx"
            assert set(body) == {"error"}
            assert {"code", "message"} <= set(body["error"])

    def test_mass_at_2_to_53_is_structured_400_over_http(self, tmp_path):
        path = tmp_path / "heavy.json"
        path.write_text(_heavy_mapping().to_json())
        server = PredictionServer(MappingRegistry([("heavy", path)]))

        def scenario(host, port):
            with _Client(host, port) as client:
                rejected = client.request("POST", "/v1/predict", body={"sequences": [{"a": 3, "b": 1}]})
                served = client.request("POST", "/v1/predict", body={"sequences": [{"a": 1, "b": 1}]})
                return rejected, served

        (status, body), (served_status, served_body) = _with_server(server, scenario)
        assert status == 400
        assert body["error"]["code"] == "mass_too_large"
        assert served_status == 200
        assert served_body["throughputs"] == [2**52 + 1]

    def test_oversized_body_is_413_not_hang(self, registry):
        server = PredictionServer(registry, max_body_bytes=1024)

        def scenario(host, port):
            with _Client(host, port) as client:
                huge = json.dumps({"sequences": [["add"]] * 2000})
                assert len(huge) > 1024
                return client.request("POST", "/v1/predict", body=huge)

        status, body = _with_server(server, scenario)
        assert status == 413
        assert body["error"]["code"] == "body_too_large"

    def test_malformed_http_line_gets_400_and_close(self, server):
        def scenario(host, port):
            import socket

            with socket.create_connection((host, port), timeout=5) as sock:
                sock.sendall(b"THIS IS NOT HTTP\r\n\r\n")
                data = sock.recv(4096)
                assert data.startswith(b"HTTP/1.1 400")
                # Server closes after a framing error; recv drains to EOF.
                while data:
                    data = sock.recv(4096)
            return True

        assert _with_server(server, scenario)

    @pytest.mark.parametrize(
        "head, message",
        [
            (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", "request line too long"),
            (
                b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n",
                "header line too long",
            ),
        ],
        ids=["request-line", "header-line"],
    )
    def test_line_past_the_stream_limit_gets_400(self, server, head, message):
        # Past asyncio's 64 KiB stream limit a line read raises instead of
        # returning: that too is malformed framing, a 400 and a close.
        def scenario(host, port):
            data = b""
            with socket.create_connection((host, port), timeout=5) as sock:
                sock.sendall(head)
                # The close may be a reset: the server need not read the
                # rest of a line it has refused.
                with contextlib.suppress(ConnectionResetError):
                    while chunk := sock.recv(4096):
                        data += chunk
            return data, _fresh_predict_status(host, port)

        data, status = _with_server(server, scenario)
        response_head, _, payload = data.partition(b"\r\n\r\n")
        assert response_head.startswith(b"HTTP/1.1 400")
        assert b"Connection: close" in response_head
        assert json.loads(payload) == {"error": {"code": "bad_http", "message": message}}
        assert status == 200

    def test_unread_responses_are_cut_at_the_deadline(self, registry, capsys):
        # A client pipelines predicts and never reads the answers, so one
        # response's write stalls.  The connection's deadline bounds that
        # write too: shutdown finds nothing in flight to wait for, although
        # the client keeps its connection open.
        server = PredictionServer(registry, idle_timeout=_IDLE, grace=2.0)
        sequences = [{"add": 1 + i % 16, "mul": 1 + i // 16} for i in range(256)]
        body = json.dumps({"sequences": sequences}).encode()
        request = b"POST /v1/predict HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body) + body

        def scenario(sock, host, port):
            # Until the server stops reading (a send times out) or the
            # deadline resets the connection; 64 MiB caps the loop.
            sock.settimeout(0.5)
            try:
                for _ in range((64 << 20) // len(request)):
                    sock.sendall(request)
            except (TimeoutError, ConnectionError):
                pass
            return _fresh_predict_status(host, port)

        async def main():
            host, port = await server.start("127.0.0.1", 0)
            loop = asyncio.get_running_loop()
            with socket.create_connection((host, port)) as sock:
                status = await loop.run_in_executor(None, scenario, sock, host, port)
                start = time.monotonic()
                await server.shutdown()
                return status, time.monotonic() - start

        status, shutdown_seconds = asyncio.run(main())
        assert status == 200
        assert shutdown_seconds < 1.0
        assert "grace period" not in capsys.readouterr().err

    def test_idle_keep_alive_connection_is_closed_without_bytes(self, registry):
        server = PredictionServer(registry, idle_timeout=_IDLE)

        def scenario(host, port):
            with socket.create_connection((host, port), timeout=5) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
                start = time.monotonic()
                data = _read_until_closed(sock)
                elapsed = time.monotonic() - start
            return data, elapsed, _fresh_predict_status(host, port)

        data, elapsed, status = _with_server(server, scenario)
        # One keep-alive answer, then no byte until the close.
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200") and b"Connection: keep-alive" in head
        assert json.loads(body)["status"] == "ok"
        assert elapsed < 2 * _IDLE
        assert status == 200

    def test_half_sent_body_is_closed_without_a_response(self, registry):
        server = PredictionServer(registry, idle_timeout=_IDLE)

        def scenario(host, port):
            with socket.create_connection((host, port), timeout=5) as sock:
                sock.sendall(b'POST /v1/predict HTTP/1.1\r\nContent-Length: 100\r\n\r\n{"seq')
                data = _read_until_closed(sock)
            return data, _fresh_predict_status(host, port)

        assert _with_server(server, scenario) == (b"", 200)

    def test_dribbled_head_is_closed_one_timeout_after_its_request_line(self, registry):
        # Each header line arrives well within idle_timeout of the last, but
        # the deadline bounds the whole head, not each read.
        server = PredictionServer(registry, idle_timeout=_IDLE)
        lines = [b"X-Dribble-%d: 1\r\n" % i for i in range(15)]

        def scenario(host, port):
            with socket.create_connection((host, port), timeout=5) as sock:
                sock.sendall(b"POST /v1/predict HTTP/1.1\r\n")
                received, closed_after = _dribble(sock, lines, 0.18)
            return received, closed_after, _fresh_predict_status(host, port)

        received, closed_after, status = _with_server(server, scenario)
        assert received == b""
        assert closed_after is not None, "the server kept reading the dribbled head"
        assert closed_after <= 1.0
        assert status == 200

    @pytest.mark.parametrize(
        "lengths, status",
        [
            ([b"23"], 200),
            ([b"23", b"23"], 200),
            ([b"+23"], 400),
            ([b"2_3"], 400),
            ([b"5", b"23"], 400),
        ],
        ids=["23", "23-twice", "plus-23", "2_3", "5-then-23"],
    )
    def test_content_length_is_one_plain_decimal(self, server, lengths, status):
        body = b'{"sequences":[["add"]]}'
        assert len(body) == 23
        head = b"POST /v1/predict HTTP/1.1\r\nConnection: close\r\n"
        head += b"".join(b"Content-Length: %s\r\n" % length for length in lengths)

        def scenario(host, port):
            with socket.create_connection((host, port), timeout=5) as sock:
                sock.sendall(head + b"\r\n" + body)
                return _read_until_closed(sock)

        response_head, _, payload = _with_server(server, scenario).partition(b"\r\n\r\n")
        assert response_head.startswith(b"HTTP/1.1 %d" % status)
        assert b"Connection: close" in response_head
        answer = json.loads(payload)
        if status == 200:
            assert answer["throughputs"] == [1.0]
        else:
            assert answer["error"]["code"] == "bad_http"

    def test_reload_over_http(self, tmp_path, other_mapping, server):
        def scenario(host, port):
            with _Client(host, port) as client:
                first = client.request("POST", "/v1/predict", body={"sequences": [["add"]]})
                (tmp_path / "toy.json").write_text(other_mapping.to_json())
                reload_response = client.request("POST", "/v1/reload", body=b"")
                second = client.request("POST", "/v1/predict", body={"sequences": [["add"]]})
                return first, reload_response, second

        first, reload_response, second = _with_server(server, scenario)
        assert reload_response[0] == 200 and reload_response[1]["reloaded"] == ["toy"]
        assert first[1]["throughputs"] != second[1]["throughputs"]

    def test_stats_surface(self, server):
        def scenario(host, port):
            with _Client(host, port) as client:
                client.request("POST", "/v1/predict", body={"sequences": [["add"], ["mul"]]})
                client.request("POST", "/v1/predict", body={"sequences": [["add"], ["mul"]]})
                return client.request("GET", "/v1/stats")

        status, stats = _with_server(server, scenario)
        assert status == 200
        assert stats["requests"]["predict"] == 2
        assert stats["predictions"] == {"total": 4, "coalesced": 0}
        assert stats["cache"]["hits"] == 2 and stats["cache"]["misses"] == 2
        assert stats["batches"] == {"count": 1, "entries": 2, "max": 2, "mean": 2.0}
        assert stats["latency"]["count"] == 2
        assert stats["mappings"]["toy"]["generation"] == 1
        assert stats["mappings"]["toy"]["fingerprint"]
