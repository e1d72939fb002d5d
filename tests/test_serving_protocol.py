"""Protocol error paths, the prediction cache, and registry hot reload.

The serving contract under test: every client mistake is a *structured* 4xx
JSON error — never a 500, never a hung connection — and the registry can
swap mapping artifacts under a running server with the cache invalidated
for exactly the reloaded ids.
"""

from __future__ import annotations

import asyncio
import http.client
import json

import pytest

from repro.core import Experiment, PortSpace, ServingError, ThreeLevelMapping
from repro.serving import (
    MappingRegistry,
    PredictionCache,
    PredictionServer,
    ProtocolError,
    canonical_sequence,
    load_mapping_artifact,
    parse_bind,
    parse_mapping_spec,
    parse_predict_request,
)
from repro.throughput import bottleneck_throughput_reference


@pytest.fixture
def mapping():
    return ThreeLevelMapping(
        PortSpace.numbered(3), {"add": {0b001: 1}, "mul": {0b110: 2}, "st": {0b011: 1}}
    )


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


class TestSequenceCanonicalization:
    def test_list_and_counts_agree(self):
        assert canonical_sequence(["a", "b", "a"]) == canonical_sequence({"a": 2, "b": 1})

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
        # the request fails up front, before anything is evaluated or cached.
        _expect_protocol_error(
            server, {"sequences": [["add"], ["fdiv"]]}, 400, "unknown_instruction"
        )
        assert server.stats.batches == 0
        assert len(server.cache) == 0

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
    def test_lru_eviction_order_and_bound(self):
        cache = PredictionCache(2)
        a, b, c = Experiment({"a": 1}), Experiment({"b": 1}), Experiment({"c": 1})
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
        cache.put("m", Experiment({"a": 1}), 1.0)
        assert len(cache) == 0
        assert cache.get("m", Experiment({"a": 1})) is None

    def test_invalidate_is_per_mapping(self):
        cache = PredictionCache(8)
        seq = Experiment({"a": 1})
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
        with pytest.raises(ServingError):
            load_mapping_artifact(missing)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ServingError):
            load_mapping_artifact(bad)
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"ports": ["P0"], "instructions": {"a": []}}))
        with pytest.raises(ServingError):
            load_mapping_artifact(wrong)

    def test_wrapped_artifact_accepted(self, tmp_path, mapping):
        path = tmp_path / "wrapped.json"
        path.write_text(json.dumps({"mapping": mapping.to_dict()}))
        assert load_mapping_artifact(path) == mapping

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
    """A tiny keep-alive HTTP client against an in-process server."""

    def __init__(self, host, port):
        self.conn = http.client.HTTPConnection(host, port, timeout=5)

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


class TestHttpErrorPaths:
    """The same contracts, end to end over a real socket: structured 4xx
    JSON, never a 500, never a hung connection."""

    def test_http_error_statuses_are_structured_4xx(self, server):
        def scenario(host, port):
            client = _Client(host, port)
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
            client = _Client(host, port)
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
            client = _Client(host, port)
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

    def test_reload_over_http(self, tmp_path, other_mapping, server):
        def scenario(host, port):
            client = _Client(host, port)
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
            client = _Client(host, port)
            client.request("POST", "/v1/predict", body={"sequences": [["add"], ["mul"]]})
            client.request("POST", "/v1/predict", body={"sequences": [["add"], ["mul"]]})
            return client.request("GET", "/v1/stats")

        status, stats = _with_server(server, scenario)
        assert status == 200
        assert stats["requests"]["predict"] == 2
        assert stats["cache"]["hits"] == 2 and stats["cache"]["misses"] == 2
        assert stats["batches"] == {"count": 1, "entries": 2, "max": 2, "mean": 2.0}
        assert stats["latency"]["count"] == 2
        assert stats["mappings"]["toy"]["generation"] == 1
        assert stats["mappings"]["toy"]["fingerprint"]
