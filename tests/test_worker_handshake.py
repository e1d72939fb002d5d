"""A worker's handshake: the problem loader raises one error type, and a
coordinator that never completes the handshake cannot keep a worker
re-attaching forever.

:func:`~repro.pmevo.transport.evolver_from_jsonable` turns a setup frame
into an evolver; a malformed problem must read as a failed handshake, so it
may raise :class:`TransportError` and nothing else (hypothesis-fuzzed, as
``tests/test_checkpoint.py`` fuzzes the state loader).  A failed handshake
spends the worker's reconnect budget like a refused connect, so a worker
pointed at something that is not a coordinator gives up with an error.
"""

from __future__ import annotations

import copy
import json
import socket
import struct
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PortSpace, TransportError
from repro.pmevo import EvolutionConfig, PortMappingEvolver, run_worker
from planted_truth import measurements_from_truth
from repro.pmevo.transport import evolver_from_jsonable, problem_to_jsonable, recv_frame


def _evolver(names=("ad", "mu", "st")) -> PortMappingEvolver:
    uops = ({0b011: 1}, {0b100: 2}, {0b011: 1, 0b100: 1})
    truth = dict(zip(names, uops))
    measured, singles = measurements_from_truth(truth, names, 3)
    return PortMappingEvolver(
        PortSpace.numbered(3), measured, singles, EvolutionConfig(population_size=8)
    )


def _problem() -> dict:
    return json.loads(json.dumps(problem_to_jsonable(_evolver())))


def _paths(node, prefix=()):
    """Every key path into a JSON document, the empty path included."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, (*prefix, key))


def _with(path, value) -> dict:
    """The valid problem with the field at ``path`` replaced by ``value``."""
    if not path:
        return value
    document = copy.deepcopy(PROBLEM)
    node = document
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return document


PROBLEM = _problem()
FIELDS = list(_paths(PROBLEM))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=12,
)


def test_the_valid_problem_loads():
    evolver = evolver_from_jsonable(PROBLEM)
    assert problem_to_jsonable(evolver) == PROBLEM


# Each of these once escaped the loader as another exception type.
@pytest.mark.parametrize(
    "path, value",
    [
        (("experiments", 0, "throughput"), 0),  # ExperimentError
        (("experiments", 0, "counts", "ad"), 1.5),  # ExperimentError
        (("experiments",), []),  # InferenceError
        (("ports",), ["P0", "P0", "P1"]),  # MappingError
        (("singleton_throughputs",), [0.5, 2.0, 1.0]),  # AttributeError
        (("config", "population_size"), 1),  # CheckpointError
    ],
    ids=["zero-throughput", "fractional-count", "no-experiments", "duplicate-ports",
         "singles-as-list", "bad-config"],
)
def test_malformed_problem_raises_transport_error(path, value):
    with pytest.raises(TransportError, match="malformed problem payload"):
        evolver_from_jsonable(_with(path, value))


# The empty path swaps in a whole JSON value; any other path swaps one field
# of a valid problem, at any depth.
@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FIELDS), JSON_VALUES)
def test_any_json_in_any_field_loads_or_raises_transport_error(path, value):
    try:
        evolver_from_jsonable(json.loads(json.dumps(_with(path, value))))
    except TransportError:
        pass


class _FakeCoordinator:
    """Answers every hello with ``reply`` and hangs up, counting attaches."""

    def __init__(self, reply: bytes):
        self.reply = reply
        self.attaches = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.1)
        self.address = self._listener.getsockname()[:2]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def __enter__(self) -> "_FakeCoordinator":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
        self._listener.close()

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                sock, _ = self._listener.accept()
            except TimeoutError:
                continue
            with sock:
                self.attaches += 1
                sock.settimeout(5.0)
                try:
                    recv_frame(sock)  # hello
                    sock.sendall(self.reply)
                except (OSError, TransportError):
                    pass


def _frame(message: dict) -> bytes:
    payload = json.dumps(message).encode()
    return struct.pack(">I", len(payload)) + payload


@pytest.mark.parametrize(
    "reply",
    [
        _frame({"type": "setup", "problem": {"ports": 3}}),
        b"HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
    ],
    ids=["bad-setup", "http-400"],
)
def test_failed_handshakes_spend_the_reconnect_budget(reply):
    # The initial connect succeeds, so only the reconnect budget bounds the
    # worker: the first attach plus three attempts, within the 2 s window.
    with _FakeCoordinator(reply) as coordinator:
        start = time.monotonic()
        with pytest.raises(TransportError, match="no handshake"):
            run_worker(
                *coordinator.address,
                max_reconnect_attempts=3,
                reconnect_window=2.0,
                jitter_seed=1,
            )
        elapsed = time.monotonic() - start
    assert 1 <= coordinator.attaches <= 4
    assert elapsed < 3.5


def test_a_job_the_evolver_refuses_reads_as_a_lost_connection():
    # A valid setup, then a job whose island population is over other
    # instruction names: the evolver raises MappingError, which must end
    # the connection, not the worker.  With no reconnect budget a worker
    # that has served exits 0.
    state = _evolver(("xa", "xb", "xc")).init_state().to_jsonable()
    job = {"type": "job", "job_id": 1, "generations": 1, "islands": [[0, state]]}
    reply = _frame({"type": "setup", "problem": PROBLEM}) + _frame(job)
    with _FakeCoordinator(reply) as coordinator:
        assert run_worker(*coordinator.address, max_reconnect_attempts=0, jitter_seed=1) == 0
    assert coordinator.attaches == 1
