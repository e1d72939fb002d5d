"""Wire protocol of the prediction server: requests, responses, errors.

The serving API is JSON over HTTP (see ``docs/serving.md`` for the full
reference).  This module is the *pure* part of that surface — parsing and
validating request payloads, canonicalizing instruction sequences, and the
structured error type — so every protocol rule is unit-testable without a
socket in sight.

Design rules:

* **Every client mistake is a structured 4xx.**  Malformed JSON, an unknown
  mapping id, an unknown instruction form, an oversized batch — each maps to
  a :class:`ProtocolError` carrying an HTTP status and a machine-readable
  ``code``, rendered as ``{"error": {"code": ..., "message": ...}}``.
  Nothing a client can send produces a 500 or a hung connection.
* **Sequences canonicalize to multisets.**  A sequence may be spelled as a
  list of instruction names (with repeats) or as a ``name -> count`` object;
  both canonicalize to the same name-sorted tuple of ``(name, count)``
  pairs — the items a :class:`repro.core.experiment.Experiment` of those
  counts iterates — which is the cache key and the evaluator's input, so
  no ``Experiment`` is built per sequence.  ``["a", "b", "a"]`` and ``{"a":
  2, "b": 1}`` hit the same cache line.  (PMEvo's throughput model
  abstracts from instruction order, so the multiset view loses nothing.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.errors import ServingError

__all__ = [
    "ProtocolError",
    "PredictRequest",
    "canonical_sequence",
    "parse_predict_request",
    "error_body",
]

#: Hard ceilings a request may not exceed (overridable per server).
DEFAULT_MAX_BATCH = 256
DEFAULT_MAX_SEQUENCE = 1024


class ProtocolError(ServingError):
    """A client-side protocol violation, mapped to one HTTP 4xx response.

    Parameters
    ----------
    status:
        The HTTP status code (always 4xx).
    code:
        A stable machine-readable identifier (``"bad_json"``,
        ``"unknown_mapping"``, ...); clients should dispatch on this, not on
        the human-readable message.
    message:
        A human-readable description of what was wrong with the request.
    """

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message


def error_body(code: str, message: str) -> dict:
    """The JSON body every error response carries."""
    return {"error": {"code": code, "message": message}}


def canonical_sequence(
    raw: Any, *, max_sequence: int = DEFAULT_MAX_SEQUENCE
) -> tuple[tuple[str, int], ...]:
    """Canonicalize one request sequence into its name-sorted ``(name,
    count)`` pairs, the items ``Experiment(counts)`` iterates.

    Accepts a list of instruction names (repeats allowed) or a ``name ->
    count`` object; rejects everything else with a :class:`ProtocolError`.
    """
    if isinstance(raw, list):
        if not raw:
            raise ProtocolError(400, "bad_sequence", "a sequence must not be empty")
        if len(raw) > max_sequence:
            raise ProtocolError(
                413,
                "sequence_too_long",
                f"sequence has {len(raw)} instructions; the limit is {max_sequence}",
            )
        counts: dict[str, int] = {}
        for name in raw:
            if not isinstance(name, str) or not name:
                raise ProtocolError(
                    400,
                    "bad_sequence",
                    f"sequence entries must be instruction names, got {name!r}",
                )
            counts[name] = counts.get(name, 0) + 1
        return tuple(sorted(counts.items()))
    if isinstance(raw, dict):
        if not raw:
            raise ProtocolError(400, "bad_sequence", "a sequence must not be empty")
        total = 0
        for name, count in raw.items():
            if not isinstance(name, str) or not name:
                raise ProtocolError(
                    400,
                    "bad_sequence",
                    f"sequence keys must be instruction names, got {name!r}",
                )
            if not isinstance(count, int) or isinstance(count, bool) or count <= 0:
                raise ProtocolError(
                    400,
                    "bad_sequence",
                    f"count for {name!r} must be a positive integer, got {count!r}",
                )
            total += count
        if total > max_sequence:
            raise ProtocolError(
                413,
                "sequence_too_long",
                f"sequence has {total} instructions; the limit is {max_sequence}",
            )
        return tuple(sorted(raw.items()))
    raise ProtocolError(
        400,
        "bad_sequence",
        "each sequence must be a list of instruction names or a "
        f"name -> count object, got {type(raw).__name__}",
    )


@dataclass
class PredictRequest:
    """A validated ``POST /v1/predict`` payload: each sequence is its
    :func:`canonical_sequence` tuple."""

    mapping_id: str | None
    sequences: list[tuple[tuple[str, int], ...]] = field(default_factory=list)


def parse_predict_request(
    payload: Any,
    *,
    max_batch: int = DEFAULT_MAX_BATCH,
    max_sequence: int = DEFAULT_MAX_SEQUENCE,
) -> PredictRequest:
    """Validate a decoded ``/v1/predict`` JSON document.

    ``payload`` is the result of ``json.loads`` on the request body (JSON
    decoding errors are the transport's ``bad_json``); everything structural
    is checked here.
    """
    if not isinstance(payload, dict):
        raise ProtocolError(
            400, "bad_request", f"request body must be a JSON object, got {type(payload).__name__}"
        )
    unknown = set(payload) - {"mapping", "sequences"}
    if unknown:
        raise ProtocolError(
            400, "bad_request", f"unknown request fields: {sorted(unknown)}"
        )
    mapping_id = payload.get("mapping")
    if mapping_id is not None and not isinstance(mapping_id, str):
        raise ProtocolError(
            400, "bad_request", f'"mapping" must be a string, got {type(mapping_id).__name__}'
        )
    try:
        raw_sequences = payload["sequences"]
    except KeyError:
        raise ProtocolError(400, "bad_request", 'missing required field "sequences"') from None
    if not isinstance(raw_sequences, list):
        raise ProtocolError(
            400,
            "bad_request",
            f'"sequences" must be a list, got {type(raw_sequences).__name__}',
        )
    if not raw_sequences:
        raise ProtocolError(400, "bad_request", '"sequences" must not be empty')
    if len(raw_sequences) > max_batch:
        raise ProtocolError(
            413,
            "batch_too_large",
            f"batch has {len(raw_sequences)} sequences; the limit is {max_batch}",
        )
    sequences = [
        canonical_sequence(raw, max_sequence=max_sequence) for raw in raw_sequences
    ]
    return PredictRequest(mapping_id=mapping_id, sequences=sequences)
