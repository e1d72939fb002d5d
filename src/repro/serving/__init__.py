"""Prediction serving: an async HTTP/JSON API over inferred port mappings.

Inference produces a mapping once; downstream consumers (compilers,
llvm-mca-style analyzers, the baselines in ``src/repro/baselines/``) want
cheap per-basic-block throughput queries against it.  This package is that
serving path:

* :mod:`repro.serving.registry` — loads mapping artifacts under stable ids,
  precomputing each mapping's evaluation state; hot-reloadable.
* :mod:`repro.serving.cache` — a bounded LRU of per-sequence predictions.
* :mod:`repro.serving.protocol` — request validation, sequence
  canonicalization, structured 4xx errors.
* :mod:`repro.serving.server` — the stdlib-asyncio HTTP server: cache hits,
  then one batched evaluation of a request's misses on the event loop.

Run it with ``repro-pmevo serve --mapping skl.json``; see
``docs/serving.md``.
"""

from repro.serving.cache import PredictionCache
from repro.serving.protocol import ProtocolError, canonical_sequence, parse_predict_request
from repro.serving.registry import MappingRegistry, ServedMapping, parse_mapping_spec
from repro.serving.server import PredictionServer

__all__ = [
    "MappingRegistry",
    "PredictionCache",
    "PredictionServer",
    "ProtocolError",
    "ServedMapping",
    "canonical_sequence",
    "parse_mapping_spec",
    "parse_predict_request",
]
