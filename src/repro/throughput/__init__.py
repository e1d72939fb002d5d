"""Analytical throughput models: LP (Definition 3) and bottleneck (Eq. 1)."""

from repro.throughput.batched import BatchedThroughputEvaluator, FixedMappingEvaluator
from repro.throughput.bottleneck import (
    bottleneck_rows,
    bottleneck_throughput,
    bottleneck_throughput_dense,
    bottleneck_throughput_reference,
)
from repro.throughput.lp import lp_throughput, lp_throughput_masses
from repro.throughput.predictor import (
    MappingPredictor,
    ThroughputPredictor,
    predict_many,
)

__all__ = [
    "bottleneck_rows",
    "bottleneck_throughput",
    "bottleneck_throughput_dense",
    "bottleneck_throughput_reference",
    "lp_throughput",
    "lp_throughput_masses",
    "BatchedThroughputEvaluator",
    "FixedMappingEvaluator",
    "MappingPredictor",
    "ThroughputPredictor",
    "predict_many",
]
