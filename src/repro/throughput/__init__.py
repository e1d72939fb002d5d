"""Analytical throughput models: LP (Definition 3) and bottleneck (Eq. 1)."""

from repro.throughput.batched import (
    BatchedThroughputEvaluator,
    FixedMappingEvaluator,
    PackedWorkspace,
)
from repro.throughput.bottleneck import (
    EXACT_MASS_LIMIT,
    bottleneck_rows,
    bottleneck_throughput,
    bottleneck_throughput_dense,
    bottleneck_throughput_reference,
)
from repro.throughput.lp import LPProblem, build_lp, lp_throughput, lp_throughput_masses
from repro.throughput.predictor import (
    MappingPredictor,
    ThroughputPredictor,
    predict_many,
)

__all__ = [
    "EXACT_MASS_LIMIT",
    "bottleneck_rows",
    "bottleneck_throughput",
    "bottleneck_throughput_dense",
    "bottleneck_throughput_reference",
    "lp_throughput",
    "lp_throughput_masses",
    "build_lp",
    "LPProblem",
    "BatchedThroughputEvaluator",
    "FixedMappingEvaluator",
    "PackedWorkspace",
    "MappingPredictor",
    "ThroughputPredictor",
    "predict_many",
]
