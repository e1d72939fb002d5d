"""Core data model: ports, µops, port mappings, experiments, ISAs."""

from repro.core.errors import (
    CheckpointError,
    ExperimentError,
    ISAError,
    InferenceError,
    MappingError,
    MeasurementError,
    ReproError,
    ServingError,
    SolverError,
    TransportError,
)
from repro.core.experiment import Experiment, ExperimentSet, MeasuredExperiment
from repro.core.isa import ISA, InstructionForm, OperandKind, OperandSpec
from repro.core.mapping import ThreeLevelMapping, TwoLevelMapping
from repro.core.ports import PortSpace

__all__ = [
    "ReproError",
    "MappingError",
    "ExperimentError",
    "ISAError",
    "MeasurementError",
    "SolverError",
    "InferenceError",
    "TransportError",
    "ServingError",
    "CheckpointError",
    "Experiment",
    "MeasuredExperiment",
    "ExperimentSet",
    "ISA",
    "InstructionForm",
    "OperandKind",
    "OperandSpec",
    "TwoLevelMapping",
    "ThreeLevelMapping",
    "PortSpace",
]
