"""Exception hierarchy for the repro library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class MappingError(ReproError):
    """Raised for structurally invalid port mappings.

    Examples: an instruction with no µops, a µop that can execute on no
    port, an edge referring to an unknown instruction or port.
    """


class ExperimentError(ReproError):
    """Raised for invalid experiments (empty multisets, negative counts)."""


class ISAError(ReproError):
    """Raised for inconsistent ISA descriptions or unknown instruction forms."""


class MeasurementError(ReproError):
    """Raised when a machine measurement cannot be carried out."""


class SolverError(ReproError):
    """Raised when the LP solver fails to produce an optimal solution."""


class InferenceError(ReproError):
    """Raised when the evolutionary inference is misconfigured."""


class TransportError(ReproError):
    """Raised when a migration transport cannot make progress.

    Examples: the socket coordinator timed out waiting for the minimum
    number of workers, a worker sent a malformed or oversized frame, or a
    worker's protocol version does not match the coordinator's.
    """


class ServingError(ReproError):
    """Raised for prediction-serving misconfiguration and registry failures.

    Examples: a mapping registry spec with duplicate ids, an unreadable or
    malformed mapping artifact, or a hot reload against a file that no
    longer parses.  Client-side protocol violations use the subclass
    :class:`repro.serving.protocol.ProtocolError`, which additionally
    carries an HTTP status and a machine-readable error code.
    """


class CheckpointError(ReproError):
    """Raised for unreadable, corrupted, or mismatched checkpoints.

    Examples: a truncated or non-JSON snapshot file, an unknown format tag,
    or resuming with a configuration (or problem: instructions, ports,
    measurements) different from the one the checkpoint was written under.
    """
