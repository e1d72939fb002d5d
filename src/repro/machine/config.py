"""Machine configuration: the ground truth a simulated processor executes.

A :class:`MachineConfig` fixes everything the paper's physical processors
fix in silicon: the execution ports, how each instruction form decomposes
into µops, which ports each µop may use, latencies, pipelining (blocking)
behaviour, and the front-end/scheduler shape.  The inference pipeline never
reads this — it only sees measured times through
:class:`repro.machine.measurement.Machine`.

Two deliberately modeled imperfections keep the reproduction honest:

* ``block > 1`` µops occupy their port for several cycles (divisions), which
  violates assumption 2 of the analytical model exactly as real dividers do;
* ``hidden_uops`` are executed by the simulator but *not* reported in the
  published ground-truth mapping, reproducing the paper's BTx family whose
  "measurable throughput does not agree with the throughput implied by the
  port usage" (Section 5.3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import ISAError, MappingError
from repro.core.isa import ISA, InstructionForm
from repro.core.mapping import ThreeLevelMapping
from repro.core.ports import PortSpace

__all__ = ["UopSpec", "ExecutionClass", "FrontendConfig", "BackendConfig", "MachineConfig", "DecodedUop"]


@dataclass(frozen=True)
class UopSpec:
    """One kind of µop in an execution class' decomposition.

    Attributes
    ----------
    ports:
        Names of the ports that can execute this µop.
    count:
        How many instances of this µop the instruction decomposes into.
    block:
        Cycles the chosen port stays busy per instance (1 = fully
        pipelined; >1 models dividers and similar units).
    """

    ports: tuple[str, ...]
    count: int = 1
    block: int = 1

    def __post_init__(self) -> None:
        if not self.ports:
            raise MappingError("a µop must be executable on at least one port")
        if self.count <= 0:
            raise MappingError(f"µop count must be positive, got {self.count}")
        if self.block <= 0:
            raise MappingError(f"µop block must be positive, got {self.block}")


@dataclass(frozen=True)
class ExecutionClass:
    """Ground-truth execution behaviour shared by a group of forms.

    Instruction forms point at an execution class through their
    ``semantic_class`` tag; this is how machine presets assign µop
    decompositions to hundreds of forms without per-form tables.
    """

    name: str
    uops: tuple[UopSpec, ...]
    latency: int = 1
    hidden_uops: tuple[UopSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.uops:
            raise MappingError(f"execution class {self.name!r} has no µops")
        if self.latency <= 0:
            raise MappingError(f"latency must be positive, got {self.latency}")


@dataclass(frozen=True)
class FrontendConfig:
    """Fetch/decode/dispatch shape of the simulated core.

    If a loop body's µops fit in the µop cache, dispatch runs at
    ``dispatch_width`` µops per cycle; otherwise the legacy decoders limit
    delivery to ``decode_width`` (Section 4.2 chooses loop bodies that stay
    µop-cache resident, so the distinction mostly matters for experiments
    that violate that guidance).
    """

    dispatch_width: int = 6
    decode_width: int = 4
    uop_cache_size: int = 1536

    def __post_init__(self) -> None:
        if self.dispatch_width <= 0 or self.decode_width <= 0:
            raise ISAError("frontend widths must be positive")
        if self.uop_cache_size < 0:
            raise ISAError("µop cache size must be non-negative")


@dataclass(frozen=True)
class BackendConfig:
    """Out-of-order engine shape of the simulated core.

    ``port_policy`` selects the scheduler's port-binding heuristic:
    ``"least_used"`` (default, balances issue counts) or ``"lowest_index"``
    (naive first-fit, used by the IACA-style baseline's internal model so
    vendor-simulator predictions deviate slightly from the machine).
    """

    scheduler_window: int = 97
    rob_size: int = 224
    retire_width: int = 4
    port_policy: str = "least_used"

    def __post_init__(self) -> None:
        if self.scheduler_window <= 0 or self.rob_size <= 0 or self.retire_width <= 0:
            raise ISAError("backend sizes must be positive")
        if self.port_policy not in ("least_used", "lowest_index"):
            raise ISAError(f"unknown port policy {self.port_policy!r}")


@dataclass(frozen=True)
class DecodedUop:
    """A µop as the simulator executes it: port mask + blocking cycles."""

    mask: int
    block: int


@dataclass
class MachineConfig:
    """Complete description of a simulated processor.

    Attributes
    ----------
    name:
        Display name (``"SKL"``, ``"ZEN"``, ``"A72"``).
    ports:
        The execution ports.
    isa:
        The instruction set this machine executes.
    classes:
        Execution classes keyed by name; every ``semantic_class`` occurring
        in the ISA must be present.
    latency_overrides:
        Optional per-``latency_class`` latency overrides (positive, like
        every latency: the simulator's issue stage relies on it).
    clock_ghz:
        Clock frequency used to convert cycles to wall time.
    """

    name: str
    ports: PortSpace
    isa: ISA
    classes: dict[str, ExecutionClass]
    frontend: FrontendConfig = field(default_factory=FrontendConfig)
    backend: BackendConfig = field(default_factory=BackendConfig)
    latency_overrides: dict[str, int] = field(default_factory=dict)
    clock_ghz: float = 3.0

    def __post_init__(self) -> None:
        if self.clock_ghz <= 0:
            raise ISAError(f"clock frequency must be positive, got {self.clock_ghz}")
        missing = {
            form.semantic_class
            for form in self.isa
            if form.semantic_class not in self.classes
        }
        if missing:
            raise ISAError(
                f"machine {self.name!r} lacks execution classes for {sorted(missing)}"
            )
        for cls in self.classes.values():
            for uop in tuple(cls.uops) + tuple(cls.hidden_uops):
                self.ports.mask(*uop.ports)  # validates port names
        for latency in self.latency_overrides.values():
            if latency <= 0:
                raise MappingError(f"latency must be positive, got {latency}")

    def execution_class(self, form: InstructionForm) -> ExecutionClass:
        """The execution class of an instruction form."""
        return self.classes[form.semantic_class]

    def latency_of(self, form: InstructionForm) -> int:
        """Result latency of a form (override first, class default second)."""
        override = self.latency_overrides.get(form.latency_class)
        if override is not None:
            return override
        return self.execution_class(form).latency

    def decode(self, form: InstructionForm) -> list[DecodedUop]:
        """All µops the simulator executes for one instance of ``form``.

        Includes hidden quirk µops; this is what the hardware *does*, not
        what the published mapping *says*.
        """
        cls = self.execution_class(form)
        decoded: list[DecodedUop] = []
        for spec in tuple(cls.uops) + tuple(cls.hidden_uops):
            mask = self.ports.mask(*spec.ports)
            decoded.extend(DecodedUop(mask, spec.block) for _ in range(spec.count))
        return decoded

    def ground_truth_mapping(self, isa: ISA | None = None) -> ThreeLevelMapping:
        """The *published* three-level port mapping (visible µops only).

        This is the analogue of the uops.info tables: accurate port usage
        for everything except the hidden quirks.  Blocking µops are
        published with their port-occupancy folded into the multiplicity
        (``count × block``), which is how throughput-measuring tables
        report non-pipelined units like dividers — the analytical model
        then reproduces their measured reciprocal throughput.
        """
        target = isa or self.isa
        assignment: dict[str, dict[int, int]] = {}
        for form in target:
            cls = self.execution_class(form)
            uops: dict[int, int] = {}
            for spec in cls.uops:
                mask = self.ports.mask(*spec.ports)
                uops[mask] = uops.get(mask, 0) + spec.count * spec.block
            assignment[form.name] = uops
        return ThreeLevelMapping(self.ports, assignment)
