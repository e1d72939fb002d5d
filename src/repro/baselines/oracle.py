"""uops.info-style oracle predictor.

Abel and Reineke's uops.info provides measured per-instruction port usage
for Intel cores — in our setting, the machine's *published* ground-truth
mapping (visible µops; hidden quirks and blocking behaviour excluded, since
per-port µop counters cannot see either).  Throughput prediction is the
analytical model over that mapping: a :class:`MappingPredictor` that only
chooses which mapping.

This is the strongest mapping-based baseline and is only "available" for
the SKL preset, mirroring the paper (uops.info only covers Intel).
"""

from __future__ import annotations

from repro.core.errors import ISAError
from repro.machine.measurement import Machine
from repro.throughput.predictor import MappingPredictor

__all__ = ["UopsInfoPredictor"]


class UopsInfoPredictor(MappingPredictor):
    """Analytical throughput from the machine's published port mapping."""

    #: Machines uops.info covers, as in the paper's evaluation.
    SUPPORTED = ("SKL",)

    def __init__(self, machine: Machine):
        if machine.name not in self.SUPPORTED:
            raise ISAError(
                f"uops.info-style data is only available for {self.SUPPORTED}, "
                f"not {machine.name!r}"
            )
        super().__init__(machine.ground_truth_mapping(), name="uops.info")

    def __repr__(self) -> str:
        return "UopsInfoPredictor()"
