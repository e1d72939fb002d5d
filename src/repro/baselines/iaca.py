"""IACA-style vendor simulator baseline.

The Intel Architecture Code Analyzer models execution of a code snippet
"considering factors such as port usage, operand dependencies, and
instruction decoding bottlenecks" with unpublished internal knowledge.  Our
analogue simulates the experiment on a *replica* of the machine's own core
— same decompositions, same blocking dividers, same frontend and greedy
scheduler — but without the hidden quirk µops (the paper shows IACA shares
the BTx misprediction cluster with every other mapping-based predictor,
so even the vendor model does not capture those).

Because it replays the machine's scheduling instead of assuming an optimal
scheduler, this baseline tracks measurements better than the pure
analytical model as experiments grow longer — the Figure 6 effect.

It is only "provided" for the SKL preset: IACA exists solely for Intel
microarchitectures.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.errors import ISAError
from repro.core.experiment import Experiment
from repro.machine.config import ExecutionClass, MachineConfig
from repro.machine.measurement import Machine, MeasurementConfig

__all__ = ["IACAPredictor"]


def _vendor_model(config: MachineConfig) -> MachineConfig:
    """IACA's internal model: no hidden quirks, idealized port binding.

    The real IACA's scheduling differs from silicon in unknowable details;
    we model that mismatch by giving the replica a naive first-fit port
    binder instead of the machine's load-balancing one.
    """
    classes = {
        name: ExecutionClass(
            name=cls.name, uops=cls.uops, latency=cls.latency, hidden_uops=()
        )
        for name, cls in config.classes.items()
    }
    backend = replace(config.backend, port_policy="lowest_index")
    return MachineConfig(
        name=config.name,
        ports=config.ports,
        isa=config.isa,
        classes=classes,
        frontend=config.frontend,
        backend=backend,
        latency_overrides=dict(config.latency_overrides),
        clock_ghz=config.clock_ghz,
    )


class IACAPredictor:
    """Throughput prediction by simulating a vendor-internal core model."""

    SUPPORTED = ("SKL",)

    def __init__(self, machine: Machine):
        if machine.name not in self.SUPPORTED:
            supported = ", ".join(self.SUPPORTED)
            raise ISAError(
                f"IACA is only provided for Intel-style presets ({supported}), "
                f"not {machine.name!r}"
            )
        self.name = "IACA"
        # A noise-free internal machine with hidden quirks stripped: the
        # vendor model knows the real decompositions and pipeline shapes
        # but not the erratum-style quirks.
        self._model = Machine(
            _vendor_model(machine.config),
            MeasurementConfig(noisy=False),
            allocation=machine.allocation,
        )

    def predict(self, experiment: Experiment) -> float:
        return self._model.measure(experiment)

    def __repr__(self) -> str:
        return "IACAPredictor()"
