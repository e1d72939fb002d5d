"""Steady-state throughput measurement (Definition 1, Section 4.2).

:class:`Machine` wraps a simulated processor behind the *only* interface the
inference pipeline may use: "give me the steady-state cycles per iteration
for this experiment".  The measurement procedure follows the paper:

1. instantiate the experiment's instruction forms with operands from the
   dependency-avoiding register allocator,
2. unroll to ~50 instructions so the loop is µop-cache resident and loop
   overhead is negligible,
3. run until steady state — implemented by differencing the cycle counts
   of a short and a long run, which cancels warm-up and drain exactly.
   Both come from one :meth:`~repro.machine.processor.Processor.run` call:
   the two runs are one run until the short one has dispatched its last
   instruction, so the simulator steps that prefix once and finishes the
   short run from a copy of its state, with the cycle counts of two
   separate runs,
4. convert to wall time at the configured clock, apply measurement noise
   (clock jitter plus occasional interference spikes), convert back via
   ``t* = time × frequency / #instances`` and report the **median** over
   several repetitions, like the paper does to tame frequency fluctuations.

Measurements are memoized per experiment: re-measuring the same multiset
returns the same value, as the pipeline assumes.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass, replace

import numpy as np

from repro.codegen.loop import build_loop_body
from repro.codegen.regalloc import AllocationConfig
from repro.core.errors import MeasurementError
from repro.core.experiment import Experiment, ExperimentSet
from repro.core.isa import ISA
from repro.core.mapping import ThreeLevelMapping
from repro.machine.config import MachineConfig
from repro.machine.processor import Processor

__all__ = ["MeasurementConfig", "Machine"]


@dataclass(frozen=True)
class MeasurementConfig:
    """Knobs of the measurement harness.

    ``jitter_sigma`` is the relative standard deviation of the multiplicative
    timing noise; ``spike_probability``/``spike_scale`` model occasional slow
    runs from interference, which the median over ``repetitions`` suppresses.
    Setting ``noisy=False`` disables all noise (useful for tests).
    """

    warmup_iterations: int = 6
    measure_iterations: int = 10
    repetitions: int = 5
    jitter_sigma: float = 0.004
    spike_probability: float = 0.03
    spike_scale: float = 1.25
    noisy: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.warmup_iterations < 1 or self.measure_iterations < 1:
            raise MeasurementError("iteration counts must be at least 1")
        if self.repetitions < 1:
            raise MeasurementError("need at least one repetition")
        if not 0.0 <= self.spike_probability < 1.0:
            raise MeasurementError("spike probability must be in [0, 1)")


class Machine:
    """A processor under test, observable only through timing.

    Parameters
    ----------
    config:
        The (hidden) machine description.
    measurement:
        Measurement harness configuration.
    allocation:
        Register-file shape for operand allocation; defaults are appropriate
        for the bundled presets.
    """

    def __init__(
        self,
        config: MachineConfig,
        measurement: MeasurementConfig | None = None,
        allocation: AllocationConfig | None = None,
    ):
        self.config = config
        self.measurement = measurement or MeasurementConfig()
        self.allocation = allocation
        self.processor = Processor(config)
        self._cache: dict[Experiment, float] = {}
        self.simulated_instructions = 0

    @property
    def name(self) -> str:
        return self.config.name

    @property
    def isa(self) -> ISA:
        return self.config.isa

    def ground_truth_mapping(self) -> ThreeLevelMapping:
        """The published ground-truth mapping (for validation/baselines only).

        The inference pipeline must never call this; it exists so the
        evaluation can compare against a uops.info-style oracle.
        """
        return self.config.ground_truth_mapping()

    # -- core measurement --------------------------------------------------

    def _steady_state_cycles(self, experiment: Experiment) -> float:
        """Noise-free steady-state cycles per experiment instance."""
        body, unroll = build_loop_body(self.config.isa, experiment, allocation=self.allocation)
        warm = self.measurement.warmup_iterations
        short_run, long_run = self.processor.run(
            body, (warm, warm + self.measurement.measure_iterations)
        )
        self.simulated_instructions += short_run.instructions + long_run.instructions
        delta_cycles = long_run.cycles - short_run.cycles
        if delta_cycles <= 0:
            raise MeasurementError(
                f"non-positive steady-state cycle delta for {experiment!r}"
            )
        per_iteration = delta_cycles / self.measurement.measure_iterations
        return per_iteration / unroll

    def _noise_rng(self, experiment: Experiment) -> np.random.Generator:
        """Noise generator derived from (seed, experiment).

        Seeding per experiment — instead of drawing from one shared stream —
        makes a measurement's noise independent of *measurement order*, like
        re-running a benchmark on hardware: the same experiment on the same
        machine yields the same reading no matter what ran before it.
        """
        digest = hashlib.sha256(repr(tuple(experiment)).encode()).digest()
        return np.random.default_rng(
            (self.measurement.seed, int.from_bytes(digest[:8], "little"))
        )

    def measure(self, experiment: Experiment) -> float:
        """Measured throughput t*(e) in cycles per experiment instance.

        Applies the timing-noise model and reports the median over the
        configured repetitions; results are memoized.
        """
        cached = self._cache.get(experiment)
        if cached is not None:
            return cached
        true_cycles = self._steady_state_cycles(experiment)
        if not self.measurement.noisy:
            self._cache[experiment] = true_cycles
            return true_cycles

        rng = self._noise_rng(experiment)
        samples = []
        for _ in range(self.measurement.repetitions):
            time = true_cycles / self.config.clock_ghz  # arbitrary time unit
            time *= 1.0 + rng.normal(0.0, self.measurement.jitter_sigma)
            if rng.random() < self.measurement.spike_probability:
                time *= self.measurement.spike_scale
            samples.append(max(time * self.config.clock_ghz, 1e-9))
        value = float(statistics.median(samples))
        self._cache[experiment] = value
        return value

    def measure_many(self, experiments: list[Experiment]) -> ExperimentSet:
        """Measure a list of experiments into an :class:`ExperimentSet`."""
        result = ExperimentSet()
        for experiment in experiments:
            result.add(experiment, self.measure(experiment))
        return result

    def calibrate(
        self,
        probe: Experiment | None = None,
        stability: float = 0.01,
        max_iterations: int = 64,
    ) -> "Machine":
        """Choose the measurement length empirically (Section 4.2).

        The paper picks the loop bound "to ensure that the loop runs for a
        specific time that guarantees steady-state execution", with that
        time "estimated empirically for the processor under test by
        comparing the measurement stability for different times".  This
        method reproduces the procedure: starting from the configured
        ``measure_iterations``, it doubles the measured iteration count
        until two consecutive lengths agree to within ``stability``
        (relative), then returns a new :class:`Machine` configured with
        the first stable length.  The returned machine shares nothing with
        this one (fresh cache and RNG).
        """
        if not 0.0 < stability < 1.0:
            raise MeasurementError(f"stability must be in (0, 1), got {stability}")
        if probe is None:
            probe = Experiment({self.config.isa.names[0]: 1})

        def cycles_at(measure_iterations: int) -> float:
            # Noise-free, so the trial never reads the noise fields it keeps.
            trial = replace(
                self.measurement,
                measure_iterations=measure_iterations,
                repetitions=1,
                noisy=False,
            )
            return Machine(self.config, trial, allocation=self.allocation).measure(probe)

        iterations = self.measurement.measure_iterations
        previous = cycles_at(iterations)
        while iterations * 2 <= max_iterations:
            current = cycles_at(iterations * 2)
            if abs(current - previous) <= stability * max(previous, 1e-12):
                break
            previous = current
            iterations *= 2
        else:
            raise MeasurementError(
                f"measurements did not stabilize within {max_iterations} iterations"
            )
        calibrated = replace(self.measurement, measure_iterations=iterations)
        return Machine(self.config, calibrated, allocation=self.allocation)

    # -- convenience -------------------------------------------------------

    def describe(self) -> str:
        """Short human-readable summary (used by the Table 1 bench)."""
        cfg = self.config
        return (
            f"{cfg.name}: {cfg.ports.num_ports} ports {list(cfg.ports.names)}, "
            f"{len(cfg.isa)} instruction forms, {cfg.clock_ghz:.1f} GHz, "
            f"window={cfg.backend.scheduler_window}, "
            f"dispatch={cfg.frontend.dispatch_width}"
        )

    def __repr__(self) -> str:
        return f"Machine({self.config.name!r})"
