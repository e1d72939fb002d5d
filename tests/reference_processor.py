"""The simulator's original issue stage, kept as a test oracle.

This is ``Processor.run`` as it was before the event-driven issue stage:
every cycle it rescans the whole scheduler window, oldest entry first, and
issues each ready µop to the least-used (or lowest-index) free allowed port.
It is slow but obviously faithful to the documented semantics, so
``tests/test_processor.py`` requires the production simulator to return
exactly what this loop returns, or to raise the same
:class:`MeasurementError`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codegen.assembly import InstructionInstance
from repro.core.errors import MeasurementError
from repro.core.isa import OperandKind
from repro.core.ports import indices_from_mask
from repro.machine.config import MachineConfig
from repro.machine.processor import SimulationResult

__all__ = ["ReferenceProcessor"]


@dataclass(frozen=True)
class _StaticInstr:
    """Pre-decoded, per-body-position instruction information."""

    uop_ports: tuple[tuple[int, ...], ...]  # allowed port indices per µop
    uop_blocks: tuple[int, ...]
    latency: int
    reads: tuple[int, ...]  # register keys (encoded ints)
    writes: tuple[int, ...]


def _regkey(kind: OperandKind, index: int) -> int:
    """Encode a register as a small int key (GPRs even, VECs odd)."""
    return index * 2 + (1 if kind is OperandKind.VEC else 0)


class ReferenceProcessor:
    """Executes instruction streams under a :class:`MachineConfig`."""

    def __init__(self, config: MachineConfig):
        self.config = config
        self._num_ports = config.ports.num_ports
        self._decode_cache: dict[str, tuple[tuple[tuple[int, ...], ...], tuple[int, ...], int]] = {}

    def _static(self, instance: InstructionInstance) -> _StaticInstr:
        form = instance.form
        cached = self._decode_cache.get(form.name)
        if cached is None:
            decoded = self.config.decode(form)
            ports = tuple(indices_from_mask(uop.mask) for uop in decoded)
            blocks = tuple(uop.block for uop in decoded)
            cached = (ports, blocks, self.config.latency_of(form))
            self._decode_cache[form.name] = cached
        uop_ports, uop_blocks, latency = cached
        reads = tuple(_regkey(r.kind, r.index) for r in instance.read_registers())
        writes = tuple(_regkey(r.kind, r.index) for r in instance.written_registers())
        return _StaticInstr(uop_ports, uop_blocks, latency, reads, writes)

    def run(
        self,
        body: list[InstructionInstance],
        iterations: int = 1,
        max_cycles: int = 2_000_000,
    ) -> SimulationResult:
        """Simulate ``iterations`` back-to-back executions of ``body``.

        Returns the total cycle count from first dispatch to last
        retirement.  Raises :class:`MeasurementError` if the stream does not
        finish within ``max_cycles`` (a safety net against configuration
        bugs, not an expected outcome).
        """
        if not body:
            raise MeasurementError("cannot simulate an empty loop body")
        if iterations <= 0:
            raise MeasurementError(f"iterations must be positive, got {iterations}")

        statics = [self._static(instance) for instance in body]
        body_len = len(body)
        total_instrs = body_len * iterations
        total_uops_per_body = sum(len(s.uop_ports) for s in statics)

        frontend = self.config.frontend
        backend = self.config.backend
        if total_uops_per_body <= frontend.uop_cache_size:
            dispatch_width = frontend.dispatch_width
        else:
            dispatch_width = frontend.decode_width
        window_capacity = backend.scheduler_window
        rob_capacity = backend.rob_size
        retire_width = backend.retire_width
        least_used_policy = backend.port_policy == "least_used"

        # Dynamic state ---------------------------------------------------
        reg_producer: dict[int, int] = {}  # register key -> dynamic instr id
        # Per dynamic instruction (dict keyed by id; ids are dense but the
        # alive set is bounded by the ROB, so dicts stay small):
        remaining_uops: dict[int, int] = {}
        completion: dict[int, int] = {}  # known once all µops issued
        latest_completion: dict[int, int] = {}
        deps: dict[int, tuple[int, ...]] = {}

        # Scheduler window: entries are [instr_id, allowed_ports, block].
        window: list[list] = []
        rob: list[int] = []  # dispatched, unretired instruction ids in order

        port_free_at = [0] * self._num_ports
        port_issue_count = [0] * self._num_ports

        next_dispatch = 0  # dynamic id of the next instruction to dispatch
        retired = 0
        total_uops = 0
        cycle = 0

        while retired < total_instrs:
            if cycle > max_cycles:
                raise MeasurementError(
                    f"simulation exceeded {max_cycles} cycles "
                    f"({retired}/{total_instrs} retired)"
                )

            # 1) Retire in order.
            retire_budget = retire_width
            while rob and retire_budget:
                head = rob[0]
                done = completion.get(head)
                if done is None or done > cycle:
                    break
                rob.pop(0)
                retired += 1
                retire_budget -= 1
                # Completion times stay around for dependence checks until
                # no later instruction can reference them; pruning by the
                # renamer below keeps reg_producer bounded instead.

            # 2) Dispatch up to the frontend width.
            dispatch_budget = dispatch_width
            while (
                dispatch_budget > 0
                and next_dispatch < total_instrs
                and len(rob) < rob_capacity
            ):
                static = statics[next_dispatch % body_len]
                num_uops = len(static.uop_ports)
                if len(window) + num_uops > window_capacity:
                    break
                if num_uops > dispatch_budget and dispatch_budget < dispatch_width:
                    break  # µops of one instruction dispatch together
                instr_id = next_dispatch
                next_dispatch += 1
                dispatch_budget -= num_uops
                total_uops += num_uops

                instr_deps = tuple(
                    {reg_producer[key] for key in static.reads if key in reg_producer}
                )
                deps[instr_id] = instr_deps
                for key in static.writes:
                    reg_producer[key] = instr_id
                remaining_uops[instr_id] = num_uops
                latest_completion[instr_id] = 0
                rob.append(instr_id)
                for uop_index in range(num_uops):
                    window.append(
                        [instr_id, static.uop_ports[uop_index], static.uop_blocks[uop_index]]
                    )

            # 3) Issue ready µops, oldest first, greedy port choice.
            free_ports = sum(
                1 for p in range(self._num_ports) if port_free_at[p] <= cycle
            )
            if free_ports and window:
                issued_positions: list[int] = []
                for pos, entry in enumerate(window):
                    if not free_ports:
                        break
                    instr_id, allowed, block = entry
                    ready = True
                    for dep in deps[instr_id]:
                        done = completion.get(dep)
                        if done is None or done > cycle:
                            ready = False
                            break
                    if not ready:
                        continue
                    best_port = -1
                    best_count = -1
                    for port in allowed:
                        if port_free_at[port] > cycle:
                            continue
                        if not least_used_policy:
                            best_port = port  # first-fit: lowest index wins
                            break
                        if best_port < 0 or port_issue_count[port] < best_count:
                            best_port = port
                            best_count = port_issue_count[port]
                    if best_port < 0:
                        continue
                    port_free_at[best_port] = cycle + block
                    port_issue_count[best_port] += 1
                    free_ports -= 1
                    issued_positions.append(pos)

                    static = statics[instr_id % body_len]
                    finish = cycle + static.latency
                    if finish > latest_completion[instr_id]:
                        latest_completion[instr_id] = finish
                    remaining_uops[instr_id] -= 1
                    if remaining_uops[instr_id] == 0:
                        completion[instr_id] = latest_completion[instr_id]
                        del remaining_uops[instr_id]
                        del latest_completion[instr_id]
                if issued_positions:
                    for pos in reversed(issued_positions):
                        del window[pos]

            cycle += 1

        return SimulationResult(cycles=cycle, instructions=total_instrs, uops=total_uops)
