"""Cycle-level out-of-order processor simulator.

This is the library's stand-in for the paper's physical test machines.  It
executes concrete instruction sequences against a hidden ground-truth port
mapping (the :class:`~repro.machine.config.MachineConfig`) with:

* an in-order frontend delivering µops at the dispatch width (µop-cache
  resident loops) or the decode width (larger loops),
* register renaming — only true read-after-write dependencies stall,
* a finite scheduler window from which *ready* µops issue **greedily,
  oldest first**, to the least-used free allowed port — a realistic
  heuristic, deliberately not the optimal scheduler the analytical model
  assumes (this gap is what the paper's Figure 6 measures),
* per-port pipelines: one new µop per port per cycle, except ``block > 1``
  µops (dividers) that keep their port busy for several cycles,
* in-order retirement bounded by the retire width and ROB capacity.

The simulator is intentionally not a model of any real commercial core; it
is a *plausible* OOO core whose observable throughput behaviour has the same
structure real cores exhibit with respect to their port mapping.

Event-driven issue
------------------
A cycle costs time in proportion to the µops it moves, not to the size of
the scheduler window.  Until it issues, a dispatched µop is in one of three
places:

* waiting for a producer that has not issued all of its µops, so its
  completion cycle is still unknown; that producer's last issue wakes it;
* in a heap ordered by the cycle its last producer completes;
* from that cycle on, in the *ready queue* of its port class (the µops
  with the same allowed ports and blocking), a heap ordered by window
  position.

Each issue takes the oldest queue head among the classes whose ports
overlap the still-free ports.  That is exactly the µop an oldest-first scan
of the whole window would issue next, for two reasons.  The free set only
shrinks within a cycle, so a µop the scan passed for lack of a port could
not issue later in that cycle either.  And no µop becomes ready in the
middle of a cycle: a producer whose last µop issues in cycle ``c``
completes at ``c + latency`` ≥ ``c + 1``, because :class:`MachineConfig`
rejects latencies below 1.  A cycle that retires, dispatches and issues
nothing is followed directly by the next cycle at which anything can
change.  ``tests/test_simulator_golden.py`` pins the results, and
``tests/test_processor.py`` checks them against the original window scan.

Shared runs
-----------
A measurement runs one body for a short and a long stretch (Section 4.2),
and the two runs are the same run until the short one dispatches its last
instruction.  So :meth:`Processor.run` takes several run lengths, decodes
the body once and simulates the longest run from the start.  Inside the
dispatch stage of the cycle in which it has dispatched all of a shorter
run's instructions, it copies its state: the ready queues, the
per-instruction lists cut to the shorter run, the waiting heap and the
dependents' lists, the busy ports and issue counts, the counters and that
cycle's start.  The shorter run finishes from the copy, beginning at that
cycle's issue stage, with nothing left to dispatch.  The copy is taken
inside the dispatch stage and not at a cycle boundary because an
instruction without µops costs no dispatch bandwidth, so no bound on how
many instructions one cycle dispatches tells in advance in which cycle a
run diverges.  Every result and every error equals that of a separate run
of each length.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from dataclasses import dataclass
from heapq import heappop, heappush

from repro.codegen.assembly import InstructionInstance
from repro.core.errors import MeasurementError
from repro.core.isa import InstructionForm, OperandKind
from repro.core.ports import indices_from_mask
from repro.machine.config import MachineConfig

__all__ = ["Processor", "SimulationResult"]

#: Completion cycle of an instruction whose µops have not all issued.
_PENDING = sys.maxsize


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of simulating an instruction stream to completion."""

    cycles: int
    instructions: int
    uops: int


@dataclass(frozen=True)
class _DecodedBody:
    """A loop body, decoded once per :meth:`Processor.run` call and shared
    by every run length the call simulates.

    Port classes are the distinct ``(port mask, block)`` pairs of the
    body's µops.  Everything else is indexed by body position.
    """

    classes: tuple[tuple[int, int], ...]  # (port mask, block) per class
    uop_classes: tuple[tuple[int, ...], ...]  # class id of each µop, in window order
    latencies: tuple[int, ...]
    #: Ascending read-after-write distances: dynamic instruction ``i`` reads
    #: the results of instructions ``i - d`` (those that exist).
    distances: tuple[tuple[int, ...], ...]


@dataclass
class _Run:
    """The dynamic state of a run, as of some point in one of its cycles.

    The per-instruction lists are indexed by dynamic instruction id, and
    the ROB is the id range ``[retired, dispatched)``, since dispatch and
    retirement are in order.  Until it issues, a dispatched µop is waiting
    on producers (``unresolved``, ``ready_at`` and the producers'
    ``dependents``), in the ``waiting`` heap of ``(ready cycle, instr)``,
    or in the ready queue of its port class.  ``start`` is the current
    cycle's ``(retired, dispatched, window)`` at its beginning.
    """

    queues: list[list[int]]
    completion: list[int]  # cycle of the last µop's result, or _PENDING
    unissued: list[int]  # µops not yet issued
    unresolved: list[int]  # producers with unknown completion
    ready_at: list[int]  # latest known producer completion
    dependents: dict[int, list[int]]  # producer -> waiting consumers
    waiting: list[tuple[int, int]]
    busy_until: dict[int, int]  # port -> cycle its blocking µop frees it
    port_issue_count: list[int]
    dispatched: int = 0
    retired: int = 0
    window: int = 0  # µops dispatched but not issued
    cycle: int = 0
    start: tuple[int, int, int] = (0, 0, 0)

    @classmethod
    def empty(cls, num_classes: int, num_ports: int, total_instrs: int) -> _Run:
        """A run of ``total_instrs`` instructions before its first cycle."""
        return cls(
            [[] for _ in range(num_classes)],
            [_PENDING] * total_instrs,
            [0] * total_instrs,
            [0] * total_instrs,
            [0] * total_instrs,
            {},
            [],
            {},
            [0] * num_ports,
        )

    def fork(
        self, total_instrs: int, retired: int, window: int, cycle: int, start: tuple[int, int, int]
    ) -> _Run:
        """A copy of this state, with the given counters, for a run of
        ``total_instrs`` instructions that has just dispatched its last."""
        return _Run(
            [list(queue) for queue in self.queues],
            self.completion[:total_instrs],
            self.unissued[:total_instrs],
            self.unresolved[:total_instrs],
            self.ready_at[:total_instrs],
            {producer: list(consumers) for producer, consumers in self.dependents.items()},
            list(self.waiting),
            dict(self.busy_until),
            list(self.port_issue_count),
            total_instrs,
            retired,
            window,
            cycle,
            start,
        )


def _regkey(kind: OperandKind, index: int) -> int:
    """Encode a register as a small int key (GPRs even, VECs odd)."""
    return index * 2 + (1 if kind is OperandKind.VEC else 0)


class Processor:
    """Executes instruction streams under a :class:`MachineConfig`."""

    def __init__(self, config: MachineConfig):
        self.config = config
        self._num_ports = config.ports.num_ports
        # form name -> ((port mask, block) per µop, latency)
        self._form_cache: dict[str, tuple[tuple[tuple[int, int], ...], int]] = {}

    def _form(self, form: InstructionForm) -> tuple[tuple[tuple[int, int], ...], int]:
        cached = self._form_cache.get(form.name)
        if cached is None:
            uops = tuple((uop.mask, uop.block) for uop in self.config.decode(form))
            cached = (uops, self.config.latency_of(form))
            self._form_cache[form.name] = cached
        return cached

    def _decode(self, body: list[InstructionInstance]) -> _DecodedBody:
        class_ids: dict[tuple[int, int], int] = {}
        uop_classes = []
        latencies = []
        for instance in body:
            uops, latency = self._form(instance.form)
            uop_classes.append(tuple(class_ids.setdefault(uop, len(class_ids)) for uop in uops))
            latencies.append(latency)

        # The loop repeats, so before the first position every register's
        # latest writer is its last writer in the previous iteration.
        reads = [{_regkey(r.kind, r.index) for r in i.read_registers()} for i in body]
        writes = [{_regkey(r.kind, r.index) for r in i.written_registers()} for i in body]
        last_writer = {key: pos - len(body) for pos, keys in enumerate(writes) for key in keys}
        distances = []
        for pos, (read_keys, write_keys) in enumerate(zip(reads, writes)):
            distances.append(
                tuple(sorted({pos - last_writer[key] for key in read_keys if key in last_writer}))
            )
            for key in write_keys:
                last_writer[key] = pos
        return _DecodedBody(tuple(class_ids), tuple(uop_classes), tuple(latencies), tuple(distances))

    def run(
        self,
        body: list[InstructionInstance],
        iterations: Sequence[int],
        max_cycles: int = 2_000_000,
    ) -> list[SimulationResult]:
        """Simulate back-to-back executions of ``body``, once per run length.

        ``iterations`` lists run lengths in loop iterations, in any order and
        with repeats.  Returns one result per length, in the order asked,
        each equal to a separate run of that length: the total cycle count
        from first dispatch to last retirement.  The body is decoded once,
        and only the longest run is simulated from the start; every shorter
        run forks off it where it stops dispatching (see the module
        docstring).  Raises the :class:`MeasurementError` that separate runs
        in the given order would raise first: a non-positive length, or a
        run that does not finish within ``max_cycles`` (a safety net against
        configuration bugs, not an expected outcome).

        Each cycle retires in order, dispatches in order, then issues.  The
        issue stage never scans the scheduler window: an instruction whose
        producers have all completed by the current cycle has its µops in
        the ready queue of their port class, ordered by window position,
        and each issue takes the oldest head among the classes that can
        still use a free port — the choice an oldest-first scan of the
        window makes (see the module docstring for why).  The port itself
        is the least-used free allowed port (or the lowest-index one under
        the ``lowest_index`` policy), ties to the lowest index.  When a
        cycle retires, dispatches and issues nothing, the clock jumps to
        the earliest of the ROB head's completion, the next cycle a blocked
        port frees and the next cycle a waiting instruction becomes ready;
        it never jumps past ``max_cycles + 1``, where the guard raises.
        """
        if not body:
            raise MeasurementError("cannot simulate an empty loop body")
        lengths = list(iterations)
        # Separate runs would stop at the first non-positive length, so the
        # lengths before it are simulated, and their errors come first.
        valid = next((i for i, n in enumerate(lengths) if n <= 0), len(lengths))
        outcomes = self._simulate(body, sorted(set(lengths[:valid])), max_cycles) if valid else {}
        for count in lengths[:valid]:
            if isinstance(outcomes[count], str):
                raise MeasurementError(outcomes[count])
        if valid < len(lengths):
            raise MeasurementError(f"iterations must be positive, got {lengths[valid]}")
        return [outcomes[count] for count in lengths]

    def _simulate(
        self, body: list[InstructionInstance], lengths: list[int], max_cycles: int
    ) -> dict[int, SimulationResult | str]:
        """A separate run's result, or its error message, per ascending length."""
        decoded = self._decode(body)
        body_len = len(body)
        *shorter, longest = lengths
        main = _Run.empty(len(decoded.classes), self._num_ports, longest * body_len)
        cycle, retired, forked = self._advance(
            decoded, main, longest * body_len, max_cycles, [n * body_len for n in shorter]
        )
        ends = {longest: (cycle, retired)}
        for count, run in zip(shorter, forked):
            ends[count] = self._advance(decoded, run, count * body_len, max_cycles)[:2]
        # The longest run stopped at the guard before these forked off, and
        # up to there they are the same run.
        for count in shorter[len(forked) :]:
            ends[count] = (cycle, retired)

        uops_per_body = sum(map(len, decoded.uop_classes))
        outcomes: dict[int, SimulationResult | str] = {}
        for count, (cycle, retired) in ends.items():
            total = count * body_len
            if retired < total:
                outcomes[count] = (
                    f"simulation exceeded {max_cycles} cycles ({retired}/{total} retired)"
                )
            else:
                outcomes[count] = SimulationResult(cycle, total, uops_per_body * count)
        return outcomes

    def _advance(
        self,
        decoded: _DecodedBody,
        run: _Run,
        total_instrs: int,
        max_cycles: int,
        forks: Sequence[int] = (),
    ) -> tuple[int, int, list[_Run]]:
        """Step ``run`` until it retires ``total_instrs`` instructions or
        passes ``max_cycles``.

        Returns the final cycle, the retired count and one copy of the
        state per entry of ``forks`` (ascending instruction counts below
        ``total_instrs``), taken when ``dispatched`` reaches it.  A run that
        enters with all of its instructions dispatched is such a copy: it
        resumes at the issue stage of the cycle it was taken in.
        """
        body_len = len(decoded.latencies)
        num_uops = [len(classes) for classes in decoded.uop_classes]

        frontend = self.config.frontend
        backend = self.config.backend
        if sum(num_uops) <= frontend.uop_cache_size:
            dispatch_width = frontend.dispatch_width
        else:
            dispatch_width = frontend.decode_width
        window_capacity = backend.scheduler_window
        rob_capacity = backend.rob_size
        retire_width = backend.retire_width
        least_used_policy = backend.port_policy == "least_used"

        # Ready queues hold window keys ``instr << shift | uop index``, so
        # integer order is window order.
        shift = max(num_uops).bit_length()
        queues = run.queues
        classes = [
            (queue, mask, block, indices_from_mask(mask))
            for queue, (mask, block) in zip(queues, decoded.classes)
        ]
        uop_queues = [tuple(queues[c] for c in ids) for ids in decoded.uop_classes]
        latencies = decoded.latencies
        distances = decoded.distances

        def release(instr: int) -> None:
            """Move an instruction's µops into their ready queues."""
            key = instr << shift
            for queue in uop_queues[instr % body_len]:
                heappush(queue, key)
                key += 1

        completion = run.completion
        unissued = run.unissued
        unresolved = run.unresolved
        ready_at = run.ready_at
        dependents = run.dependents
        waiting = run.waiting
        all_ports = (1 << self._num_ports) - 1
        busy_until = run.busy_until
        port_issue_count = run.port_issue_count

        dispatched = run.dispatched
        retired = run.retired
        window = run.window
        cycle = run.cycle
        start = run.start
        resume = dispatched == total_instrs
        fork_points = iter(forks)
        fork_at = next(fork_points, -1)
        forked: list[_Run] = []

        while retired < total_instrs:
            if resume:
                resume = False
            else:
                if cycle > max_cycles:
                    break
                start = (retired, dispatched, window)

                # 1) Retire in order.
                retire_budget = retire_width
                while retire_budget and retired < dispatched and completion[retired] <= cycle:
                    retired += 1
                    retire_budget -= 1

                # 2) Dispatch up to the frontend width.
                dispatch_budget = dispatch_width
                while (
                    dispatch_budget > 0
                    and dispatched < total_instrs
                    and dispatched - retired < rob_capacity
                ):
                    pos = dispatched % body_len
                    uops = num_uops[pos]
                    if window + uops > window_capacity:
                        break
                    if uops > dispatch_budget and dispatch_budget < dispatch_width:
                        break  # µops of one instruction dispatch together
                    instr = dispatched
                    dispatched += 1
                    dispatch_budget -= uops
                    window += uops
                    unissued[instr] = uops

                    ready = 0
                    unknown = 0
                    for distance in distances[pos]:
                        if distance > instr:
                            break
                        done = completion[instr - distance]
                        if done == _PENDING:
                            dependents.setdefault(instr - distance, []).append(instr)
                            unknown += 1
                        elif done > ready:
                            ready = done
                    if unknown:
                        unresolved[instr] = unknown
                        ready_at[instr] = ready
                    elif ready > cycle:
                        heappush(waiting, (ready, instr))
                    else:
                        release(instr)
                    if dispatched == fork_at:
                        # A shorter run stops dispatching here.
                        forked.append(run.fork(dispatched, retired, window, cycle, start))
                        fork_at = next(fork_points, -1)

            # 3) Issue ready µops, oldest first, greedy port choice.
            free = all_ports
            if busy_until:
                for port, until in list(busy_until.items()):
                    if until > cycle:
                        free &= ~(1 << port)
                    else:
                        del busy_until[port]
            while waiting and waiting[0][0] <= cycle:
                release(heappop(waiting)[1])
            while free:
                best = None
                oldest = _PENDING
                for entry in classes:
                    queue = entry[0]
                    if queue and queue[0] < oldest and entry[1] & free:
                        best = entry
                        oldest = queue[0]
                if best is None:
                    break
                queue, mask, block, allowed = best
                heappop(queue)
                instr = oldest >> shift
                if least_used_policy:
                    port = -1
                    for candidate in allowed:
                        if free >> candidate & 1 and (
                            port < 0 or port_issue_count[candidate] < port_issue_count[port]
                        ):
                            port = candidate
                else:
                    available = mask & free
                    port = (available & -available).bit_length() - 1
                free &= ~(1 << port)
                if block > 1:
                    busy_until[port] = cycle + block
                port_issue_count[port] += 1
                window -= 1

                unissued[instr] -= 1
                if not unissued[instr]:
                    # µops issue in cycle order, so the last one finishes last.
                    done = cycle + latencies[instr % body_len]
                    completion[instr] = done
                    for consumer in dependents.pop(instr, ()):
                        if done > ready_at[consumer]:
                            ready_at[consumer] = done
                        unresolved[consumer] -= 1
                        if not unresolved[consumer]:
                            heappush(waiting, (ready_at[consumer], consumer))

            if (retired, dispatched, window) != start:
                cycle += 1
                continue
            # Idle: nothing changes before one of these cycles.  A run with
            # none of them pending is deadlocked and spins into the guard.
            cycle = max_cycles + 1
            if retired < dispatched and completion[retired] < cycle:
                cycle = completion[retired]
            if waiting and waiting[0][0] < cycle:
                cycle = waiting[0][0]
            for until in busy_until.values():
                if until < cycle:
                    cycle = until

        return cycle, retired, forked
