"""Dependency-avoiding operand allocation (Section 4.2).

The paper instantiates the instruction forms of an experiment with operands
"while avoiding data dependencies":

* *read* operands get the **least recently written** register, maximizing
  the distance to the producing write so long-latency producers have retired
  by the time the value is read;
* *written* operands also get a least-recently-written register (with an
  opposite tie-break), which makes destinations rotate round-robin through
  the register file.  The paper words this policy as "most recently read",
  but taken literally that self-poisons on read-modify-write operands (x86
  two-operand destinations): the most recently read register may have been
  written one instruction ago, turning the destination's implicit read into
  a latency chain.  Least-recently-written achieves the paper's stated goal
  — "using as many different registers as available ... ensures that
  instructions with long latencies have enough time to complete before
  their results are read" — for both the destination's own read and all
  future source reads (documented deviation, see DESIGN.md);
* memory operands use a dedicated base-pointer register and rotate through
  several constant offsets, so loads/stores never alias.

:class:`RegisterAllocator` keeps this recency state across an entire unrolled
loop body, exactly like the paper's allocator runs across unrolled iterations.
Each register class is kept as a list sorted by ``(last write, index)``, so
no pick sorts the register file: a read takes the first register the
instruction does not use yet, a write takes the last of the unused
registers that share the oldest write tick (the highest index), and an
instruction's written registers move to the end of the list, in index
order.  Registers, memory operands and immediates are immutable, so each
distinct operand is built once and shared.  ``tests/test_regalloc.py``
checks the picks against the original per-pick sort, kept as
``tests/reference_regalloc.py``.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable

from repro.codegen.assembly import (
    Immediate,
    InstructionInstance,
    MemoryRef,
    Operand,
    Register,
)
from repro.core.errors import ISAError
from repro.core.isa import InstructionForm, OperandKind

__all__ = ["RegisterAllocator", "AllocationConfig"]


class AllocationConfig:
    """Register-file shape visible to the allocator.

    Parameters
    ----------
    num_gprs:
        Allocatable general-purpose registers (excluding the base pointer).
    num_vecs:
        Allocatable vector registers.
    num_memory_offsets:
        Distinct constant offsets used round-robin for memory operands.
    memory_stride:
        Byte distance between consecutive offsets (cache-line sized by
        default so rotating offsets do not alias).
    """

    def __init__(
        self,
        num_gprs: int = 14,
        num_vecs: int = 16,
        num_memory_offsets: int = 8,
        memory_stride: int = 64,
    ):
        if num_gprs < 2 or num_vecs < 2:
            raise ISAError("need at least two registers per allocatable class")
        if num_memory_offsets < 1:
            raise ISAError("need at least one memory offset")
        self.num_gprs = num_gprs
        self.num_vecs = num_vecs
        self.num_memory_offsets = num_memory_offsets
        self.memory_stride = memory_stride


@functools.cache
def _register_file(kind: OperandKind, count: int) -> tuple[Register, ...]:
    """The operands of registers ``0..count-1`` of one class."""
    return tuple(Register(kind, index) for index in range(count))


@functools.cache
def _memory_operands(base: int, count: int, stride: int) -> tuple[MemoryRef, ...]:
    """The memory operands off base register ``base``, in rotation order."""
    pointer = Register(OperandKind.GPR, base)
    return tuple(MemoryRef(pointer, slot * stride) for slot in range(count))


@functools.cache
def _immediate(value: int) -> Immediate:
    return Immediate(value)


class _ClassState:
    """One register class in recency order.

    ``order`` holds the register indices sorted by ``(last write, index)``,
    where ``last_write`` is the tick of the instruction that last wrote
    each register.  The initial ticks come before every instruction's and
    ascend with the index, so the first picks spread over the file.
    """

    def __init__(self, kind: OperandKind, count: int):
        self.registers = _register_file(kind, count)
        self.last_write = list(range(-count, 0))
        self.order = list(range(count))

    def pick_for_read(self, banned: list[int]) -> int:
        """Least recently *written* register (longest RAW distance)."""
        for index in self.order:
            if index not in banned:
                return index
        raise ISAError("register class exhausted during allocation")

    def pick_for_write(self, banned: list[int]) -> int:
        """Least recently written register, preferring high indices.

        Rotates destinations round-robin through the register file so both
        the destination's own read (for read-modify-write operands) and all
        future source reads see the longest possible distance to the
        previous write.  See the module docstring for why this deviates
        from the paper's literal wording.  Registers that share the oldest
        write tick sit in index order, so the pick is the last of them.
        """
        last_write = self.last_write
        pick = -1
        for index in self.order:
            if index in banned:
                continue
            if pick >= 0 and last_write[index] != last_write[pick]:
                break
            pick = index
        if pick < 0:
            raise ISAError("register class exhausted during allocation")
        return pick

    def note_writes(self, indices: list[int], tick: int) -> None:
        """Move the registers one instruction wrote to the end, in index order."""
        order = self.order
        for index in sorted(indices):
            order.remove(index)
            order.append(index)
            self.last_write[index] = tick


class RegisterAllocator:
    """Allocates concrete operands for a sequence of instruction forms.

    The allocator is stateful: recency information persists across calls so
    an unrolled loop body is allocated as one region, like in the paper.
    The base pointer register (GPR index ``num_gprs``) is reserved for
    memory operands and never allocated for anything else.
    """

    def __init__(self, config: AllocationConfig | None = None):
        self.config = config or AllocationConfig()
        self._gpr = _ClassState(OperandKind.GPR, self.config.num_gprs)
        self._vec = _ClassState(OperandKind.VEC, self.config.num_vecs)
        self._tick = 0
        self._next_offset = 0
        self._memory = _memory_operands(
            self.config.num_gprs, self.config.num_memory_offsets, self.config.memory_stride
        )
        self.base_pointer = self._memory[0].base

    def _state(self, kind: OperandKind) -> _ClassState:
        if kind is OperandKind.GPR:
            return self._gpr
        if kind is OperandKind.VEC:
            return self._vec
        raise ISAError(f"no register state for kind {kind}")

    def allocate(self, form: InstructionForm) -> InstructionInstance:
        """Instantiate one instruction form with concrete operands."""
        tick = self._tick
        self._tick += 1

        specs = form.operands
        operands: list[Operand | None] = [None] * len(specs)
        # Registers already chosen for this instruction, per class: an
        # instruction must not read and write the same register through
        # different operands, or it would create an intra-instruction
        # dependency the experiment design wants to avoid.
        taken: dict[_ClassState, list[int]] = {self._gpr: [], self._vec: []}

        # Pass 1: reads (they constrain which registers a write may clobber
        # only via the taken lists, matching the paper's policies).
        for pos, spec in enumerate(specs):
            kind = spec.kind
            if kind is OperandKind.IMM:
                operands[pos] = _immediate((tick % 251) + 1)
            elif kind is OperandKind.MEM:
                operands[pos] = self._memory[self._next_offset % len(self._memory)]
                self._next_offset += 1
            elif not spec.is_written:
                state = self._state(kind)
                index = state.pick_for_read(taken[state])
                taken[state].append(index)
                operands[pos] = state.registers[index]

        # Pass 2: writes (including read-write operands, which the paper
        # treats with the written-operand policy).
        written: dict[_ClassState, list[int]] = {}
        for pos, spec in enumerate(specs):
            if operands[pos] is None:
                state = self._state(spec.kind)
                index = state.pick_for_write(taken[state])
                taken[state].append(index)
                written.setdefault(state, []).append(index)
                operands[pos] = state.registers[index]

        # Commit recency updates only after all picks, so one operand's
        # choice does not skew a sibling operand's recency view.
        for state, indices in written.items():
            state.note_writes(indices, tick)

        return InstructionInstance(form, tuple(operands))  # type: ignore[arg-type]

    def allocate_sequence(
        self, forms: Iterable[InstructionForm]
    ) -> list[InstructionInstance]:
        """Allocate a whole sequence, threading recency state through."""
        return [self.allocate(form) for form in forms]
