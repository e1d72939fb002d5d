"""The original register allocator, kept as a test oracle.

This is ``RegisterAllocator`` as it was before the allocator kept each
register class in recency order: every pick builds the list of registers
the instruction has not used yet and takes the minimum of a key tuple over
it.  It is slow but reads like the policy it implements, so
``tests/test_regalloc.py`` requires the production allocator to return
exactly the operands this one returns, or to raise the same
:class:`ISAError`.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.codegen.assembly import (
    Immediate,
    InstructionInstance,
    MemoryRef,
    Operand,
    Register,
)
from repro.codegen.regalloc import AllocationConfig
from repro.core.errors import ISAError
from repro.core.isa import InstructionForm, OperandKind

__all__ = ["ReferenceRegisterAllocator"]


class _ClassState:
    """Recency bookkeeping for one register class."""

    def __init__(self, kind: OperandKind, count: int):
        self.kind = kind
        # Stagger initial recencies so the very first picks are spread over
        # the register file instead of all hitting register 0.
        self.last_read = {i: -2 * count + i for i in range(count)}
        self.last_write = {i: -2 * count + i for i in range(count)}

    def pick_for_read(self, banned: set[int]) -> int:
        """Least recently *written* register (longest RAW distance)."""
        candidates = [i for i in self.last_write if i not in banned]
        if not candidates:
            raise ISAError("register class exhausted during allocation")
        return min(candidates, key=lambda i: (self.last_write[i], i))

    def pick_for_write(self, banned: set[int]) -> int:
        """Least recently written register, preferring high indices.

        Rotates destinations round-robin through the register file so both
        the destination's own read (for read-modify-write operands) and all
        future source reads see the longest possible distance to the
        previous write.  See the module docstring for why this deviates
        from the paper's literal wording.
        """
        candidates = [i for i in self.last_read if i not in banned]
        if not candidates:
            raise ISAError("register class exhausted during allocation")
        return min(candidates, key=lambda i: (self.last_write[i], -i))

    def note_read(self, index: int, tick: int) -> None:
        self.last_read[index] = tick

    def note_write(self, index: int, tick: int) -> None:
        self.last_write[index] = tick


class ReferenceRegisterAllocator:
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
        self.base_pointer = Register(OperandKind.GPR, self.config.num_gprs)

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

        operands: list[Operand | None] = [None] * len(form.operands)
        # Registers already chosen for this instruction: an instruction must
        # not read and write the same register through different operands,
        # or it would create an intra-instruction dependency the experiment
        # design wants to avoid.
        used: dict[OperandKind, set[int]] = {
            OperandKind.GPR: set(),
            OperandKind.VEC: set(),
        }

        # Pass 1: reads (they constrain which registers a write may clobber
        # only via the `used` set, matching the paper's policies).
        for pos, spec in enumerate(form.operands):
            if spec.kind is OperandKind.IMM:
                operands[pos] = Immediate(value=(tick % 251) + 1)
            elif spec.kind is OperandKind.MEM:
                offset = (
                    self._next_offset % self.config.num_memory_offsets
                ) * self.config.memory_stride
                self._next_offset += 1
                operands[pos] = MemoryRef(self.base_pointer, offset)
            elif spec.is_read and not spec.is_written:
                state = self._state(spec.kind)
                index = state.pick_for_read(used[spec.kind])
                used[spec.kind].add(index)
                operands[pos] = Register(spec.kind, index)

        # Pass 2: writes (including read-write operands, which the paper
        # treats with the written-operand policy).
        for pos, spec in enumerate(form.operands):
            if operands[pos] is not None or spec.kind in (
                OperandKind.IMM,
                OperandKind.MEM,
            ):
                continue
            state = self._state(spec.kind)
            index = state.pick_for_write(used[spec.kind])
            used[spec.kind].add(index)
            operands[pos] = Register(spec.kind, index)

        # Commit recency updates only after all picks, so one operand's
        # choice does not skew a sibling operand's recency view.
        for pos, spec in enumerate(form.operands):
            operand = operands[pos]
            if isinstance(operand, Register):
                state = self._state(spec.kind)
                if spec.is_read:
                    state.note_read(operand.index, tick)
                if spec.is_written:
                    state.note_write(operand.index, tick)
            elif isinstance(operand, MemoryRef):
                pass  # base pointer is immutable; no recency update needed

        return InstructionInstance(form, tuple(operands))  # type: ignore[arg-type]

    def allocate_sequence(
        self, forms: Iterable[InstructionForm]
    ) -> list[InstructionInstance]:
        """Allocate a whole sequence, threading recency state through."""
        return [self.allocate(form) for form in forms]
