"""Instruction set architecture descriptions.

The input of PMEvo's first stage (Section 4.1) is a set of *instruction
forms*: instructions with typed placeholders for their operands.  The
placeholder type fixes the operand kind (general purpose register, vector
register, memory, immediate) and width.  There can be multiple instruction
forms for the same operation with different operand types, e.g.
``add R64, R64`` and ``add R32, R32``.

Instruction forms are the atoms of everything downstream: experiments are
multisets of instruction forms, port mappings map instruction forms to µops,
and the machine simulator instantiates forms with concrete operands.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

from repro.core.errors import ISAError

__all__ = ["OperandKind", "OperandSpec", "InstructionForm", "ISA"]


class OperandKind(enum.Enum):
    """The kind of an instruction operand placeholder."""

    GPR = "gpr"  #: general purpose register
    VEC = "vec"  #: vector register
    MEM = "mem"  #: memory operand (base register + constant offset)
    IMM = "imm"  #: immediate constant

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class OperandSpec:
    """A typed operand placeholder of an instruction form.

    Attributes
    ----------
    kind:
        The operand kind (register class, memory, or immediate).
    width:
        Operand width in bits (e.g. 32/64 for GPRs, 128/256 for vectors).
    is_read:
        Whether the instruction reads this operand.
    is_written:
        Whether the instruction writes this operand.  Immediates and, in this
        library, memory operands are never written (stores are modeled as
        reading their memory operand's address registers; the stored data
        travels through a read register operand).
    """

    kind: OperandKind
    width: int
    is_read: bool = True
    is_written: bool = False

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ISAError(f"operand width must be positive, got {self.width}")
        if not (self.is_read or self.is_written):
            raise ISAError("an operand must be read, written, or both")
        if self.kind is OperandKind.IMM and self.is_written:
            raise ISAError("immediate operands cannot be written")

    def render(self) -> str:
        """Short placeholder syntax, e.g. ``R64``, ``V256``, ``M64``, ``I32``."""
        letter = {
            OperandKind.GPR: "R",
            OperandKind.VEC: "V",
            OperandKind.MEM: "M",
            OperandKind.IMM: "I",
        }[self.kind]
        marks = ""
        if self.is_written and self.is_read:
            marks = "rw"
        elif self.is_written:
            marks = "w"
        return f"{letter}{self.width}{marks}"


# Convenience constructors used heavily by the machine presets.
def gpr(width: int, *, read: bool = True, write: bool = False) -> OperandSpec:
    """A general-purpose register operand."""
    return OperandSpec(OperandKind.GPR, width, is_read=read, is_written=write)


def vec(width: int, *, read: bool = True, write: bool = False) -> OperandSpec:
    """A vector register operand."""
    return OperandSpec(OperandKind.VEC, width, is_read=read, is_written=write)


def mem(width: int) -> OperandSpec:
    """A memory operand (always counted as read: its address registers)."""
    return OperandSpec(OperandKind.MEM, width, is_read=True, is_written=False)


def imm(width: int = 32) -> OperandSpec:
    """An immediate operand."""
    return OperandSpec(OperandKind.IMM, width, is_read=True, is_written=False)


@dataclass(frozen=True)
class InstructionForm:
    """An instruction with typed operand placeholders.

    Instruction forms are identified by :attr:`name`, which must be unique
    within an ISA; equality and hashing use only the name so that forms can
    be used as dictionary keys cheaply.

    Attributes
    ----------
    name:
        Unique identifier, conventionally ``{mnemonic}_{operand sig}``.
    mnemonic:
        The operation name shared by sibling forms (``add``, ``vmulps``...).
    operands:
        The typed operand placeholders in assembly order.
    semantic_class:
        A free-form tag grouping forms that a machine implements with the
        same execution resources (e.g. ``"int_alu"``).  Machine presets key
        their ground-truth µop decompositions and latencies on this tag; the
        inference pipeline never looks at it.
    latency_class:
        Optional tag for machines that want distinct latencies within one
        semantic class; defaults to the semantic class.
    """

    name: str
    mnemonic: str
    operands: tuple[OperandSpec, ...]
    semantic_class: str = "default"
    latency_class: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ISAError("instruction form name must be non-empty")
        if not self.mnemonic:
            raise ISAError(f"instruction form {self.name!r} has empty mnemonic")
        if not self.latency_class:
            object.__setattr__(self, "latency_class", self.semantic_class)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InstructionForm):
            return NotImplemented
        return self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)

    def render(self) -> str:
        """Assembly-like rendering, e.g. ``add R64rw, R64``."""
        if not self.operands:
            return self.mnemonic
        return f"{self.mnemonic} " + ", ".join(op.render() for op in self.operands)

    def __repr__(self) -> str:
        return f"InstructionForm({self.name!r})"


def make_form(
    mnemonic: str,
    operands: Sequence[OperandSpec],
    semantic_class: str,
    *,
    latency_class: str = "",
    name: str | None = None,
) -> InstructionForm:
    """Build an :class:`InstructionForm` with a canonical generated name.

    The canonical name is ``{mnemonic}_{rendered operand signature}``, e.g.
    ``add_r64rw_r64``; it is what ISA tables and serialized mappings use.
    """
    if name is None:
        sig = "_".join(op.render().lower() for op in operands)
        name = f"{mnemonic}_{sig}" if sig else mnemonic
    return InstructionForm(
        name=name,
        mnemonic=mnemonic,
        operands=tuple(operands),
        semantic_class=semantic_class,
        latency_class=latency_class,
    )


class ISA:
    """A named, ordered collection of instruction forms.

    Provides name-based lookup and stable iteration order (the order forms
    were added), which downstream code relies on for reproducibility.
    """

    def __init__(self, name: str, forms: Iterable[InstructionForm] = ()):
        if not name:
            raise ISAError("ISA name must be non-empty")
        self.name = name
        self._forms: dict[str, InstructionForm] = {}
        for form in forms:
            self.add(form)

    def add(self, form: InstructionForm) -> None:
        """Add a form; raises :class:`ISAError` on duplicate names."""
        if form.name in self._forms:
            raise ISAError(f"duplicate instruction form {form.name!r} in ISA {self.name!r}")
        self._forms[form.name] = form

    @property
    def forms(self) -> tuple[InstructionForm, ...]:
        """All instruction forms in insertion order."""
        return tuple(self._forms.values())

    @property
    def names(self) -> tuple[str, ...]:
        """Names of all instruction forms in insertion order."""
        return tuple(self._forms.keys())

    def __getitem__(self, name: str) -> InstructionForm:
        try:
            return self._forms[name]
        except KeyError:
            raise ISAError(f"unknown instruction form {name!r} in ISA {self.name!r}") from None

    def __contains__(self, name: object) -> bool:
        return name in self._forms

    def __len__(self) -> int:
        return len(self._forms)

    def __iter__(self) -> Iterator[InstructionForm]:
        return iter(self._forms.values())

    def by_semantic_class(self) -> dict[str, list[InstructionForm]]:
        """Group forms by their semantic class tag."""
        groups: dict[str, list[InstructionForm]] = {}
        for form in self._forms.values():
            groups.setdefault(form.semantic_class, []).append(form)
        return groups

    def __repr__(self) -> str:
        return f"ISA({self.name!r}, {len(self)} forms)"
