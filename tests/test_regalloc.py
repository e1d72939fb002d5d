"""Tests for the dependency-avoiding register allocator (Section 4.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_regalloc import ReferenceRegisterAllocator
from repro.codegen import AllocationConfig, RegisterAllocator
from repro.codegen.assembly import MemoryRef, Register
from repro.core import ISAError
from repro.core.isa import gpr, imm, make_form, mem, vec


ADD = make_form("add", [gpr(64, read=True, write=True), gpr(64)], "alu")
VADD = make_form("vadd", [vec(256, read=False, write=True), vec(256), vec(256)], "v")
LOAD = make_form("load", [gpr(64, read=False, write=True), mem(64)], "load")
STORE = make_form("store", [mem(64), gpr(64)], "store")


class TestAllocationConfig:
    def test_validation(self):
        with pytest.raises(ISAError):
            AllocationConfig(num_gprs=1)
        with pytest.raises(ISAError):
            AllocationConfig(num_vecs=0)
        with pytest.raises(ISAError):
            AllocationConfig(num_memory_offsets=0)


class TestRegisterAllocator:
    def test_no_same_register_read_write_within_instruction(self):
        allocator = RegisterAllocator()
        for _ in range(100):
            instance = allocator.allocate(ADD)
            dest, src = instance.operands
            assert dest != src

    def test_raw_distance_is_large(self):
        """The distance between a write and the next read of the same
        register should span (almost) the whole register file."""
        config = AllocationConfig(num_gprs=14)
        allocator = RegisterAllocator(config)
        instances = allocator.allocate_sequence([ADD] * 200)
        last_write: dict[Register, int] = {}
        min_distance = 10**9
        for tick, instance in enumerate(instances):
            if tick >= 30:  # steady state only
                for read in instance.read_registers():
                    if read in last_write:
                        min_distance = min(min_distance, tick - last_write[read])
            for written in instance.written_registers():
                last_write[written] = tick
        assert min_distance >= config.num_gprs - 2

    def test_destinations_rotate(self):
        allocator = RegisterAllocator(AllocationConfig(num_gprs=8))
        instances = allocator.allocate_sequence([ADD] * 32)
        destinations = [i.written_registers()[0].index for i in instances[8:24]]
        # All 8 registers are used as destinations within any window of 8+.
        assert len(set(destinations)) >= 7

    def test_memory_operands_use_base_pointer_and_rotate_offsets(self):
        config = AllocationConfig(num_memory_offsets=4, memory_stride=64)
        allocator = RegisterAllocator(config)
        instances = allocator.allocate_sequence([LOAD] * 8)
        refs = [i.operands[1] for i in instances]
        assert all(isinstance(r, MemoryRef) for r in refs)
        assert all(r.base == allocator.base_pointer for r in refs)
        offsets = [r.offset for r in refs]
        assert offsets[:4] == [0, 64, 128, 192]
        assert offsets[4:] == offsets[:4]  # rotation

    def test_base_pointer_never_allocated(self):
        config = AllocationConfig(num_gprs=6)
        allocator = RegisterAllocator(config)
        instances = allocator.allocate_sequence([ADD, LOAD, STORE] * 30)
        base = allocator.base_pointer
        for instance in instances:
            for reg in instance.written_registers():
                assert reg != base

    def test_vector_class_is_separate(self):
        allocator = RegisterAllocator()
        gpr_instance = allocator.allocate(ADD)
        vec_instance = allocator.allocate(VADD)
        kinds = {op.kind for op in vec_instance.operands}
        assert all(reg.kind.value == "vec" for reg in vec_instance.operands)
        assert all(op.kind.value == "gpr" for op in gpr_instance.operands)
        assert kinds == {vec_instance.operands[0].kind}

    def test_three_operand_reads_are_distinct(self):
        allocator = RegisterAllocator()
        for _ in range(50):
            instance = allocator.allocate(VADD)
            dest, src_a, src_b = instance.operands
            assert src_a != src_b
            assert dest not in (src_a, src_b)


#: Register operands of either class: read, written, or both.
_REGISTER_OPERANDS = st.builds(
    lambda spec, access: spec(access[0], access[1]),
    st.sampled_from(
        (
            lambda read, write: gpr(64, read=read, write=write),
            lambda read, write: vec(256, read=read, write=write),
        )
    ),
    st.sampled_from(((True, False), (False, True), (True, True))),
)
_OPERANDS = st.one_of(_REGISTER_OPERANDS, st.just(mem(64)), st.just(imm()))


@st.composite
def _allocations(draw):
    """A register file and a sequence over a few random forms; some forms
    write two registers of one class, and a small file can run out."""
    forms = [
        make_form(f"f{index}", draw(st.lists(_OPERANDS, max_size=4)), "cls", name=f"f{index}")
        for index in range(draw(st.integers(1, 4)))
    ]
    forms.append(
        make_form("wide", [gpr(64, read=False, write=True), gpr(64, write=True)], "cls")
    )
    config = AllocationConfig(
        num_gprs=draw(st.integers(2, 16)),
        num_vecs=draw(st.integers(2, 16)),
        num_memory_offsets=draw(st.integers(1, 8)),
    )
    return config, draw(st.lists(st.sampled_from(forms), min_size=1, max_size=60))


def _allocated(allocator, form):
    try:
        return allocator.allocate(form).operands
    except ISAError as error:
        return str(error)


@settings(max_examples=300, deadline=None)
@given(_allocations())
def test_recency_order_matches_the_original_allocator(case):
    """Picking from registers kept in (last write, index) order gives the
    operands that the original per-pick sort gives, instruction by
    instruction, or the same error when a class runs out."""
    config, sequence = case
    allocator = RegisterAllocator(config)
    reference = ReferenceRegisterAllocator(config)
    assert allocator.base_pointer == reference.base_pointer
    for form in sequence:
        expected = _allocated(reference, form)
        assert _allocated(allocator, form) == expected
        if isinstance(expected, str):
            break
