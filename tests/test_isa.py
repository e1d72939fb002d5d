"""Unit tests for repro.core.isa."""

import pytest

from repro.core import ISA, ISAError, InstructionForm, OperandKind, OperandSpec
from repro.core.isa import gpr, imm, make_form, mem, vec


class TestOperandSpec:
    def test_validation(self):
        with pytest.raises(ISAError):
            OperandSpec(OperandKind.GPR, 0)
        with pytest.raises(ISAError):
            OperandSpec(OperandKind.GPR, 64, is_read=False, is_written=False)
        with pytest.raises(ISAError):
            OperandSpec(OperandKind.IMM, 32, is_read=True, is_written=True)

    def test_render(self):
        assert gpr(64).render() == "R64"
        assert gpr(64, read=True, write=True).render() == "R64rw"
        assert gpr(32, read=False, write=True).render() == "R32w"
        assert vec(256).render() == "V256"
        assert mem(64).render() == "M64"
        assert imm().render() == "I32"


class TestInstructionForm:
    def test_make_form_canonical_name(self):
        form = make_form("add", [gpr(64, read=True, write=True), gpr(64)], "int_alu")
        assert form.name == "add_r64rw_r64"
        assert form.mnemonic == "add"
        assert form.semantic_class == "int_alu"
        assert form.latency_class == "int_alu"  # defaults to semantic class

    def test_render(self):
        form = make_form("add", [gpr(64, read=True, write=True), gpr(64)], "int_alu")
        assert form.render() == "add R64rw, R64"
        bare = InstructionForm("nop", "nop", ())
        assert bare.render() == "nop"

    def test_equality_by_name(self):
        a = make_form("add", [gpr(64, read=True, write=True), gpr(64)], "x")
        b = make_form("add", [gpr(64, read=True, write=True), gpr(64)], "y")
        assert a == b  # same canonical name
        assert hash(a) == hash(b)

    def test_empty_name_rejected(self):
        with pytest.raises(ISAError):
            InstructionForm("", "add", ())
        with pytest.raises(ISAError):
            InstructionForm("x", "", ())


class TestISA:
    def _form(self, name: str, cls: str = "c") -> InstructionForm:
        return InstructionForm(name, name, (gpr(64, read=True, write=True),), cls)

    def test_add_and_lookup(self):
        isa = ISA("test", [self._form("a"), self._form("b")])
        assert len(isa) == 2
        assert isa["a"].name == "a"
        assert "a" in isa and "zz" not in isa
        assert isa.names == ("a", "b")

    def test_duplicate_rejected(self):
        isa = ISA("test", [self._form("a")])
        with pytest.raises(ISAError):
            isa.add(self._form("a"))

    def test_unknown_lookup(self):
        with pytest.raises(ISAError):
            ISA("test", [self._form("a")])["b"]

    def test_by_semantic_class(self):
        isa = ISA("test", [self._form("a", "x"), self._form("b", "x"), self._form("c", "y")])
        groups = isa.by_semantic_class()
        assert sorted(groups) == ["x", "y"]
        assert [f.name for f in groups["x"]] == ["a", "b"]

    def test_empty_name_rejected(self):
        with pytest.raises(ISAError):
            ISA("")
