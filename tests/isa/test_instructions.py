"""Instruction construction and classification tests."""

import pytest

from repro.errors import OperandError, UnknownOpcodeError
from repro.isa import (
    Immediate,
    Instruction,
    LabelRef,
    MemRef,
    OpClass,
    Pipe,
    areg,
    opcode_spec,
    sreg,
    vreg,
    VL,
)


def vload(dst=0):
    return Instruction("ld", (MemRef(areg(5)), vreg(dst)), suffix="l")


def vstore(src=0):
    return Instruction("st", (vreg(src), MemRef(areg(5))), suffix="l")


def vadd():
    return Instruction("add", (vreg(0), vreg(1), vreg(2)), suffix="d")


class TestValidation:
    def test_unknown_opcode(self):
        with pytest.raises(UnknownOpcodeError):
            Instruction("frobnicate", ())

    def test_bad_suffix(self):
        with pytest.raises(OperandError):
            Instruction("add", (vreg(0), vreg(1), vreg(2)), suffix="zz")

    def test_operand_count_low(self):
        with pytest.raises(OperandError):
            Instruction("add", (vreg(0),))

    def test_operand_count_high(self):
        with pytest.raises(OperandError):
            Instruction("mov", (sreg(0), sreg(1), sreg(2)))

    def test_branch_requires_label(self):
        with pytest.raises(OperandError):
            Instruction("jbrs", (sreg(0),), suffix="t")

    def test_ld_memory_operand_position(self):
        with pytest.raises(OperandError):
            Instruction("ld", (vreg(0), MemRef(areg(5))), suffix="l")

    def test_st_memory_operand_position(self):
        with pytest.raises(OperandError):
            Instruction("st", (MemRef(areg(5)), vreg(0)), suffix="l")

    def test_memory_op_needs_exactly_one_memref(self):
        with pytest.raises(OperandError):
            Instruction(
                "ld", (MemRef(areg(5)), MemRef(areg(6))), suffix="l"
            )


class TestClassification:
    def test_vector_load(self):
        instr = vload()
        assert instr.is_vector
        assert instr.is_vector_memory
        assert instr.is_vector_load
        assert not instr.is_vector_fp
        assert instr.pipe is Pipe.LOAD_STORE
        assert instr.timing_key == "load"

    def test_vector_store(self):
        instr = vstore()
        assert instr.is_vector_store
        assert instr.pipe is Pipe.LOAD_STORE
        assert instr.timing_key == "store"

    def test_vector_add_is_fp(self):
        instr = vadd()
        assert instr.is_vector_fp
        assert instr.pipe is Pipe.ADD
        assert instr.flop_count == 1

    def test_vector_mul_pipe(self):
        instr = Instruction("mul", (vreg(0), sreg(1), vreg(1)), suffix="d")
        assert instr.is_vector  # paper rule: touches a v register
        assert instr.pipe is Pipe.MULTIPLY

    def test_scalar_add_not_vector(self):
        instr = Instruction("add", (Immediate(1024), areg(5)), suffix="w")
        assert not instr.is_vector
        assert instr.pipe is None
        assert instr.flop_count == 0

    def test_scalar_load_is_scalar_memory(self):
        instr = Instruction("ld", (MemRef(areg(0)), sreg(1)), suffix="l")
        assert instr.is_scalar_memory
        assert not instr.is_vector_memory

    def test_reduction(self):
        instr = Instruction("sum", (vreg(0), sreg(1)), suffix="d")
        assert instr.is_reduction
        assert instr.is_vector_fp
        assert instr.pipe is Pipe.ADD
        assert instr.timing_key == "sum"

    def test_mov_to_vl_is_scalar(self):
        instr = Instruction("mov", (sreg(0), VL), suffix="w")
        assert not instr.is_vector

    def test_branch_and_compare_flags(self):
        branch = Instruction("jbrs", (LabelRef("L7"),), suffix="t")
        compare = Instruction("lt", (Immediate(0), sreg(0)), suffix="w")
        assert branch.is_branch and not branch.is_compare
        assert compare.is_compare and not compare.is_branch


class TestReadsWrites:
    def test_three_operand_reads_and_writes(self):
        instr = vadd()
        assert instr.reads == frozenset({vreg(0), vreg(1)})
        assert instr.writes == frozenset({vreg(2)})

    def test_two_operand_accumulate_reads_destination(self):
        instr = Instruction("add", (Immediate(8), areg(5)), suffix="w")
        assert areg(5) in instr.reads
        assert instr.writes == frozenset({areg(5)})

    def test_load_reads_base_register(self):
        instr = vload()
        assert areg(5) in instr.reads
        assert instr.vector_writes == frozenset({vreg(0)})

    def test_store_reads_base_and_source(self):
        instr = vstore()
        assert instr.reads == frozenset({vreg(0), areg(5)})
        assert instr.writes == frozenset()

    def test_compare_has_no_destination(self):
        instr = Instruction("lt", (Immediate(0), sreg(0)), suffix="w")
        assert instr.destination is None
        assert sreg(0) in instr.reads


class TestSpec:
    def test_spec_lookup(self):
        assert opcode_spec("add").opclass is OpClass.ADD_GROUP
        assert opcode_spec("div").opclass is OpClass.MUL_GROUP
        assert opcode_spec("sum").opclass is OpClass.REDUCTION

    def test_str_rendering(self):
        assert str(vadd()) == "add.d v0,v1,v2"
        labeled = vadd().with_label("L7").with_comment("x")
        assert str(labeled) == "L7: add.d v0,v1,v2 ; x"


class TestClassifiedOnce:
    def test_classification_is_kept_on_the_instance(self):
        instr = vadd()
        assert instr.reads is instr.reads
        assert instr.pipe is Pipe.ADD
        assert "pipe" in vars(instr)

    def test_identity_ignores_the_kept_classification(self):
        fresh, classified = vadd(), vadd()
        _ = (classified.is_vector, classified.reads, classified.pipe)
        assert fresh == classified
        assert hash(fresh) == hash(classified)
        assert repr(fresh) == repr(classified)
        assert str(fresh) == str(classified)

    def test_replace_classifies_the_new_instance(self):
        import dataclasses

        scalar = Instruction("add", (sreg(0), sreg(1), sreg(2)),
                             suffix="d")
        assert not scalar.is_vector
        vector = dataclasses.replace(scalar, operands=vadd().operands)
        assert vector.is_vector and vector.pipe is Pipe.ADD
        assert vector.with_label("L1").reads == vector.reads
