"""Functional (value-level) semantics of the instruction set.

The simulator executes programs both for *timing* and for *values*;
value-level execution lets the test suite check the compiler against
NumPy reference implementations of the kernels, exactly as one would
validate generated code against the source program on real hardware.

:func:`execute_instruction` applies one instruction to a
:class:`~repro.machine.state.RegisterFile` and
:class:`~repro.machine.memory.MemorySystem` and returns the branch
outcome (taken target label or None).
"""

from __future__ import annotations

import numpy as np

from .. import memo
from ..errors import SimulationError
from ..isa.instructions import Instruction, OpClass
from ..isa.operands import Immediate, LabelRef, MemRef, Operand
from ..isa.program import DataLayout
from ..isa.registers import Register, RegisterClass
from .memory import MemorySystem
from .state import RegisterFile


def effective_address(
    mem: MemRef, regfile: RegisterFile, layout: DataLayout
) -> int:
    """Byte address of a memory operand: symbol base + disp + base reg."""
    address = regfile.read(mem.base) + mem.displacement
    if mem.symbol is not None:
        address += layout.lookup(mem.symbol).offset_bytes
    return int(address)


def _scalar_value(
    operand: Operand, regfile: RegisterFile
) -> float | int:
    if isinstance(operand, Immediate):
        return operand.value
    if isinstance(operand, Register):
        return regfile.read(operand)
    raise SimulationError(f"operand {operand} has no scalar value")


def _vector_or_scalar(
    operand: Operand, regfile: RegisterFile
) -> np.ndarray | float:
    """Fetch an ALU input: vector elements, or a scalar to broadcast."""
    if isinstance(operand, Register) and operand.is_vector:
        return regfile.read_vector(operand)
    return float(_scalar_value(operand, regfile))


def _alu(instr: Instruction, lhs, rhs) -> np.ndarray | float:
    mnemonic = instr.mnemonic
    if mnemonic == "add":
        return lhs + rhs
    if mnemonic == "sub":
        return lhs - rhs
    if mnemonic == "mul":
        return lhs * rhs
    if mnemonic == "div":
        return lhs / rhs
    raise SimulationError(f"no ALU semantics for {mnemonic}")


def _execute_memory(
    instr: Instruction,
    regfile: RegisterFile,
    memory: MemorySystem,
    layout: DataLayout,
) -> None:
    mem = instr.memory_operand
    assert mem is not None
    address = effective_address(mem, regfile, layout)
    if instr.mnemonic == "ld":
        dest = instr.operands[1]
        if not isinstance(dest, Register):
            raise SimulationError(f"ld destination {dest} is not a register")
        if dest.is_vector:
            values = memory.read_vector(address, mem.stride_words, regfile.vl)
            regfile.write_vector(dest, values)
        else:
            regfile.write(dest, memory.read_word(address))
    else:  # st
        src = instr.operands[0]
        if not isinstance(src, Register):
            raise SimulationError(f"st source {src} is not a register")
        if src.is_vector:
            memory.write_vector(
                address, mem.stride_words, regfile.read_vector(src)
            )
        else:
            memory.write_word(address, float(regfile.read(src)))


def _execute_arithmetic(instr: Instruction, regfile: RegisterFile) -> None:
    dest = instr.destination
    if not isinstance(dest, Register):
        raise SimulationError(f"{instr} has no register destination")
    if len(instr.operands) == 3:
        lhs = _vector_or_scalar(instr.operands[0], regfile)
        rhs = _vector_or_scalar(instr.operands[1], regfile)
    else:  # two-operand accumulate: dest is also the right-hand source
        lhs = _vector_or_scalar(instr.operands[0], regfile)
        rhs = _vector_or_scalar(dest, regfile)
        if instr.mnemonic in ("sub", "div"):
            # Convex accumulate forms compute dest := dest OP src.
            lhs, rhs = rhs, lhs
    result = _alu(instr, lhs, rhs)
    if dest.is_vector:
        if np.isscalar(result) or getattr(result, "ndim", 1) == 0:
            result = np.full(regfile.vl, float(result))
        regfile.write_vector(dest, np.asarray(result, dtype=np.float64))
    else:
        regfile.write(dest, float(np.asarray(result).flat[0])
                      if hasattr(result, "flat") else float(result))


def _execute_neg(instr: Instruction, regfile: RegisterFile) -> None:
    src, dest = instr.operands
    if not isinstance(src, Register) or not isinstance(dest, Register):
        raise SimulationError(f"neg operands must be registers: {instr}")
    if src.is_vector and dest.is_vector:
        regfile.write_vector(dest, -regfile.read_vector(src))
    elif not src.is_vector and not dest.is_vector:
        regfile.write(dest, -regfile.read(src))
    else:
        raise SimulationError(f"neg cannot mix vector and scalar: {instr}")


def _execute_sum(instr: Instruction, regfile: RegisterFile) -> None:
    src, dest = instr.operands
    if (
        not isinstance(src, Register)
        or not src.is_vector
        or not isinstance(dest, Register)
        or dest.rclass is not RegisterClass.SCALAR
    ):
        raise SimulationError(
            f"sum expects vector source and scalar destination: {instr}"
        )
    regfile.write(dest, float(regfile.read_vector(src).sum()))


def _execute_move(instr: Instruction, regfile: RegisterFile) -> None:
    src, dest = instr.operands
    if not isinstance(dest, Register):
        raise SimulationError(f"mov destination must be a register: {instr}")
    if isinstance(src, Register) and src.is_vector and dest.is_vector:
        regfile.write_vector(dest, regfile.read_vector(src).copy())
        return
    regfile.write(dest, _scalar_value(src, regfile))


def _execute_compare(instr: Instruction, regfile: RegisterFile) -> None:
    lhs = _scalar_value(instr.operands[0], regfile)
    rhs = _scalar_value(instr.operands[1], regfile)
    if instr.mnemonic == "lt":
        regfile.flag = lhs < rhs
    elif instr.mnemonic == "le":
        regfile.flag = lhs <= rhs
    elif instr.mnemonic == "eq":
        regfile.flag = lhs == rhs
    else:
        raise SimulationError(f"unknown compare {instr.mnemonic}")


def branch_target(instr: Instruction, regfile: RegisterFile) -> str | None:
    """Label the branch transfers to, or None for fall-through."""
    target = instr.operands[0]
    assert isinstance(target, LabelRef)
    if instr.mnemonic == "jbr":
        return target.name
    # jbrs: conditional on the test flag; suffix selects the sense.
    taken = regfile.flag if instr.suffix == "t" else not regfile.flag
    return target.name if taken else None


def execute_instruction(
    instr: Instruction,
    regfile: RegisterFile,
    memory: MemorySystem,
    layout: DataLayout,
) -> str | None:
    """Apply one instruction; return the taken branch label, if any."""
    opclass = instr.spec.opclass
    if opclass is OpClass.MEMORY:
        _execute_memory(instr, regfile, memory, layout)
    elif opclass is OpClass.REDUCTION:
        _execute_sum(instr, regfile)
    elif opclass is OpClass.MOVE:
        _execute_move(instr, regfile)
    elif opclass is OpClass.COMPARE:
        _execute_compare(instr, regfile)
    elif opclass is OpClass.BRANCH:
        return branch_target(instr, regfile)
    elif instr.mnemonic == "neg":
        _execute_neg(instr, regfile)
    else:
        _execute_arithmetic(instr, regfile)
    return None


# ======================================================================
# Decoded (pre-resolved) execution
# ======================================================================
#
# :func:`decode_program` lowers each instruction once per program into
# a plain slot record for the simulator's inner loop: the instruction's
# own classification plus resolved operand locators, memory offsets,
# branch targets and timing register slots.  :func:`execute_decoded`
# applies exactly the same value semantics as :func:`execute_instruction`
# — float operations and conversions mirrored operation for operation,
# so the two paths are bit-for-bit identical.

#: Execution dispatch tags.
T_LD_V = 0
T_LD_S = 1
T_ST_V = 2
T_ST_S = 3
T_ALU = 4
T_NEG_V = 5
T_NEG_S = 6
T_SUM = 7
T_MOV_VV = 8
T_MOV = 9
T_CMP = 10
T_BR = 11
T_BRS = 12
T_LEGACY = 13  # anything decode does not specialize

#: Scalar operand-location kinds (``(kind, payload)`` specs).
K_IMM = 0
K_A = 1
K_S = 2
K_VL = 3
K_VS = 4

#: ALU / compare operation codes.
OP_ADD = 0
OP_SUB = 1
OP_MUL = 2
OP_DIV = 3
CMP_LT = 0
CMP_LE = 1
CMP_EQ = 2

_ALU_OPS = {"add": OP_ADD, "sub": OP_SUB, "mul": OP_MUL, "div": OP_DIV}
_CMP_OPS = {"lt": CMP_LT, "le": CMP_LE, "eq": CMP_EQ}

#: First timing slot of each non-vector register file (a0-a7, s0-s7,
#: VL, VS, VM); the timing model keeps one ready time per slot.
_SLOT_BASE = {RegisterClass.ADDRESS: 0, RegisterClass.SCALAR: 8,
              RegisterClass.VECTOR_LENGTH: 16,
              RegisterClass.VECTOR_STRIDE: 17, RegisterClass.VECTOR_MERGE: 18}
SCALAR_SLOTS = 19


def _slot(register: Register) -> int:
    return _SLOT_BASE[register.rclass] + register.index

#: Classification fields copied from the instruction's own record.
_CLASSIFICATION = (
    "mnemonic", "is_vector", "is_vector_memory", "is_scalar_memory",
    "touches_memory", "is_branch", "is_compare", "flop_count",
    "timing_key", "pipe",
)

#: Execution operands, filled in by decode where the tag needs them.
_OPERANDS = (
    "base_idx", "offset", "dest_vec_idx", "src_vec_idx",
    "src_spec", "dest_spec", "alu_op", "lhs_spec", "rhs_spec",
    "alu_scalar_result", "cmp_op",
)


class DecodedInstruction:
    """Execution record for one pc: the instruction's classification
    (copied, not re-derived), its execution operands, and the scalar
    register slots its reads and writes occupy in the timing model."""

    __slots__ = _CLASSIFICATION + _OPERANDS + (
        "instr", "tag", "target_pc", "branch_sense",
        "scalar_reads", "scalar_writes", "read_slots", "write_slots",
        "vector_read_idxs", "dest_reg", "dest_is_vector", "mem_stride",
    )

    def __init__(self, instr: Instruction):
        self.instr = instr
        for name in _CLASSIFICATION:
            setattr(self, name, getattr(instr, name))
        self.tag = T_LEGACY
        self.scalar_reads = tuple(r for r in instr.reads if not r.is_vector)
        self.scalar_writes = tuple(r for r in instr.writes if not r.is_vector)
        self.read_slots = tuple(map(_slot, self.scalar_reads))
        self.write_slots = tuple(map(_slot, self.scalar_writes))
        self.vector_read_idxs = tuple(
            sorted(r.index for r in instr.vector_reads)
        )
        dest = instr.destination
        self.dest_reg = dest if isinstance(dest, Register) else None
        self.dest_is_vector = bool(instr.vector_writes)
        mem = instr.memory_operand
        self.mem_stride = mem.stride_words if mem is not None else None
        for name in _OPERANDS:
            setattr(self, name, None)
        self.target_pc = -1
        self.branch_sense = True


#: Operand kind of each register file that holds a scalar value.
_REGISTER_KINDS = {
    RegisterClass.ADDRESS: K_A,
    RegisterClass.SCALAR: K_S,
    RegisterClass.VECTOR_LENGTH: K_VL,
    RegisterClass.VECTOR_STRIDE: K_VS,
}


def _scalar_spec(operand: Operand, floated: bool = False):
    """``(kind, payload)`` locator for a scalar-valued operand.

    With ``floated`` the immediate payload is pre-converted to float,
    matching ``_vector_or_scalar``'s ``float(...)`` wrap; otherwise the
    raw value is kept, matching ``_scalar_value``.  A register locates
    by file and index (0 for VL/VS).
    """
    if isinstance(operand, Immediate):
        return (K_IMM, float(operand.value) if floated else operand.value)
    if isinstance(operand, Register) and operand.rclass in _REGISTER_KINDS:
        return (_REGISTER_KINDS[operand.rclass], operand.index)
    return None


def fetch_scalar(spec, regfile: RegisterFile):
    """Raw scalar operand value (mirror of ``_scalar_value``)."""
    kind, payload = spec
    if kind == K_IMM:
        return payload
    if kind == K_A:
        return int(regfile.a[payload])
    if kind == K_S:
        return float(regfile.s[payload])
    if kind == K_VL:
        return regfile.vl
    return regfile.vs


def _fetch_float(spec, regfile: RegisterFile) -> float:
    """Floated scalar ALU operand (mirror of ``_vector_or_scalar``)."""
    kind, payload = spec
    if kind == K_IMM:
        return payload  # pre-floated at decode time
    if kind == K_A:
        return float(regfile.a[payload])
    if kind == K_S:
        return float(regfile.s[payload])
    if kind == K_VL:
        return float(regfile.vl)
    return float(regfile.vs)


def write_scalar(spec, regfile: RegisterFile, value) -> None:
    """Scalar register write (mirror of ``RegisterFile.write``)."""
    kind, payload = spec
    if kind == K_A:
        regfile.a[payload] = int(value)
    elif kind == K_S:
        regfile.s[payload] = float(value)
    elif kind == K_VL:
        regfile.vl = max(0, min(int(value), regfile.max_vl))
    else:
        regfile.vs = int(value)


def _decode_memory(d: DecodedInstruction, instr: Instruction,
                   layout: DataLayout) -> None:
    mem = instr.memory_operand
    assert mem is not None
    offset = mem.displacement
    if mem.symbol is not None:
        offset += layout.lookup(mem.symbol).offset_bytes
    d.base_idx = mem.base.index
    d.offset = offset
    if instr.mnemonic == "ld":
        dest = instr.operands[1]
        if not isinstance(dest, Register):
            return  # legacy path raises the proper error
        if dest.is_vector:
            d.tag = T_LD_V
            d.dest_vec_idx = dest.index
        else:
            spec = _scalar_spec(dest)
            if spec is None:
                return
            d.tag = T_LD_S
            d.dest_spec = spec
    else:  # st
        src = instr.operands[0]
        if not isinstance(src, Register):
            return
        if src.is_vector:
            d.tag = T_ST_V
            d.src_vec_idx = src.index
        else:
            spec = _scalar_spec(src, floated=False)
            if spec is None:
                return
            d.tag = T_ST_S
            d.src_spec = spec


def _decode_arithmetic(d: DecodedInstruction, instr: Instruction) -> None:
    dest = instr.destination
    if not isinstance(dest, Register):
        return
    if len(instr.operands) == 3:
        lhs_op, rhs_op = instr.operands[0], instr.operands[1]
    else:  # two-operand accumulate: dest is also the right-hand source
        lhs_op, rhs_op = instr.operands[0], dest
        if instr.mnemonic in ("sub", "div"):
            lhs_op, rhs_op = rhs_op, lhs_op
    specs = []
    for op in (lhs_op, rhs_op):
        if isinstance(op, Register) and op.is_vector:
            specs.append(("v", op.index))
        else:
            spec = _scalar_spec(op, floated=True)
            if spec is None:
                return
            specs.append(spec)
    d.lhs_spec, d.rhs_spec = specs
    d.alu_scalar_result = (
        d.lhs_spec[0] != "v" and d.rhs_spec[0] != "v"
    )
    d.alu_op = _ALU_OPS.get(instr.mnemonic)
    if d.alu_op is None:
        return
    if dest.is_vector:
        d.dest_vec_idx = dest.index
        d.dest_spec = None
    else:
        spec = _scalar_spec(dest)
        if spec is None:
            return
        d.dest_spec = spec
    d.tag = T_ALU


def _decode_scalar_unary(d: DecodedInstruction, tag: int,
                         src: Operand, dest: Register) -> None:
    """A scalar ``src -> dest`` form, when both operands locate."""
    src_spec, dest_spec = _scalar_spec(src), _scalar_spec(dest)
    if src_spec is not None and dest_spec is not None:
        d.tag, d.src_spec, d.dest_spec = tag, src_spec, dest_spec


def decode_instruction(
    instr: Instruction,
    layout: DataLayout | None = None,
    target_pc: int = -1,
) -> DecodedInstruction:
    """Build the decoded record for one instruction.

    Without ``layout``, memory instructions keep the legacy execution
    tag (symbol offsets cannot be resolved) but all classification /
    timing fields are still valid.
    """
    d = DecodedInstruction(instr)
    opclass = instr.spec.opclass
    if opclass is OpClass.MEMORY:
        if layout is not None:
            _decode_memory(d, instr, layout)
    elif opclass is OpClass.REDUCTION:
        src, dest = instr.operands
        if (
            isinstance(src, Register) and src.is_vector
            and isinstance(dest, Register)
            and dest.rclass is RegisterClass.SCALAR
        ):
            d.tag = T_SUM
            d.src_vec_idx = src.index
            d.dest_spec = (K_S, dest.index)
    elif opclass is OpClass.MOVE:
        src, dest = instr.operands
        if isinstance(dest, Register):
            if (
                isinstance(src, Register) and src.is_vector
                and dest.is_vector
            ):
                d.tag = T_MOV_VV
                d.src_vec_idx = src.index
                d.dest_vec_idx = dest.index
            elif not dest.is_vector:
                _decode_scalar_unary(d, T_MOV, src, dest)
    elif opclass is OpClass.COMPARE:
        lhs = _scalar_spec(instr.operands[0], floated=False)
        rhs = _scalar_spec(instr.operands[1], floated=False)
        op = _CMP_OPS.get(instr.mnemonic)
        if lhs is not None and rhs is not None and op is not None:
            d.tag = T_CMP
            d.lhs_spec = lhs
            d.rhs_spec = rhs
            d.cmp_op = op
    elif opclass is OpClass.BRANCH:
        d.target_pc = target_pc
        if instr.mnemonic == "jbr":
            d.tag = T_BR
        else:
            d.tag = T_BRS
            d.branch_sense = instr.suffix == "t"
    elif instr.mnemonic == "neg":
        src, dest = instr.operands
        if isinstance(src, Register) and isinstance(dest, Register):
            if src.is_vector and dest.is_vector:
                d.tag = T_NEG_V
                d.src_vec_idx = src.index
                d.dest_vec_idx = dest.index
            elif not src.is_vector and not dest.is_vector:
                _decode_scalar_unary(d, T_NEG_S, src, dest)
    else:
        _decode_arithmetic(d, instr)
    return d


#: Cross-program decode memo.  The A/X measurement codes and the chime
#: calibration variants share ``Instruction`` objects with the programs
#: they were filtered from; decoding is pure given the instruction, the
#: layout's symbol offsets, and the branch target, so the records are
#: shared too (they are immutable after decode).
_DECODE_CACHE = memo.Memo("machine.decode", 65536)


def decode_program(program) -> tuple[DecodedInstruction, ...]:
    """Decoded records for every instruction, cached on the program."""
    cached = getattr(program, "_decoded_cache", None)
    if cached is not None:
        return cached
    layout = program.layout
    layout_sig = tuple(
        (s.name, s.offset_bytes) for s in layout.symbols()
    )
    targets = program.branch_targets
    records = []
    for pc, instr in enumerate(program):
        key = (instr, layout_sig, targets[pc])
        d = _DECODE_CACHE.get(key)
        if d is None:
            d = decode_instruction(instr, layout, targets[pc])
            _DECODE_CACHE.put(key, d)
        records.append(d)
    decoded = tuple(records)
    program._decoded_cache = decoded
    return decoded


def execute_decoded(
    d: DecodedInstruction,
    regfile: RegisterFile,
    memory: MemorySystem,
    layout: DataLayout,
) -> bool:
    """Apply one decoded instruction; return True when a branch is taken.

    Value-for-value mirror of :func:`execute_instruction` — every float
    operation and int/float conversion happens in the same order on the
    same Python/NumPy types, so results are bit-for-bit identical.
    """
    tag = d.tag
    if tag == T_ALU:
        lhs_spec = d.lhs_spec
        lhs = (
            regfile.v[lhs_spec[1], : regfile.vl]
            if lhs_spec[0] == "v" else _fetch_float(lhs_spec, regfile)
        )
        rhs_spec = d.rhs_spec
        rhs = (
            regfile.v[rhs_spec[1], : regfile.vl]
            if rhs_spec[0] == "v" else _fetch_float(rhs_spec, regfile)
        )
        op = d.alu_op
        if op == OP_ADD:
            result = lhs + rhs
        elif op == OP_SUB:
            result = lhs - rhs
        elif op == OP_MUL:
            result = lhs * rhs
        else:
            result = lhs / rhs
        if d.dest_vec_idx is not None:
            vl = regfile.vl
            if d.alu_scalar_result:
                regfile.v[d.dest_vec_idx, :vl] = np.full(vl, float(result))
            else:
                regfile.v[d.dest_vec_idx, :vl] = result
        else:
            write_scalar(
                d.dest_spec, regfile,
                float(result) if d.alu_scalar_result
                else float(np.asarray(result).flat[0]),
            )
        return False
    if tag == T_LD_V:
        address = int(regfile.a[d.base_idx]) + d.offset
        vl = regfile.vl
        regfile.v[d.dest_vec_idx, :vl] = memory.read_vector(
            address, d.mem_stride, vl
        )
        return False
    if tag == T_ST_V:
        address = int(regfile.a[d.base_idx]) + d.offset
        memory.write_vector(
            address, d.mem_stride, regfile.v[d.src_vec_idx, : regfile.vl]
        )
        return False
    if tag == T_LD_S:
        address = int(regfile.a[d.base_idx]) + d.offset
        write_scalar(d.dest_spec, regfile, memory.read_word(address))
        return False
    if tag == T_ST_S:
        address = int(regfile.a[d.base_idx]) + d.offset
        memory.write_word(
            address, float(fetch_scalar(d.src_spec, regfile))
        )
        return False
    if tag == T_MOV:
        write_scalar(
            d.dest_spec, regfile, fetch_scalar(d.src_spec, regfile)
        )
        return False
    if tag == T_CMP:
        lhs = fetch_scalar(d.lhs_spec, regfile)
        rhs = fetch_scalar(d.rhs_spec, regfile)
        op = d.cmp_op
        if op == CMP_LT:
            regfile.flag = lhs < rhs
        elif op == CMP_LE:
            regfile.flag = lhs <= rhs
        else:
            regfile.flag = lhs == rhs
        return False
    if tag == T_BRS:
        return regfile.flag if d.branch_sense else not regfile.flag
    if tag == T_BR:
        return True
    if tag == T_SUM:
        regfile.s[d.dest_spec[1]] = float(
            regfile.v[d.src_vec_idx, : regfile.vl].sum()
        )
        return False
    if tag == T_MOV_VV:
        vl = regfile.vl
        regfile.v[d.dest_vec_idx, :vl] = regfile.v[
            d.src_vec_idx, :vl
        ].copy()
        return False
    if tag == T_NEG_V:
        vl = regfile.vl
        regfile.v[d.dest_vec_idx, :vl] = -regfile.v[d.src_vec_idx, :vl]
        return False
    if tag == T_NEG_S:
        write_scalar(
            d.dest_spec, regfile,
            -fetch_scalar(d.src_spec, regfile),
        )
        return False
    # Fallback: the reference interpreter (also raises the proper
    # errors for malformed instructions).
    return execute_instruction(d.instr, regfile, memory, layout) is not None
