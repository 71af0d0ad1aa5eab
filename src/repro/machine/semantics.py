"""Functional (value-level) semantics of the instruction set.

The simulator executes programs both for *timing* and for *values*;
value-level execution lets the test suite check the compiler against
NumPy reference implementations of the kernels, exactly as one would
validate generated code against the source program on real hardware.

Executing an instruction has one definition.  :func:`decode_program`
lowers each instruction once per program into a slot record
(:class:`DecodedInstruction`): the instruction's own classification
plus resolved operand locators, memory offsets, branch targets and
timing register slots.  :func:`execute_decoded` applies one record to a
:class:`~repro.machine.state.RegisterFile` and
:class:`~repro.machine.memory.MemorySystem` and returns whether a
branch is taken.  The static tier's walker steps the same records over
abstract state.

A well-formed instruction with no execution semantics (a VM operand, a
``mov`` or ``neg`` across the vector and scalar files, a compare on a
vector register, a non-register ``ld``/``st`` operand) decodes to
:data:`T_INVALID`; executing it raises :class:`SimulationError`.
"""

from __future__ import annotations

import numpy as np

from .. import memo
from ..errors import SimulationError
from ..isa.instructions import Instruction, OpClass
from ..isa.operands import Immediate, Operand
from ..isa.program import DataLayout
from ..isa.registers import Register, RegisterClass
from .memory import MemorySystem
from .state import RegisterFile


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
T_INVALID = 13  # a form with no execution semantics

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
        self.tag = T_INVALID
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
    as every ALU operand is; otherwise (moves, compares, stores) the
    raw value is kept.  A register locates by file and index (0 for
    VL/VS).
    """
    if isinstance(operand, Immediate):
        return (K_IMM, float(operand.value) if floated else operand.value)
    if isinstance(operand, Register) and operand.rclass in _REGISTER_KINDS:
        return (_REGISTER_KINDS[operand.rclass], operand.index)
    return None


def fetch_scalar(spec, regfile: RegisterFile):
    """Raw scalar operand value: int for a/VL/VS, float for s."""
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
    """Scalar ALU operand, as a float."""
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
    """Scalar register write, converted and clamped as
    :meth:`RegisterFile.write <repro.machine.state.RegisterFile.write>`
    does."""
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
            return  # T_INVALID
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
    instr: Instruction, layout: DataLayout, target_pc: int = -1
) -> DecodedInstruction:
    """Build the decoded record for one instruction; ``layout``
    resolves memory symbols and ``target_pc`` is a branch's target."""
    d = DecodedInstruction(instr)
    opclass = instr.spec.opclass
    if opclass is OpClass.MEMORY:
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

    Decode already resolved memory symbols against ``layout``; it is
    still passed so that every step of the run loop
    (:func:`repro.machine.simulator.run_loop`) has one signature.
    Raises :class:`SimulationError` for a :data:`T_INVALID` record.
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
    raise SimulationError(f"no execution semantics for {d.instr}")
