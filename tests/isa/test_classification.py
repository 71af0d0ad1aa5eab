"""Instruction classification, pinned.

Every consumer of an instruction (simulator, fast path, static walker,
chime partitioner, counts, checks) reads the same classification: the
opcode spec, the read/write register sets, vector-ness, memory-ness,
the function pipe and timing key, the memory operand, and the decoded
record's scalar operand registers, vector sources, destination kind and
memory stride.  This pins that classification for every instruction of
every shipped workload compiled under every canonical option variant,
plus the A- and X-process codes derived from each, against
``data/classification.json``.  A change to *how* classification is
computed must leave every tuple equal.

Regenerate the fixture (only when classification is meant to change)
with::

    PYTHONPATH=src python -m tests.isa.test_classification
"""

import dataclasses
import json
import pathlib

import pytest

from repro.errors import CompileError
from repro.machine.semantics import decode_program
from repro.model.ax import access_only_program, execute_only_program
from repro.sweep.spec import OPTION_VARIANTS
from repro.workloads import ALL_WORKLOADS, compile_spec

FIXTURE = pathlib.Path(__file__).with_name("data") / "classification.json"


def _names(registers) -> list:
    return sorted(r.name for r in registers)


def classify(instr, d) -> list:
    """The classification tuple of one instruction and its decoded record."""
    mem = instr.memory_operand
    return [
        instr.spec.mnemonic,
        instr.spec.opclass.value,
        _names(instr.reads),
        _names(instr.writes),
        _names(instr.vector_reads),
        _names(instr.vector_writes),
        instr.is_vector,
        instr.is_vector_memory,
        instr.is_scalar_memory,
        instr.is_vector_fp,
        None if instr.pipe is None else instr.pipe.value,
        instr.timing_key,
        None if mem is None else str(mem),
        _names(d.scalar_reads),
        _names(d.scalar_writes),
        list(d.vector_read_idxs),
        d.dest_is_vector,
        d.mem_stride,
    ]


def programs():
    """(case id, program) for every workload x variant x A/X code.

    A variant whose register budget a workload cannot meet does not
    compile; there is nothing to classify for it.
    """
    for spec in ALL_WORKLOADS:
        for variant, options in OPTION_VARIANTS.items():
            try:
                program = compile_spec(spec, options).program
            except CompileError:
                continue
            yield f"{spec.name}/{variant}", program
            yield f"{spec.name}/{variant}/access", \
                access_only_program(program)
            yield f"{spec.name}/{variant}/execute", \
                execute_only_program(program)


def instruction_form(instr) -> str:
    """Printed form without label and comment, the classification's input."""
    return str(dataclasses.replace(instr, label=None, comment=None))


def record() -> dict:
    """Every instruction form's classification, by the code under test."""
    forms = {}
    for _, program in programs():
        for instr, d in zip(program, decode_program(program)):
            forms[instruction_form(instr)] = classify(instr, d)
    return forms


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


def test_fixture_is_exactly_the_shipped_forms(pinned):
    assert set(record()) == set(pinned)


@pytest.mark.parametrize(
    "case_program", list(programs()), ids=lambda case: case[0]
)
def test_classification_pinned(pinned, case_program):
    _, program = case_program
    for instr, d in zip(program, decode_program(program)):
        form = instruction_form(instr)
        assert classify(instr, d) == pinned[form], form


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
