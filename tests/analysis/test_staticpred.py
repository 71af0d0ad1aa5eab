"""The abstract-interpretation predictor, one behaviour per test."""

import math

import pytest

from repro.analysis import MODEL_TIER_WIDEN, predict_program
from repro.analysis.staticpred import StaticPrediction
from repro.errors import AnalysisError, MemoryError_, SimulationError
from repro.isa.builder import AsmBuilder
from repro.isa.operands import Immediate
from repro.isa.registers import areg, sreg, vreg
from repro.machine import DEFAULT_CONFIG, run_program
from repro.model import known_initial_memory, predict_kernel
from repro.workloads import compile_spec, run_kernel, workload
from repro.workloads.runner import sized_spec


def predict_spec(name, config=DEFAULT_CONFIG):
    spec = workload(name)
    compiled = compile_spec(spec)
    return spec, compiled, predict_program(
        compiled.program,
        config,
        known_memory=known_initial_memory(spec, compiled),
        trips=spec.trip_profile or None,
    )


class TestExactTier:
    @pytest.mark.parametrize("name", ["lfk1", "lfk3", "lfk12"])
    def test_bit_exact_against_simulator(self, name):
        spec, _compiled, prediction = predict_spec(name)
        result = run_kernel(spec).result
        assert prediction.exact
        assert prediction.tier == "exact"
        assert prediction.cycles == result.cycles
        assert prediction.counters() == {
            "instructions_executed": result.instructions_executed,
            "vector_instructions": result.vector_instructions,
            "scalar_instructions": result.scalar_instructions,
            "vector_memory_ops": result.vector_memory_ops,
            "scalar_memory_ops": result.scalar_memory_ops,
            "flops": result.flops,
        }

    def test_interval_is_degenerate(self):
        _spec, _compiled, prediction = predict_spec("lfk1")
        assert prediction.cycles_low == prediction.cycles
        assert prediction.cycles_high == prediction.cycles
        assert prediction.relative_width == 0.0

    def test_no_fastpath_config_still_exact(self):
        spec, _compiled, prediction = predict_spec(
            "lfk1", DEFAULT_CONFIG.without_fastpath()
        )
        result = run_kernel(
            spec, config=DEFAULT_CONFIG.without_fastpath()
        ).result
        assert prediction.exact
        assert prediction.cycles == result.cycles

    def test_fastpath_summarizes_loops(self):
        _spec, _compiled, prediction = predict_spec("lfk1")
        assert prediction.loops_summarized >= 1
        assert prediction.iterations_skipped > 0

    def test_scalar_recurrence_kernel_is_exact(self):
        # lfk5 has no vector loop at all: pure scalar interpretation.
        spec, _compiled, prediction = predict_spec("lfk5")
        result = run_kernel(spec).result
        assert prediction.exact
        assert prediction.cycles == result.cycles

    def test_to_dict_carries_the_counter_schema(self):
        _spec, _compiled, prediction = predict_spec("lfk3")
        payload = prediction.to_dict()
        assert payload["program"] == "lfk3"
        assert payload["tier"] == "exact"
        assert payload["exact"] is True
        assert payload["cycles"] == prediction.cycles
        for name, value in prediction.counters().items():
            assert payload[name] == value
        assert "decline_reason" not in payload


def data_dependent_branch_program():
    """A strip loop followed by a branch on (opaque) array data."""
    b = AsmBuilder("datadep")
    x = b.data("x", 4096)
    b.mov(Immediate(0), areg(0))
    b.mov(Immediate(300), areg(7))
    b.mov(Immediate(0), areg(5))
    with b.strip_loop(areg(7), areg(5)):
        b.vload(b.mem(x, areg(5)), vreg(0))
        b.vadd(vreg(0), vreg(0), vreg(1))
        b.vstore(vreg(1), b.mem(x, areg(5)))
    b.op("ld", b.mem(x, areg(0)), sreg(0), suffix="l")
    b.compare_lt(Immediate(1), sreg(0))
    skip = b.fresh_label()
    b.branch_true(skip)
    b.mov(Immediate(1), areg(1))
    b.label(skip)
    b.mov(Immediate(0), areg(1))
    return b.build()


class TestModelTier:
    def test_unknown_branch_falls_back_to_model(self):
        program = data_dependent_branch_program()
        prediction = predict_program(
            program, DEFAULT_CONFIG, trips=(300,)
        )
        assert not prediction.exact
        assert prediction.tier == "model"
        assert prediction.decline_reason == "branch-on-unknown-flag"

    def test_model_interval_has_documented_width(self):
        program = data_dependent_branch_program()
        prediction = predict_program(
            program, DEFAULT_CONFIG, trips=(300,)
        )
        assert prediction.cycles_low == prediction.cycles
        assert prediction.cycles_high == pytest.approx(
            prediction.cycles_low * MODEL_TIER_WIDEN
        )
        assert prediction.relative_width > 0.0

    def test_model_tier_without_trips_is_an_error(self):
        program = data_dependent_branch_program()
        with pytest.raises(AnalysisError):
            predict_program(program, DEFAULT_CONFIG)

    def test_scalar_cache_config_uses_model_tier(self):
        spec = workload("lfk1")
        compiled = compile_spec(spec)
        prediction = predict_program(
            compiled.program,
            DEFAULT_CONFIG.with_scalar_cache(),
            known_memory=known_initial_memory(spec, compiled),
            trips=spec.trip_profile or None,
        )
        assert not prediction.exact
        assert prediction.decline_reason == "scalar-cache-enabled"


def access_program(op, base_word, vl, stride=1, misalign=0):
    """One memory access at ``base_word`` under VL ``vl``.

    The program's memory is its one 8-word array.
    """
    b = AsmBuilder(f"{op}-at-{base_word}")
    b.data("x", 8)
    b.mov(Immediate(8 * base_word + misalign), areg(1))
    b.set_vl(Immediate(vl))
    ref = b.mem(None, areg(1), stride_words=stride)
    if op == "vload":
        b.vload(ref, vreg(0))
    elif op == "vstore":
        b.vstore(vreg(0), ref)
    elif op == "sload":
        b.sload(ref, sreg(0))
    else:
        b.sstore(sreg(0), ref)
    return b.build()


#: (op, first word, VL, stride, byte misalignment, outcome).  Faults
#: follow ``MemorySystem``'s rules: unaligned, first word out of range,
#: or (VL > 0 only) last word out of range.  A vector access under
#: VL 0 that does not fault is rejected by the timing model instead.
ACCESSES = [
    ("sload", 7, 1, 1, 0, "ok"),
    ("sload", 8, 1, 1, 0, "fault"),
    ("sload", 2, 1, 1, 4, "fault"),
    ("sstore", -1, 1, 1, 0, "fault"),
    ("sstore", 0, 1, 1, 0, "ok"),
    ("vload", 0, 8, 1, 0, "ok"),
    ("vload", 1, 8, 1, 0, "fault"),
    ("vload", 7, 8, -1, 0, "ok"),
    ("vload", 3, 8, -1, 0, "fault"),
    ("vload", 0, 8, 1, 2, "fault"),
    ("vload", 7, 0, 1, 0, "vl0"),
    ("vload", 8, 0, 1, 0, "fault"),
    ("vstore", 4, 2, 2, 0, "ok"),
    ("vstore", 4, 3, 2, 0, "fault"),
]


class TestMemoryFaults:
    """The exact tier bails wherever the simulator would fault."""

    @pytest.mark.parametrize("access", ACCESSES, ids=str)
    def test_fault_iff_simulator_faults(self, access):
        op, word, vl, stride, misalign, outcome = access
        program = access_program(op, word, vl, stride, misalign)
        assert program.layout.total_words == 8
        if outcome == "fault":
            with pytest.raises(MemoryError_):
                run_program(program)
            with pytest.raises(AnalysisError, match="memory-fault"):
                predict_program(program, DEFAULT_CONFIG)
        elif outcome == "vl0":
            with pytest.raises(SimulationError, match="VL=0"):
                run_program(program)
            with pytest.raises(SimulationError, match="VL=0"):
                predict_program(program, DEFAULT_CONFIG)
        else:
            prediction = predict_program(program, DEFAULT_CONFIG)
            assert prediction.exact
            assert prediction.cycles == run_program(program).cycles

    @pytest.mark.parametrize("n", [8, 20])
    def test_skip_never_hides_a_fault(self, n):
        # A top-tested loop: its exit iteration touches no memory, so
        # only the loop summary itself can see words 8..n-1 fault.
        b = AsmBuilder(f"scan-{n}")
        b.data("x", 8)
        b.mov(Immediate(0), areg(1))
        b.mov(Immediate(n), areg(2))
        head, done = b.fresh_label(), b.fresh_label()
        b.label(head)
        b.compare_lt(Immediate(0), areg(2))
        b.branch_false(done)
        b.sload(b.mem(None, areg(1)), sreg(0))
        b.add_imm(8, areg(1))
        b.sub_imm(1, areg(2))
        b.jump(head)
        b.label(done)
        b.mov(Immediate(0), areg(1))
        program = b.build()
        if n <= 8:
            prediction = predict_program(program, DEFAULT_CONFIG)
            assert prediction.exact
            assert prediction.loops_summarized == 1
            assert prediction.cycles == run_program(program).cycles
        else:
            with pytest.raises(MemoryError_):
                run_program(program)
            with pytest.raises(AnalysisError, match="memory-fault"):
                predict_program(program, DEFAULT_CONFIG)

    def test_kernel_past_its_arrays_is_not_exact(self):
        # lfk1's arrays hold ~1001 elements; the simulator faults on
        # the first strip past them, so no "exact" answer may exist.
        spec = sized_spec(workload("lfk1"), 5000)
        with pytest.raises(MemoryError_):
            run_kernel(spec)
        prediction = predict_kernel(spec).prediction
        assert not prediction.exact
        assert prediction.decline_reason == "memory-fault"


class TestPredictionSurface:
    def test_counters_are_integers(self):
        _spec, _compiled, prediction = predict_spec("lfk2")
        for value in prediction.counters().values():
            assert isinstance(value, int)

    def test_cycles_are_finite(self):
        _spec, _compiled, prediction = predict_spec("lfk2")
        assert math.isfinite(prediction.cycles)
        assert prediction.cycles > 0
