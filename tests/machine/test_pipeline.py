"""Timing-model tests: chaining, tailgating, bubbles, ports, refresh.

The key fixture programs mirror the paper's §3.3 worked examples, so
the expected cycle counts are the paper's numbers.
"""

import pytest

from repro.isa import AsmBuilder, Immediate, areg, sreg, vreg
from repro.machine import MachineConfig, Simulator

NO_REFRESH = MachineConfig().without_refresh()


def chained_chime_program(copies=1):
    """ld -> add -> mul chained chime(s), VL = 128 (paper Figure 2)."""
    b = AsmBuilder("chime")
    data = b.data("arr", 8192)
    b.mov(Immediate(0), areg(0))
    b.mov(Immediate(0), areg(5))
    b.set_vl(Immediate(128))
    for _ in range(copies):
        b.vload(b.mem(data, areg(5)), vreg(0))
        b.vadd(vreg(0), vreg(1), vreg(2))
        b.vmul(vreg(2), vreg(3), vreg(5))
        b.add_imm(1024, areg(5))
    return b.build()


def run_traced(program, config=NO_REFRESH):
    sim = Simulator(program, config)
    sim.regfile.prime_vectors()
    return sim.run(record_trace=True)


def vector_trace(result):
    return [t for t in result.trace if t.pipe is not None]


class TestChaining:
    def test_first_chime_166_cycles(self):
        """Paper: 162 chained + 4 bubble cycles = 166."""
        result = run_traced(chained_chime_program(1))
        trace = vector_trace(result)
        assert trace[2].complete - trace[0].dispatch == 166.0

    def test_chaining_beats_serial_execution(self):
        """Paper: 422 cycles unchained vs 166 chained."""
        result = run_traced(chained_chime_program(1))
        trace = vector_trace(result)
        assert trace[2].complete - trace[0].dispatch < 422

    def test_consumer_starts_at_first_result(self):
        result = run_traced(chained_chime_program(1))
        load, add, _ = vector_trace(result)
        # add enters right after the load's first element (plus B).
        assert add.start == pytest.approx(load.first_result + 1.0)

    def test_steady_state_chime_near_vl(self):
        """Successive chimes asymptotically cost ~VL (+ bubbles)."""
        result = run_traced(chained_chime_program(8))
        trace = vector_trace(result)
        ends = [trace[3 * i + 2].complete for i in range(8)]
        deltas = [b - a for a, b in zip(ends[3:], ends[4:])]
        for delta in deltas:
            assert 128.0 <= delta <= 134.0


class TestTailgating:
    def test_loads_tailgate_with_bubble(self):
        b = AsmBuilder("loads")
        data = b.data("arr", 4096)
        b.mov(Immediate(0), areg(0))
        b.mov(Immediate(0), areg(5))
        b.set_vl(Immediate(128))
        for i in range(3):
            b.vload(b.mem(data, areg(5), 128 * i), vreg(i))
        result = run_traced(b.build())
        loads = vector_trace(result)
        # Each subsequent load enters the pipe VL + B(=2) later.
        assert loads[1].start - loads[0].start == 130.0
        assert loads[2].start - loads[1].start == 130.0

    def test_bubble_ablation_removes_gap(self):
        b = AsmBuilder("loads")
        data = b.data("arr", 4096)
        b.mov(Immediate(0), areg(0))
        b.mov(Immediate(0), areg(5))
        b.set_vl(Immediate(128))
        for i in range(2):
            b.vload(b.mem(data, areg(5), 128 * i), vreg(i))
        result = run_traced(
            b.build(), NO_REFRESH.without_bubbles()
        )
        loads = vector_trace(result)
        assert loads[1].start - loads[0].start == 128.0


class TestMemoryPort:
    def test_scalar_load_waits_for_vector_stream(self):
        b = AsmBuilder("port")
        data = b.data("arr", 4096)
        b.mov(Immediate(0), areg(0))
        b.set_vl(Immediate(128))
        b.vload(b.mem(data, areg(0)), vreg(0))
        b.sload(b.mem(data, areg(0), 1024), sreg(1))
        result = run_traced(b.build())
        scalar = result.trace[-1]
        vector = vector_trace(result)[0]
        # The scalar access cannot slip under the streaming vector load.
        assert scalar.start >= vector.start + 128

    def test_add_pipe_does_not_block_port(self):
        b = AsmBuilder("noport")
        b.data("arr", 4096)
        b.mov(Immediate(0), areg(0))
        b.set_vl(Immediate(128))
        b.vadd(vreg(0), vreg(1), vreg(2))
        b.sload(b.mem("arr", areg(0)), sreg(1))
        result = run_traced(b.build())
        scalar = result.trace[-1]
        assert scalar.start < 20  # issues immediately


class TestDivide:
    def test_divide_rate(self):
        b = AsmBuilder("div")
        b.data("arr", 256)
        b.mov(Immediate(0), areg(0))
        b.set_vl(Immediate(128))
        b.vdiv(vreg(0), vreg(1), vreg(2))
        result = run_traced(b.build())
        div = vector_trace(result)[0]
        # Z=4: the stream spans 4*128 cycles after the Y latency.
        assert div.complete - div.first_result == 4 * 128

    def test_divide_chained_consumer_inherits_rate(self):
        b = AsmBuilder("divchain")
        b.data("arr", 256)
        b.mov(Immediate(0), areg(0))
        b.set_vl(Immediate(128))
        b.vdiv(vreg(0), vreg(1), vreg(2))
        b.vadd(vreg(2), vreg(3), vreg(5))
        result = run_traced(b.build())
        _, add = vector_trace(result)
        # The add consumes at the divide's 4 cycles/element rate.
        assert add.complete - add.first_result == pytest.approx(4 * 128)


class TestRefreshTiming:
    def test_refresh_slows_memory_saturated_loop(self):
        program = chained_chime_program(8)
        with_refresh = run_traced(program, MachineConfig())
        without = run_traced(program, NO_REFRESH)
        assert with_refresh.cycles > without.cycles
        # Roughly the 2% the paper models.
        ratio = with_refresh.cycles / without.cycles
        assert 1.005 < ratio < 1.06


class TestShortVectors:
    def test_overheads_dominate_at_short_vl(self):
        def cpf_at(vl):
            b = AsmBuilder(f"short{vl}")
            data = b.data("arr", 4096)
            b.mov(Immediate(0), areg(0))
            b.mov(Immediate(0), areg(5))
            b.set_vl(Immediate(vl))
            for i in range(4):
                b.vload(b.mem(data, areg(5), 128 * i), vreg(i))
            result = run_traced(b.build())
            return result.cycles / (4 * vl)

        assert cpf_at(8) > 1.5 * cpf_at(128)


class TestRunawayGuard:
    def _forever(self):
        b = AsmBuilder("forever")
        top = b.fresh_label()
        b.label(top)
        b.mov(Immediate(1), sreg(0))
        b.jump(top)
        return b.build()

    def test_max_instructions_enforced(self):
        from repro.errors import BudgetExceededError

        sim = Simulator(self._forever())
        with pytest.raises(BudgetExceededError) as excinfo:
            sim.run(max_instructions=100)
        assert excinfo.value.budget == "instructions"
        assert excinfo.value.limit == 100

    def test_cycle_budget_enforced(self):
        from repro.errors import BudgetExceededError
        from repro.machine import MachineConfig

        sim = Simulator(
            self._forever(), MachineConfig(cycle_budget=50.0)
        )
        with pytest.raises(BudgetExceededError) as excinfo:
            sim.run()
        assert excinfo.value.budget == "cycles"
        assert excinfo.value.limit == 50.0


class TestPerRunConstants:
    """Scalar issue, branch penalty and refresh come from the run's
    machine, not from the C-240 defaults."""

    CONFIG = MachineConfig(
        scalar_issue_cycles=3,
        branch_taken_penalty=5,
        refresh_period=50,
        refresh_duration=8,
    )

    def program(self):
        b = AsmBuilder("constants")
        data = b.data("arr", 16)
        b.mov(Immediate(0), areg(0))
        b.mov(Immediate(1), areg(1))
        b.sload(b.mem(data, areg(0)), sreg(1))
        b.compare_lt(areg(0), areg(1))
        b.branch_true("over")
        b.mov(Immediate(7), areg(2))  # skipped by the taken branch
        b.label("over")
        b.sload(b.mem(data, areg(0), 1), sreg(2))
        return b.build()

    def test_hand_computed_scalar_timing(self):
        result = run_traced(self.program(), self.CONFIG)
        points = [(t.pc, t.dispatch, t.start, t.complete)
                  for t in result.trace]
        assert points == [
            # mov: issue 3 cycles each
            (0, 0.0, 0.0, 3.0),
            (1, 3.0, 3.0, 6.0),
            # ld at cycle 6 falls in the refresh window [0, 8): it
            # starts at 8, completes after the 4-cycle load latency,
            # and frees the issue unit 3 cycles after its start
            (2, 6.0, 8, 12.0),
            (3, 11, 11, 14),
            # the taken branch waits for the flag (14), issues for 3
            # cycles and then costs the 5-cycle penalty
            (4, 14, 14, 17),
            # ld at 22 is outside any window: no stall
            (6, 22, 22, 26.0),
        ]
        assert result.cycles == 26.0

    def test_same_program_on_the_c240_defaults(self):
        result = run_traced(self.program(), MachineConfig())
        points = [(t.pc, t.start, t.complete) for t in result.trace]
        assert points == [
            (0, 0.0, 1.0),
            (1, 1.0, 2.0),
            # cycle 2 is inside the C-240's first window [0, 8) too
            (2, 8, 12.0),
            (3, 9, 10),
            (4, 10, 11),
            (6, 13, 17.0),
        ]
        assert result.cycles == 17.0
