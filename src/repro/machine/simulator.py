"""The Convex C-240 CPU simulator.

Couples the functional semantics (:mod:`repro.machine.semantics`) with
the timing model (:mod:`repro.machine.pipeline`): every executed
instruction both updates architectural state and advances the pipeline
clocks, so one run yields verified output values *and* a cycle count.

:func:`run_loop` is the package's one run loop.  :meth:`Simulator.run`
drives it with :func:`~repro.machine.semantics.execute_decoded` and the
fast path's :class:`~repro.machine.fastpath.FastPathEngine`; the static
tier (:func:`repro.analysis.predict_program`) drives it with an
abstract step over the scalar machine, so both count and time
instructions with the same code.

This plays the role of the physical C-240 in the paper's methodology:
``t_p`` / ``t_a`` / ``t_x`` measurements and the calibration loops of
§3.2–3.3 are all obtained by running (possibly transformed) assembly
here and reading ``SimulationResult.cycles``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..errors import SimulationError
from ..isa.program import Program
from ..resilience import watchdog
from ..sweep import telemetry
from .cache import CacheStats
from .config import DEFAULT_CONFIG, MachineConfig
from .fastpath import FastPathEngine, FastPathStats, LoopMonitor
from .memory import MemorySystem
from .pipeline import InstructionTiming, PipelineState, TimingModel
from .semantics import DecodedInstruction, decode_program, execute_decoded
from .state import RegisterFile

#: Default runaway guard (instruction executions, not cycles).
DEFAULT_MAX_INSTRUCTIONS = 5_000_000


@dataclass
class SimulationResult:
    """Outcome of one program run."""

    program_name: str
    cycles: float
    instructions_executed: int
    vector_instructions: int
    scalar_instructions: int
    vector_memory_ops: int
    scalar_memory_ops: int
    flops: int
    trace: list[InstructionTiming] = field(default_factory=list)
    #: populated when the scalar-cache model is enabled
    scalar_cache: CacheStats | None = None
    #: populated when the steady-state fast path was armed for the run
    fastpath: FastPathStats | None = None
    #: clock period of the machine that produced the run (ns)
    clock_period_ns: float = DEFAULT_CONFIG.clock_period_ns

    @property
    def mflops(self) -> float:
        """Delivered MFLOPS at the machine's clock."""
        if self.cycles <= 0:
            return 0.0
        seconds = self.cycles * self.clock_period_ns * 1e-9
        return self.flops / seconds / 1e6

    def cycles_per_flop(self) -> float:
        if self.flops == 0:
            raise SimulationError(
                f"{self.program_name}: no floating point work executed"
            )
        return self.cycles / self.flops


class Simulator:
    """Executes :class:`~repro.isa.program.Program` objects.

    A fresh :class:`Simulator` owns a memory image sized from the
    program's data layout.  Typical use::

        sim = Simulator(program)
        sim.memory.load_array(sym.offset_words, values)
        result = sim.run()
    """

    def __init__(
        self,
        program: Program,
        config: MachineConfig = DEFAULT_CONFIG,
        extra_memory_words: int = 0,
    ):
        self.program = program
        self.config = config
        self.memory = MemorySystem(
            program.layout.total_words + extra_memory_words, config
        )
        self.regfile = RegisterFile(max_vl=config.max_vl)

    # ------------------------------------------------------------------

    def load_symbol(self, name: str, values: np.ndarray) -> None:
        """Initialize a data symbol's region from an array."""
        symbol = self.program.layout.lookup(name)
        if len(values) * 8 > symbol.size_bytes:
            raise SimulationError(
                f"{len(values)} words exceed symbol {name!r} "
                f"({symbol.size_bytes // 8} words)"
            )
        self.memory.load_array(symbol.offset_words, np.asarray(values, float))

    def dump_symbol(self, name: str, count: int | None = None) -> np.ndarray:
        symbol = self.program.layout.lookup(name)
        words = symbol.size_bytes // 8 if count is None else count
        return self.memory.dump_array(symbol.offset_words, words)

    # ------------------------------------------------------------------

    def run(
        self,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
        record_trace: bool = False,
    ) -> SimulationResult:
        """Execute the program from its first instruction to fall-off.

        Raises a typed :class:`~repro.errors.BudgetExceededError` when
        the instruction budget (runaway loop) or the config's
        ``cycle_budget`` ceiling is exhausted, and
        :class:`SimulationError` when an instruction faults.
        """
        program = self.program
        config = self.config
        state = PipelineState(config)
        model = TimingModel(config, self.memory)
        fast = None
        stats = None
        if config.fastpath and not record_trace:
            stats = FastPathStats()
            fast = FastPathEngine(
                decode_program(program), model, state, self.regfile,
                self.memory, stats, max_instructions,
            )
        trace: list[InstructionTiming] = []

        # A/X-transformed code computes on nonsense values by design
        # (§3.6); suppress IEEE warnings for the whole run.
        with np.errstate(all="ignore"):
            (executed, vector_count, scalar_count, vector_memory,
             scalar_memory, flops) = run_loop(
                program, execute_decoded, self.regfile, self.memory,
                program.layout, fast, state, model, max_instructions,
                trace if record_trace else None,
            )

        cycles = state.finish_time()
        if telemetry.current() is not None:
            telemetry.record_counters(
                {
                    "runs": 1,
                    "cycles": cycles,
                    "instructions": executed,
                    "vector_instructions": vector_count,
                    "scalar_instructions": scalar_count,
                    "vector_memory_ops": vector_memory,
                    "scalar_memory_ops": scalar_memory,
                    "flops": flops,
                }
            )
        return SimulationResult(
            program_name=program.name,
            cycles=cycles,
            instructions_executed=executed,
            vector_instructions=vector_count,
            scalar_instructions=scalar_count,
            vector_memory_ops=vector_memory,
            scalar_memory_ops=scalar_memory,
            flops=flops,
            trace=trace,
            scalar_cache=(
                state.scalar_cache.stats
                if state.scalar_cache is not None else None
            ),
            fastpath=stats,
            clock_period_ns=config.clock_period_ns,
        )


def run_loop(
    program: Program,
    step: Callable[[DecodedInstruction, Any, Any, Any], bool],
    regs: Any,
    memory: Any,
    layout: Any,
    monitor: LoopMonitor | None,
    state: PipelineState,
    model: TimingModel,
    max_instructions: int,
    trace: list[InstructionTiming] | None = None,
) -> tuple[int, int, int, int, int, int]:
    """Run ``program`` from its first instruction to fall-off.

    The one run loop: ``step(d, regs, memory, layout)`` applies each
    decoded instruction and returns whether a branch is taken; the loop
    does the rest — the watchdog checks, vector and scalar timing on
    ``state`` through ``model``, the counters, reporting each branch to
    the loop ``monitor`` and counting the iterations it skips, and one
    timing record per instruction when ``trace`` is a list.
    :class:`Simulator` steps :func:`execute_decoded` over its register
    file and memory; the static tier's walker steps abstract state and
    is its own ``regs`` and ``monitor``.  ``regs`` provides ``vl`` and,
    under the scalar-cache model, the address registers ``a``.

    Returns (instructions, vector instructions, scalar instructions,
    vector memory ops, scalar memory ops, flops).
    """
    decoded = decode_program(program)
    config = state.config
    timings = config.timings
    vtimings = tuple(
        timings.lookup(d.timing_key) if d.is_vector else None
        for d in decoded
    )
    on_branch = monitor.on_branch if monitor is not None else None
    record_trace = trace is not None
    executed = 0
    vector_count = 0
    scalar_count = 0
    vector_memory = 0
    scalar_memory = 0
    flops = 0
    pc = 0
    n_instructions = len(decoded)
    cache = state.scalar_cache
    cycle_budget = config.cycle_budget
    time_vector = model.time_vector_decoded
    time_scalar = model.time_scalar_decoded
    name = program.name

    while 0 <= pc < n_instructions:
        if executed >= max_instructions:
            watchdog.check_instructions(executed, max_instructions, name)
        if cycle_budget is not None:
            watchdog.check_cycles(state.issue_clock, cycle_budget, name)
        d = decoded[pc]
        taken = step(d, regs, memory, layout)
        if d.is_vector:
            timing = time_vector(
                state, d, vtimings[pc], pc, regs.vl, record_trace
            )
            vector_count += 1
            if d.is_vector_memory:
                vector_memory += 1
            flops += d.flop_count * regs.vl
        else:
            word_address = None
            if d.is_scalar_memory:
                scalar_memory += 1
                if cache is not None:
                    word_address = (int(regs.a[d.base_idx]) + d.offset) // 8
            timing = time_scalar(
                state, d, pc, taken, word_address, record_trace
            )
            scalar_count += 1
        if trace is not None:
            trace.append(timing)
        executed += 1
        if taken:
            if on_branch is not None:
                skip = on_branch(pc, True, executed)
                if skip is not None:
                    executed += skip.instructions
                    vector_count += skip.vector_instructions
                    scalar_count += skip.scalar_instructions
                    vector_memory += skip.vector_memory
                    scalar_memory += skip.scalar_memory
                    flops += skip.flops
            pc = d.target_pc
        else:
            if on_branch is not None and d.is_branch:
                on_branch(pc, False, executed)
            pc += 1
    return (executed, vector_count, scalar_count, vector_memory,
            scalar_memory, flops)


def run_program(
    program: Program,
    config: MachineConfig = DEFAULT_CONFIG,
    initial_data: dict[str, np.ndarray] | None = None,
    record_trace: bool = False,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
) -> SimulationResult:
    """One-shot convenience: build a simulator, load data, run."""
    sim = Simulator(program, config)
    for name, values in (initial_data or {}).items():
        sim.load_symbol(name, values)
    return sim.run(
        max_instructions=max_instructions, record_trace=record_trace
    )
