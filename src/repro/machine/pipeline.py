"""Instruction-level timing model of the C-240 CPU.

The model tracks, per function pipe and per register, *when* values and
resources become available, and computes for each instruction the four
time points the paper's calibration experiments talk about:

``dispatch``
    when the in-order issue unit picks the instruction up;
``start``
    when its first element enters the function pipe (after the ``X``
    issue overhead, any pipe/port/operand waits, and the tailgating
    bubble ``B``);
``first_result``
    ``start + Y`` — first element result available (chaining consumers
    may begin here);
``complete``
    when the last element result is available.

The model reproduces the paper's §3.3 behaviours:

* **chaining** — a consumer starts as soon as the producer's first
  element is available and streams at the slower of the two rates;
* **tailgating with bubbles** — successive instructions enter a pipe
  back-to-back, at the cost of the empirical per-instruction bubble
  ``B`` from Table 1 (``sum(B)`` per chime, paper eq. 13);
* **single memory port** — vector memory streams and scalar accesses
  serialize, so a scalar load splits chimes;
* **memory refresh** — streams overlapping a refresh stall 8 cycles;
* **bank throttling** — non-unit power-of-two strides stream slower.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SimulationError
from ..isa.instructions import Instruction, Pipe
from ..isa.registers import Register, RegisterClass
from .cache import ScalarCache
from .config import MachineConfig
from .memory import MemorySystem
from .semantics import DecodedInstruction

#: Display order of the pipes, fixed for fingerprint stability.
_PIPES = tuple(Pipe)


@dataclass
class VectorStream:
    """Availability profile of a vector register's current contents.

    Element ``i`` is available at ``first + i * rate``; ``end`` is when
    the final element lands.
    """

    first: float = 0.0
    rate: float = 1.0
    end: float = 0.0

    def streaming_at(self, cycle: float) -> bool:
        return cycle < self.end


@dataclass(frozen=True)
class InstructionTiming:
    """Timing record for one executed instruction (trace entry)."""

    pc: int
    instruction: Instruction
    dispatch: float
    start: float
    first_result: float
    complete: float
    vl: int
    pipe: Pipe | None

    @property
    def latency(self) -> float:
        return self.complete - self.dispatch


class PipelineState:
    """Mutable resource/operand availability state."""

    def __init__(self, config: MachineConfig):
        self.config = config
        self.issue_clock = 0.0
        #: when each pipe's input stage frees (tailgating point)
        self.pipe_input_free: dict[Pipe, float] = {p: 0.0 for p in Pipe}
        #: start time of the most recent instruction dispatched to each
        #: pipe — the one-deep reservation station frees when it starts
        self.pipe_reservation_free: dict[Pipe, float] = {p: 0.0 for p in Pipe}
        self.memory_port_free = 0.0
        self.vector_streams: dict[int, VectorStream] = {
            i: VectorStream() for i in range(8)
        }
        #: per v-register: (start cycle, rate) of the most recent reader
        self.vector_last_read: dict[int, tuple[float, float]] = {
            i: (0.0, 1.0) for i in range(8)
        }
        self.scalar_ready: dict[Register, float] = {}
        self.flag_ready = 0.0
        self.last_complete = 0.0
        self.scalar_cache: ScalarCache | None = (
            ScalarCache(
                config.scalar_cache_lines,
                config.scalar_cache_line_words,
            )
            if config.scalar_cache_enabled
            else None
        )

    def scalar_ready_time(self, register: Register) -> float:
        return self.scalar_ready.get(register, 0.0)

    def set_scalar_ready(self, register: Register, cycle: float) -> None:
        self.scalar_ready[register] = cycle

    def finish_time(self) -> float:
        """Cycle when everything in flight has drained."""
        return max(
            self.issue_clock,
            self.last_complete,
            self.memory_port_free,
            *self.pipe_input_free.values(),
        )

    # ------------------------------------------------------------------
    # Fast-path support: normalize / shift the absolute clocks
    # ------------------------------------------------------------------

    def absolute_clocks(self) -> list[float]:
        """Every absolute time point held in the state (rates excluded)."""
        clocks = [
            self.issue_clock,
            self.memory_port_free,
            self.flag_ready,
            self.last_complete,
        ]
        for p in _PIPES:
            clocks.append(self.pipe_input_free[p])
            clocks.append(self.pipe_reservation_free[p])
        for stream in self.vector_streams.values():
            clocks.append(stream.first)
            clocks.append(stream.end)
        for start, _rate in self.vector_last_read.values():
            clocks.append(start)
        clocks.extend(self.scalar_ready.values())
        return clocks

    def clock_fingerprint(self) -> tuple:
        """State with all absolute clocks expressed relative to issue.

        Two states with equal fingerprints behave identically up to a
        pure time shift (provided the subtractions below were exact —
        the fast path only trusts this after its dyadic grid guard).

        Clocks at or below ``issue_clock`` are *inert*: ``issue_clock``
        never decreases, and every future consultation of these clocks
        is a ``max()`` against a dispatch point that is itself at least
        ``issue_clock`` — so their exact values can never influence any
        later timing decision.  They are clamped to an ``"old"`` marker
        here; without the clamp, registers last touched before a loop
        would drift relative to ``issue_clock`` forever and no two
        boundary fingerprints could ever match.  The one consumer that
        can reach *behind* ``issue_clock`` is the WAR hazard check,
        which adds ``vl * reader_rate`` to a recorded read start, so
        ``vector_last_read`` entries only become inert a full
        ``rate * max_vl`` horizon below issue.
        """
        base = self.issue_clock
        max_vl = float(self.config.max_vl)

        def rel(v: float):
            return "old" if v <= base else v - base

        streams = []
        for i, s in self.vector_streams.items():
            if s.first <= base and s.end <= base:
                streams.append((i, "old"))
            else:
                streams.append((i, s.first - base, s.rate, s.end - base))
        reads = []
        for i, (start, rate) in self.vector_last_read.items():
            if start <= base - max(1.0, rate * max_vl):
                reads.append((i, "old", rate))
            else:
                reads.append((i, start - base, rate))
        return (
            tuple(rel(self.pipe_input_free[p]) for p in _PIPES),
            tuple(rel(self.pipe_reservation_free[p]) for p in _PIPES),
            rel(self.memory_port_free),
            rel(self.flag_ready),
            rel(self.last_complete),
            tuple(streams),
            tuple(reads),
            tuple(
                sorted(
                    ((r.rclass.value, r.index), t - base)
                    for r, t in self.scalar_ready.items()
                    if t > base
                )
            ),
        )

    def shift_clocks(self, delta: float) -> None:
        """Advance every absolute clock by ``delta`` cycles."""
        self.issue_clock += delta
        for p in _PIPES:
            self.pipe_input_free[p] += delta
            self.pipe_reservation_free[p] += delta
        self.memory_port_free += delta
        self.flag_ready += delta
        self.last_complete += delta
        for stream in self.vector_streams.values():
            stream.first += delta
            stream.end += delta
        for i, (start, rate) in self.vector_last_read.items():
            self.vector_last_read[i] = (start + delta, rate)
        for reg in self.scalar_ready:
            self.scalar_ready[reg] += delta


class TimingModel:
    """Applies per-instruction timing rules to a :class:`PipelineState`."""

    def __init__(self, config: MachineConfig, memory: MemorySystem):
        self.config = config
        self.memory = memory

    # ------------------------------------------------------------------
    # Vector instructions
    # ------------------------------------------------------------------

    def _scalar_operand_ready(
        self, state: PipelineState, d: DecodedInstruction
    ) -> float:
        ready = 0.0
        scalar_ready = state.scalar_ready
        for reg in d.scalar_reads:
            t = scalar_ready.get(reg, 0.0)
            if t > ready:
                ready = t
        return ready

    def time_vector_decoded(
        self, state: PipelineState, d: DecodedInstruction, timing,
        pc: int, vl: int, record: bool = True,
    ) -> InstructionTiming | None:
        if vl <= 0:
            raise SimulationError(
                f"pc {pc}: vector instruction {d.instr} executed with "
                f"VL={vl}"
            )
        pipe = d.pipe
        assert pipe is not None

        # --- in-order dispatch; one-deep per-pipe reservation ----------
        dispatch = max(
            state.issue_clock,
            state.pipe_reservation_free[pipe],
            self._scalar_operand_ready(state, d),
        )
        issue_done = dispatch + timing.x
        state.issue_clock = issue_done

        # --- element streaming start -----------------------------------
        constraints = [issue_done, state.pipe_input_free[pipe]]
        rate = timing.z
        has_mem = d.mem_stride is not None
        if has_mem:
            constraints.append(state.memory_port_free)
            rate = max(rate, self.memory.stream_rate(d.mem_stride))
        source_streams: list[VectorStream] = []
        chaining = self.config.chaining_enabled
        for idx in d.vector_read_idxs:
            stream = state.vector_streams[idx]
            # Chained consumers start on the producer's first element;
            # without chaining they wait for the full stream to land.
            constraints.append(stream.first if chaining else stream.end)
            source_streams.append(stream)
        dest = d.dest_reg
        if d.dest_is_vector:
            # WAR: the writer's elements chase the reader's — element i
            # is overwritten at start + Y + i*rate and must land after
            # the reader consumed it at reader_start + i*reader_rate.
            # Chasing is only safe when the writer is no faster than the
            # reader; otherwise wait for the reader to start and add its
            # full sweep via the strict constraint.
            reader_start, reader_rate = state.vector_last_read[dest.index]
            if rate >= reader_rate:
                constraints.append(reader_start - timing.y + 1.0)
            else:
                constraints.append(reader_start + vl * reader_rate)
            # WAW: preserve element write ordering.
            constraints.append(
                state.vector_streams[dest.index].first - timing.y
            )
        start = max(constraints)
        if self.config.bubbles_enabled:
            start += timing.b

        # --- rate coupling with still-streaming producers ---------------
        for stream in source_streams:
            if stream.streaming_at(start):
                rate = max(rate, stream.rate)

        stream_span = timing.effective_vl(vl) * rate
        if has_mem:
            stall = self.memory.refresh_stall_for_stream(
                start, start + stream_span
            )
            if stall:
                # Spread the stall across the stream so chained
                # consumers (which adopt the producer's rate) inherit
                # the refresh delay too.
                stream_span += stall
                rate = stream_span / vl
        first_result = start + timing.y
        complete = first_result + stream_span

        # --- state updates ----------------------------------------------
        state.pipe_input_free[pipe] = start + stream_span
        state.pipe_reservation_free[pipe] = start
        if has_mem:
            state.memory_port_free = start + stream_span
        for idx in d.vector_read_idxs:
            previous_start, _ = state.vector_last_read[idx]
            if start >= previous_start:
                state.vector_last_read[idx] = (start, rate)
        if dest is not None:
            if d.dest_is_vector:
                state.vector_streams[dest.index] = VectorStream(
                    first=first_result, rate=rate, end=complete
                )
            else:  # reduction writes a scalar when all elements are in
                state.set_scalar_ready(dest, complete)
        state.last_complete = max(state.last_complete, complete)
        if not record:
            return None
        return InstructionTiming(
            pc, d.instr, dispatch, start, first_result, complete, vl, pipe
        )

    # ------------------------------------------------------------------
    # Scalar instructions
    # ------------------------------------------------------------------

    def time_scalar_decoded(
        self, state: PipelineState, d: DecodedInstruction, pc: int,
        branch_taken: bool = False,
        word_address: int | None = None,
        record: bool = True,
    ) -> InstructionTiming | None:
        operand_ready = self._scalar_operand_ready(state, d)
        # Reading a vector register scalar-wise (not modelled) is an error.
        if d.is_branch:
            operand_ready = max(operand_ready, state.flag_ready)
        dispatch = max(state.issue_clock, operand_ready)
        issue = self.config.scalar_issue_cycles

        if d.touches_memory:
            # The single CPU<->memory port: wait for any vector stream
            # to drain, then take a one-cycle access slot (this is what
            # terminates chimes at scalar memory references, §3.3).
            start = max(dispatch, state.memory_port_free)
            start = self.memory.stall_scalar_access(start)
            state.memory_port_free = start + 1.0
            if d.mnemonic == "ld":
                complete = start + self._scalar_load_latency(
                    state, word_address
                )
            else:
                if state.scalar_cache is not None and \
                        word_address is not None:
                    state.scalar_cache.store(word_address)
                complete = start + 1.0
            state.issue_clock = start + issue
        else:
            start = dispatch
            complete = dispatch + issue
            state.issue_clock = complete
            if branch_taken:
                state.issue_clock += self.config.branch_taken_penalty

        if d.is_compare:
            state.flag_ready = complete
        for reg in d.scalar_writes:
            state.set_scalar_ready(reg, complete)
        state.last_complete = max(state.last_complete, complete)
        if not record:
            return None
        return InstructionTiming(
            pc, d.instr, dispatch, start, complete, complete,
            vl=0, pipe=None,
        )

    def _scalar_load_latency(
        self, state: PipelineState, word_address: int | None
    ) -> float:
        """Flat latency, or hit/miss through the explicit cache model.

        Vector streams bypass the cache entirely (paper §2), so only
        this scalar path consults it.
        """
        cache = state.scalar_cache
        if cache is None or word_address is None:
            return float(self.config.scalar_load_latency)
        if cache.load(word_address):
            return float(self.config.scalar_cache_hit_latency)
        return float(self.config.scalar_cache_miss_latency)
