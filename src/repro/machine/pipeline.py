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

from dataclasses import dataclass

from ..errors import SimulationError
from ..isa.instructions import Instruction, Pipe
from .cache import ScalarCache
from .config import MachineConfig
from .memory import MemorySystem
from .semantics import SCALAR_SLOTS, DecodedInstruction

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
        #: per scalar register slot (``DecodedInstruction.read_slots``):
        #: when its latest value is available
        self.scalar_ready: list[float] = [0.0] * SCALAR_SLOTS
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
        clocks.extend(self.scalar_ready)
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
                (slot, t - base)
                for slot, t in enumerate(self.scalar_ready)
                if t > base
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
        self.scalar_ready[:] = [t + delta for t in self.scalar_ready]


class TimingModel:
    """Applies per-instruction timing rules to a :class:`PipelineState`.

    One model serves one run: the machine parameters every instruction
    consults are resolved here once (refresh by the memory system), so
    the per-instruction methods only read attributes and do arithmetic.
    """

    def __init__(self, config: MachineConfig, memory: MemorySystem):
        self.config = config
        self.memory = memory
        self._chaining = config.chaining_enabled
        self._bubbles = config.bubbles_enabled
        self._issue = config.scalar_issue_cycles
        self._branch_penalty = config.branch_taken_penalty
        self._load_latency = float(config.scalar_load_latency)
        self._hit_latency = float(config.scalar_cache_hit_latency)
        self._miss_latency = float(config.scalar_cache_miss_latency)

    # ------------------------------------------------------------------
    # Vector instructions
    # ------------------------------------------------------------------

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
        ready = state.scalar_ready
        operand_ready = 0.0
        for slot in d.read_slots:
            if ready[slot] > operand_ready:
                operand_ready = ready[slot]
        dispatch = max(
            state.issue_clock,
            state.pipe_reservation_free[pipe],
            operand_ready,
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
        chaining = self._chaining
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
        if self._bubbles:
            start += timing.b

        # --- rate coupling with still-streaming producers ---------------
        for stream in source_streams:
            if start < stream.end:  # still streaming
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
        if d.dest_is_vector:
            state.vector_streams[dest.index] = VectorStream(
                first=first_result, rate=rate, end=complete
            )
        # a reduction writes its scalar when all elements are in
        for slot in d.write_slots:
            ready[slot] = complete
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
        ready = state.scalar_ready
        operand_ready = 0.0
        for slot in d.read_slots:
            if ready[slot] > operand_ready:
                operand_ready = ready[slot]
        if d.is_branch and state.flag_ready > operand_ready:
            operand_ready = state.flag_ready
        # ``b if b > a else a`` is ``max(a, b)``, ties and all.
        issue_clock = state.issue_clock
        dispatch = (
            operand_ready if operand_ready > issue_clock else issue_clock
        )

        if d.touches_memory:
            # The single CPU<->memory port: wait for any vector stream
            # to drain, then take a one-cycle access slot (this is what
            # terminates chimes at scalar memory references, §3.3).
            port_free = state.memory_port_free
            start = self.memory.stall_scalar_access(
                port_free if port_free > dispatch else dispatch
            )
            state.memory_port_free = start + 1.0
            cache = state.scalar_cache
            if d.mnemonic == "ld":
                # Flat latency, or hit/miss through the explicit cache
                # model; vector streams bypass the cache (paper §2).
                if cache is None or word_address is None:
                    complete = start + self._load_latency
                elif cache.load(word_address):
                    complete = start + self._hit_latency
                else:
                    complete = start + self._miss_latency
            else:
                if cache is not None and word_address is not None:
                    cache.store(word_address)
                complete = start + 1.0
            state.issue_clock = start + self._issue
        else:
            start = dispatch
            complete = dispatch + self._issue
            state.issue_clock = complete
            if branch_taken:
                state.issue_clock += self._branch_penalty

        if d.is_compare:
            state.flag_ready = complete
        for slot in d.write_slots:
            ready[slot] = complete
        if complete > state.last_complete:
            state.last_complete = complete
        if not record:
            return None
        return InstructionTiming(
            pc, d.instr, dispatch, start, complete, complete,
            vl=0, pipe=None,
        )
