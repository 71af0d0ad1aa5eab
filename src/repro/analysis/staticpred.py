"""Static performance prediction: the simulator's answer without the
simulator.

:func:`predict_program` abstractly interprets a compiled program and
returns the same cycle count and counter schema a
:class:`~repro.machine.simulator.Simulator` run would produce — plus a
confidence interval — without executing a single vector element.

The engine rests on one structural fact about the C-240 timing model:
``TimingModel`` consumes only *control* state (the instruction stream,
branch directions, and VL at each vector instruction), never vector
*data*.  A walker that resolves control flow exactly can therefore
drive the real timing model and reproduce the simulator's cycles bit
for bit.  It does so on the simulator's own run loop
(:func:`~repro.machine.simulator.run_loop`): the walker replaces
``execute_decoded`` with an abstract step over the same decoded
records, and the loop times and counts every instruction exactly as a
simulator run does.  Control flow in the compiled kernels is
scalar-register arithmetic over known inputs, so the walker tracks an
abstraction of the scalar machine:

* **a/s/VS registers** — concrete Python ``int``/``float`` values, or
  TOP (data-dependent: loaded from unknown memory, read out of a
  vector, or a ``sum`` reduction).  Scalar float arithmetic performs
  ``execute_decoded``'s operations in the same order on the same
  Python types, so concrete values are bit-identical to the
  interpreter's.
* **VL** — always concrete (the strip-mine protocol writes it from
  trip counters); a write from TOP aborts the exact tier.
* **flag** — concrete ``bool`` or TOP; a conditional branch on TOP
  aborts the exact tier.
* **memory** — a partial map ``word -> float`` seeded from the known
  initial image (scalar inputs + compiler literal pool); stores with
  unknown addresses clear it, loads of unmapped words produce TOP.  A
  load or store whose known address the simulator would fault on
  aborts the exact tier (``memory-fault``).

Loop bodies are summarized by the simulator fast path's
:class:`~repro.machine.fastpath.LoopMonitor`: the walker is a monitor
like :class:`~repro.machine.fastpath.FastPathEngine`, with its own head
state (NaN for TOP) and value side.  Detection, classification, the
trip count and the analytic-shift or replay timing advance are thus
the simulator's own code, differentially tested against pure
interpretation.

When a proof obligation fails (a data-dependent branch, an instruction
with no execution semantics, the scalar-cache model), prediction falls
back to the **model tier**:
:func:`~repro.analysis.counts.estimate_counts` for the vector counters
and :func:`~repro.analysis.critpath.critical_path` for a MACS-style
cycle bound, published with a deliberately wide confidence interval
(see :data:`MODEL_TIER_WIDEN`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from ..errors import AnalysisError
from ..isa.program import Program
from ..machine.config import MachineConfig
from ..machine.fastpath import FastPathStats, LoopMonitor, mem_words
from ..machine.memory import MemorySystem
from ..machine.pipeline import PipelineState, TimingModel
from ..machine.semantics import (
    OP_ADD,
    OP_DIV,
    OP_MUL,
    CMP_LE,
    CMP_LT,
    K_A,
    K_IMM,
    K_S,
    K_VL,
    T_ALU,
    T_BR,
    T_BRS,
    T_CMP,
    T_LD_S,
    T_LD_V,
    T_MOV,
    T_MOV_VV,
    T_NEG_S,
    T_NEG_V,
    T_ST_S,
    T_ST_V,
    T_SUM,
    DecodedInstruction,
    decode_program,
)
from ..machine.simulator import DEFAULT_MAX_INSTRUCTIONS, run_loop
from ..resilience import faults as _faults
from ..schedule.chimes import ChimeRules, refresh_factor_for

#: Documented confidence-interval widening factor for the model tier:
#: the chime critical path is an optimistic MACS-style bound, so the
#: interval [bound, MODEL_TIER_WIDEN * bound] brackets delivered
#: performance for every workload shape the calibration ledger has
#: seen (docs/static-tier.md).
MODEL_TIER_WIDEN = 4.0

__all__ = [
    "MODEL_TIER_WIDEN",
    "StaticPrediction",
    "predict_program",
]


class _Bail(Exception):
    """Internal: the exact tier cannot continue (reason attached)."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class StaticPrediction:
    """One static prediction in the simulator's result schema.

    ``tier`` is ``"exact"`` (cycle-exact walk: every counter and the
    cycle count equal a simulator run bit for bit) or ``"model"``
    (MACS-style bound with estimated scalar counters).  The
    ``cycles_low``/``cycles_high`` interval is degenerate for the
    exact tier and ``[bound, MODEL_TIER_WIDEN * bound]`` for the
    model tier.
    """

    program_name: str
    tier: str
    cycles: float
    cycles_low: float
    cycles_high: float
    instructions_executed: int
    vector_instructions: int
    scalar_instructions: int
    vector_memory_ops: int
    scalar_memory_ops: int
    flops: int
    #: exact-tier bookkeeping (how much work the loop summaries saved)
    loops_summarized: int = 0
    iterations_skipped: int = 0
    #: why the exact tier declined (model tier only)
    decline_reason: str | None = None

    @property
    def exact(self) -> bool:
        return self.tier == "exact"

    @property
    def relative_width(self) -> float:
        """Half-width of the confidence interval relative to cycles."""
        if self.cycles <= 0:
            return 0.0
        return (self.cycles_high - self.cycles_low) / (2.0 * self.cycles)

    def counters(self) -> dict[str, int]:
        """The simulator counter tuple (sentinel comparison schema)."""
        return {
            "instructions_executed": self.instructions_executed,
            "vector_instructions": self.vector_instructions,
            "scalar_instructions": self.scalar_instructions,
            "vector_memory_ops": self.vector_memory_ops,
            "scalar_memory_ops": self.scalar_memory_ops,
            "flops": self.flops,
        }

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "program": self.program_name,
            "tier": self.tier,
            "exact": self.exact,
            "cycles": self.cycles,
            "cycles_low": self.cycles_low,
            "cycles_high": self.cycles_high,
        }
        payload.update(self.counters())
        if self.decline_reason is not None:
            payload["decline_reason"] = self.decline_reason
        return payload


# ----------------------------------------------------------------------
# The exact tier: a timing shadow execution
# ----------------------------------------------------------------------


class _Walker(LoopMonitor):
    """Abstract scalar machine state for the simulator's run loop.

    :func:`predict_program` passes the walker to
    :func:`~repro.machine.simulator.run_loop` as both the register
    state stepped by :func:`_abstract_step` and the loop monitor.  TOP
    is represented as ``None`` in the register lists and as an absent
    key in the memory map.  Loops are summarized by the fast path's
    :class:`LoopMonitor`; the walker supplies its head state (NaN for
    TOP) and a value side that advances affine registers, sets the rest
    to TOP, and forgets the known words the skipped stores may
    overwrite.
    """

    def __init__(
        self,
        program: Program,
        config: MachineConfig,
        known_memory: dict[int, float] | None,
        max_instructions: int,
    ):
        if config.scalar_cache_enabled:
            # Scalar-cache hit/miss timing depends on every scalar
            # load address; unknown addresses would poison the clock.
            raise _Bail("scalar-cache-enabled")
        self.size_words = program.layout.total_words
        model = TimingModel(config, MemorySystem(self.size_words, config))
        super().__init__(
            decode_program(program), model, PipelineState(config),
            FastPathStats(), max_instructions,
        )
        # -- abstract architectural state, as a reset RegisterFile ----
        from ..isa.registers import (
            NUM_ADDRESS_REGISTERS,
            NUM_SCALAR_REGISTERS,
        )

        self.max_vl = config.max_vl
        self.a: list[int | None] = [0] * NUM_ADDRESS_REGISTERS
        self.s: list[float | None] = [0.0] * NUM_SCALAR_REGISTERS
        self.vl: int = config.max_vl
        self.vs: int | None = 1
        self.flag: bool | None = False
        self.mem: dict[int, float] = dict(known_memory or {})

    # -- abstract scalar semantics (execute_decoded over TOP) ----------

    def _fetch(self, spec: Any) -> int | float | None:
        """Raw scalar operand, as ``fetch_scalar`` reads it."""
        kind, payload = spec
        if kind == K_IMM:
            return payload  # int or float exactly as decoded
        if kind == K_A:
            return self.a[payload]
        if kind == K_S:
            return self.s[payload]
        if kind == K_VL:
            return self.vl
        return self.vs

    def _fetch_float(self, spec: Any) -> float | None:
        """Floated ALU operand."""
        value = self._fetch(spec)
        return None if value is None else float(value)

    def _write(self, spec: Any, value: int | float | None) -> None:
        """Scalar register write, converted as ``write_scalar`` does."""
        kind, payload = spec
        if kind == K_A:
            self.a[payload] = None if value is None else int(value)
        elif kind == K_S:
            self.s[payload] = None if value is None else float(value)
        elif kind == K_VL:
            if value is None:
                raise _Bail("vl-from-unknown-value")
            self.vl = max(0, min(int(value), self.max_vl))
        else:
            self.vs = None if value is None else int(value)

    def _address(self, d: DecodedInstruction) -> int | None:
        base = self.a[d.base_idx]
        return None if base is None else base + d.offset

    def _check_access(self, address: int, stride: int, count: int) -> None:
        """Bail where the simulator's memory faults on a known address:
        unaligned, first word out of range, or (``count > 0``) last
        word out of range — ``MemorySystem``'s bounds rules."""
        first, misaligned = divmod(address, 8)
        last = first + stride * (count - 1)
        size = self.size_words
        if misaligned or not 0 <= first < size or (
            count > 0 and not 0 <= last < size
        ):
            raise _Bail("memory-fault")

    # -- the loop monitor's head state and value side -------------------

    def head_state(self) -> tuple[int, dict[Any, Any]]:
        """VL and head values for the affine solver; NaN encodes TOP.

        NaN is never ``_is_intval`` and never compares equal, so every
        fast-path proof involving a TOP slot declines — exactly the
        conservative behavior the walker needs.
        """
        head: dict[Any, Any] = {
            ("vs",): math.nan if self.vs is None else self.vs
        }
        for i, av in enumerate(self.a):
            head[("a", i)] = math.nan if av is None else av
        for i, sv in enumerate(self.s):
            head[("s", i)] = math.nan if sv is None else sv
        return self.vl, head

    def check_values(self, plan: Any, S: set[Any]) -> None:
        """Nothing to prove: written slots that are not provably affine
        become TOP, which is sound because any later control-flow use
        of them bails to the model tier."""
        return None

    def advance_values(
        self,
        plan: Any,
        S: set[Any],
        steps: dict[Any, int],
        proof: None,
        k: int,
    ) -> list[Any]:
        """Advance the abstract state by ``k`` iterations.

        Every memory position must resolve in bounds for the whole
        skip, by the fast path's own check (:func:`mem_words`), so a
        skip never hides an access the simulator would fault on.
        """
        stores: list[tuple[int, int, int, int]] = []
        for pos, (kind, _, stride, vl) in sorted(plan.mem_pos.items()):
            w0, wstep = mem_words(plan, pos, S, steps, k, self.size_words)[:2]
            if kind in ("sts", "stv"):
                stores.append((w0, wstep, stride, vl))
        self._forget(stores, k)
        self._advance_slots(plan, S, steps, k)
        if plan.has_compare:
            # the final compare's flag is recomputed before any branch
            # in the next interpreted iteration; TOP is safe either way
            self.flag = None
        # templates are only dereferenced under the scalar-cache
        # model, which the walker refuses up front
        return []

    def _advance_slots(
        self, plan: Any, S: set[Any], steps: dict[Any, int], k: int
    ) -> None:
        """Advance written slots by ``k`` iterations (affine or TOP)."""
        head = plan.head_values
        for slot in plan.scalar_write_pos:
            if slot in S:
                step = steps[slot]
                if step == 0:
                    continue  # recomputed constant / identity carry
                # closure guarantees an integral head below 2**53, so
                # h + k*step is exact in both int and float arithmetic
                end = int(head[slot]) + k * step
                if slot[0] == "a":
                    self.a[slot[1]] = end
                elif slot[0] == "s":
                    self.s[slot[1]] = float(end)
                else:
                    self.vs = end
            else:
                if slot[0] == "a":
                    self.a[slot[1]] = None
                elif slot[0] == "s":
                    self.s[slot[1]] = None
                else:
                    self.vs = None

    def _forget(
        self, stores: list[tuple[int, int, int, int]], k: int
    ) -> None:
        """Drop the known words skipped stores overwrite: each
        ``w0 + j * wstep + e * stride`` with ``j < k`` and ``e < vl``."""
        for w0, wstep, stride, vl in stores:
            for word in list(self.mem):
                for e in range(vl):
                    r = word - w0 - e * stride
                    if wstep == 0:
                        hit = r == 0
                    else:
                        hit = r % wstep == 0 and 0 <= r // wstep < k
                    if hit:
                        del self.mem[word]
                        break


def _abstract_step(
    d: DecodedInstruction, w: _Walker, memory: None, layout: Any
) -> bool:
    """Abstractly execute one instruction on walker ``w``; returns
    branch-taken.  The run loop's step, in place of ``execute_decoded``:
    vector data is never computed and ``w.mem`` stands for memory."""
    tag = d.tag
    if tag == T_ALU:
        if d.dest_vec_idx is not None:
            return False  # vector result: no scalar state touched
        if d.lhs_spec[0] == "v" or d.rhs_spec[0] == "v":
            w._write(d.dest_spec, None)  # flat[0] of vector data
            return False
        lhs = w._fetch_float(d.lhs_spec)
        rhs = w._fetch_float(d.rhs_spec)
        if lhs is None or rhs is None:
            w._write(d.dest_spec, None)
            return False
        op = d.alu_op
        if op == OP_ADD:
            result = lhs + rhs
        elif op == OP_MUL:
            result = lhs * rhs
        elif op == OP_DIV:
            if rhs == 0.0:
                raise _Bail("scalar-divide-by-zero")
            result = lhs / rhs
        else:
            result = lhs - rhs
        w._write(d.dest_spec, float(result))
        return False
    if tag == T_LD_V or tag == T_ST_V:
        address = w._address(d)
        if address is not None:
            w._check_access(address, d.mem_stride, w.vl)
        return False  # vector data; timing needs no address
    if tag == T_MOV_VV or tag == T_NEG_V:
        return False  # pure vector data
    if tag == T_LD_S:
        address = w._address(d)
        if address is None:
            w._write(d.dest_spec, None)
            return False
        w._check_access(address, 0, 1)
        w._write(d.dest_spec, w.mem.get(address // 8))
        return False
    if tag == T_ST_S:
        address = w._address(d)
        if address is None:
            # unknown destination: every known word is suspect
            w.mem.clear()
            return False
        w._check_access(address, 0, 1)
        value = w._fetch(d.src_spec)
        word = address // 8
        if value is None:
            w.mem.pop(word, None)
        else:
            w.mem[word] = float(value)
        return False
    if tag == T_MOV:
        w._write(d.dest_spec, w._fetch(d.src_spec))
        return False
    if tag == T_CMP:
        lhs = w._fetch(d.lhs_spec)
        rhs = w._fetch(d.rhs_spec)
        if lhs is None or rhs is None:
            w.flag = None
        elif d.cmp_op == CMP_LT:
            w.flag = lhs < rhs
        elif d.cmp_op == CMP_LE:
            w.flag = lhs <= rhs
        else:
            w.flag = lhs == rhs
        return False
    if tag == T_BRS:
        if w.flag is None:
            raise _Bail("branch-on-unknown-flag")
        return w.flag if d.branch_sense else not w.flag
    if tag == T_BR:
        return True
    if tag == T_SUM:
        w.s[d.dest_spec[1]] = None  # data-dependent reduction
        return False
    if tag == T_NEG_S:
        value = w._fetch(d.src_spec)
        w._write(d.dest_spec, None if value is None else -value)
        return False
    # T_INVALID: the simulator raises SimulationError here
    raise _Bail("invalid-instruction")


# ----------------------------------------------------------------------
# The model tier: counts oracle + chime critical path
# ----------------------------------------------------------------------


def _model_tier(
    program: Program,
    config: MachineConfig,
    trips: tuple[int, ...] | None,
    reason: str,
) -> StaticPrediction:
    from . import analyze_program
    from .counts import estimate_counts
    from .critpath import critical_path

    if trips is None:
        raise AnalysisError(
            f"{program.name}: static prediction declined "
            f"({reason}) and no trip profile was given for the "
            "model tier"
        )
    analysis = analyze_program(program)
    counts = estimate_counts(
        analysis.cfg, analysis.dataflow, trips, config.max_vl
    )
    path = critical_path(
        analysis.cfg,
        analysis.dataflow,
        trips,
        rules=ChimeRules.for_machine(config),
        timings=config.timings,
        max_vl=config.max_vl,
        refresh=config.refresh_enabled,
        refresh_factor=refresh_factor_for(config),
    )
    bound = path.estimated_cycles
    if bound is None or bound <= 0:
        raise AnalysisError(
            f"{program.name}: static prediction declined ({reason}) "
            "and the critical-path bound is unavailable"
        )
    # Scalar counters are estimated from the static shape: strip-loop
    # blocks execute once per strip, everything else once.
    strip = analysis.strip_loop
    loop_blocks = strip.loop.blocks if strip is not None else frozenset()
    decoded = decode_program(program)
    scalar_in_loop = 0
    scalar_outside = 0
    smem_in_loop = 0
    smem_outside = 0
    for block in analysis.cfg.blocks:
        in_loop = block.index in loop_blocks
        for pc in block.pcs():
            d = decoded[pc]
            if d.is_vector:
                continue
            if in_loop:
                scalar_in_loop += 1
                smem_in_loop += 1 if d.is_scalar_memory else 0
            else:
                scalar_outside += 1
                smem_outside += 1 if d.is_scalar_memory else 0
    scalar_instructions = (
        scalar_outside + counts.strips * scalar_in_loop
    )
    scalar_memory_ops = smem_outside + counts.strips * smem_in_loop
    return StaticPrediction(
        program_name=program.name,
        tier="model",
        cycles=float(bound),
        cycles_low=float(bound),
        cycles_high=float(bound) * MODEL_TIER_WIDEN,
        instructions_executed=(
            counts.vector_instructions + scalar_instructions
        ),
        vector_instructions=counts.vector_instructions,
        scalar_instructions=scalar_instructions,
        vector_memory_ops=counts.vector_memory_ops,
        scalar_memory_ops=scalar_memory_ops,
        flops=counts.flops,
        decline_reason=reason,
    )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def predict_program(
    program: Program,
    config: MachineConfig,
    known_memory: dict[int, float] | None = None,
    trips: tuple[int, ...] | None = None,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
) -> StaticPrediction:
    """Statically predict a program run under ``config``.

    ``known_memory`` maps word offsets to their known initial values
    (scalar inputs and the compiler's literal pool — everything the
    walker needs to resolve trip counts).  ``trips`` enables the
    model-tier fallback when the exact tier declines.

    Typed budget errors (:class:`~repro.errors.BudgetExceededError`)
    propagate exactly as a simulator run would raise them; only
    exact-tier *proof* failures fall back to the model tier.
    """
    try:
        walker = _Walker(program, config, known_memory, max_instructions)
        (executed, vector_count, scalar_count, vector_memory,
         scalar_memory, flops) = run_loop(
            program, _abstract_step, walker, None, program.layout,
            walker, walker.state, walker.model, max_instructions,
        )
    except _Bail as bail:
        return _model_tier(program, config, trips, bail.reason)
    state = walker.state
    spec = _faults.check("static.predict")
    if spec is not None and spec.kind == "skew":
        # Chaos hook: push the static clocks off the exact timeline so
        # the calibration loop has a real defect to catch.  Dead (one
        # ``is None`` test) without an armed plan.
        state.shift_clocks(spec.value)
    cycles = float(state.finish_time())
    return StaticPrediction(
        program_name=program.name,
        tier="exact",
        cycles=cycles,
        cycles_low=cycles,
        cycles_high=cycles,
        instructions_executed=executed,
        vector_instructions=vector_count,
        scalar_instructions=scalar_count,
        vector_memory_ops=vector_memory,
        scalar_memory_ops=scalar_memory,
        flops=flops,
        loops_summarized=walker.stats.engagements,
        iterations_skipped=walker.stats.iterations_skipped,
    )
