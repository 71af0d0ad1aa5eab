"""Steady-state loop fast path for the C-240 simulator.

The simulator's workloads are strip-mined vector loops whose inner
bodies re-execute an identical basic block hundreds of times.  This
module detects such loops at run time (via the back-edge branch hook),
proves that the remaining iterations are predictable, and then
fast-forwards them:

* **functional state** is advanced in bulk with vectorized NumPy over
  the trip count (a ``(k, VL)`` batch per vector register, a ``(k,)``
  batch per data-dependent scalar, a closed form per affine scalar);
* **timing state** is advanced either *analytically* — adding ``k * Δ``
  to every absolute pipeline clock once two consecutive iterations have
  byte-identical normalized fingerprints and every clock sits on a
  dyadic grid so the shift is provably exact in float arithmetic — or
  by *replay*, re-running the real :class:`TimingModel` per skipped
  iteration (exact by construction, and valid even under memory
  refresh and the scalar-cache model).

Cycle-exactness is the contract: every engagement reproduces the pure
interpreter's cycle count, instruction counts, register file, and
memory image bit for bit, because every arithmetic operation either
*is* the interpreter's operation (replay, NumPy elementwise batches,
sequential reduction loops) or is proven exact (integer affine closed
forms below 2**53, dyadic clock shifts).  Whenever a proof obligation
fails the engine declines and interpretation simply continues.

Detection and the timing advance live in :class:`LoopMonitor`, which
the static tier's walker (:mod:`repro.analysis.staticpred`) subclasses
too: it summarizes loops by the same policy over abstract registers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..resilience import faults as _faults
from .semantics import (
    DecodedInstruction,
    K_A, K_IMM, K_S, K_VL, K_VS,
    OP_ADD, OP_DIV, OP_MUL, OP_SUB,
    CMP_EQ, CMP_LE, CMP_LT,
    T_ALU, T_BR, T_BRS, T_CMP, T_LD_S, T_LD_V, T_MOV, T_MOV_VV,
    T_NEG_S, T_NEG_V, T_ST_S, T_ST_V, T_SUM,
)

#: Engagement thresholds.
MIN_SKIP = 2
MAX_BODY = 96
MAX_EDGE_FAILS = 2
#: Per-engagement iteration caps (bound batch memory; the engine simply
#: re-engages at the next boundary, so large loops skip in chunks).
MAX_K_VECTOR = 4096
MAX_K_SCALAR = 65536
#: Magnitude bounds for provably exact arithmetic.
_F_EXACT = 2 ** 53  # float64 holds every integer below this
_A_LIMIT = 2 ** 62  # int64 register headroom
#: Dyadic grid for the analytic shift: clocks must be multiples of
#: 2**-20 and bounded so that additions of shifted values stay exact.
_GRID = float(2 ** 20)
_CLOCK_LIMIT = float(2 ** 30)


class _Decline(Exception):
    """Internal: this loop cannot be fast-forwarded (reason attached)."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass
class FastPathStats:
    """Fast-path activity counters for one simulation run."""

    loops_detected: int = 0
    engagements: int = 0
    analytic_engagements: int = 0
    replay_engagements: int = 0
    iterations_skipped: int = 0
    instructions_skipped: int = 0
    declines: dict[str, int] = field(default_factory=dict)

    def decline(self, reason: str) -> None:
        self.declines[reason] = self.declines.get(reason, 0) + 1


@dataclass
class _Skip:
    """Counter deltas for a block of skipped iterations."""

    instructions: int
    vector_instructions: int
    scalar_instructions: int
    vector_memory: int
    scalar_memory: int
    flops: int


# ----------------------------------------------------------------------
# Linear forms: value = const + sum(coef * head_value[sym])
#
# Symbols are scalar register slots: ("a", i), ("s", i), ("vs",).
# Coefficients are integers; the constant may be int or float.  A form
# of None means "not an affine function of the head state" (TOP).
# ----------------------------------------------------------------------


def _f_const(c):
    return (c, {})


def _f_ident(sym):
    return (0, {sym: 1})


def _f_add(a, b):
    if a is None or b is None:
        return None
    coefs = dict(a[1])
    for sym, co in b[1].items():
        coefs[sym] = coefs.get(sym, 0) + co
        if coefs[sym] == 0:
            del coefs[sym]
    return (a[0] + b[0], coefs)


def _f_neg(a):
    if a is None:
        return None
    return (-a[0], {sym: -co for sym, co in a[1].items()})


def _f_sub(a, b):
    return _f_add(a, _f_neg(b))


def _is_intval(v) -> bool:
    if isinstance(v, int):
        return True
    return isinstance(v, float) and v.is_integer()


def _f_scale(a, m):
    """Multiply a form by an integer constant (else TOP)."""
    if a is None or not _is_intval(m):
        return None
    m = int(m)
    if m == 0:
        return (0, {})
    return (a[0] * m, {sym: co * m for sym, co in a[1].items()})


def _f_trunc_int(a):
    """Mirror of ``int(value)`` on write to an address-class register."""
    if a is None:
        return None
    c, coefs = a
    if not coefs:
        return (int(c), {})
    # With coefficients we only keep integral trajectories (enforced
    # again at closure time); int() is then the identity.
    return a if _is_intval(c) else None


def _stable_prefix(g0: int, g1: int, kind: str):
    """Largest n with the sign condition holding for g0+g1*j, 0<=j<n.

    Returns None for "unbounded".  ``kind`` is one of gt0/ge0/eq0/ne0;
    lt0/le0 callers negate the form and use gt0/ge0.
    """
    if kind == "gt0":
        if g0 <= 0:
            return 0
        return None if g1 >= 0 else (g0 - 1) // (-g1) + 1
    if kind == "ge0":
        if g0 < 0:
            return 0
        return None if g1 >= 0 else g0 // (-g1) + 1
    if kind == "eq0":
        if g0 != 0:
            return 0
        return None if g1 == 0 else 1
    # ne0: zero crossing at j = -g0/g1, if integral and ahead of us
    if g0 == 0:
        return 0
    if g1 == 0:
        return None
    if (-g0) % g1 == 0:
        root = (-g0) // g1
        return root if root >= 1 else None
    return None


_CMP_KIND = {
    # (cmp_op, outcome) -> sign condition on g = rhs - lhs
    (CMP_LT, True): "gt0",
    (CMP_LT, False): "le0",
    (CMP_LE, True): "ge0",
    (CMP_LE, False): "lt0",
    (CMP_EQ, True): "eq0",
    (CMP_EQ, False): "ne0",
}


# ----------------------------------------------------------------------
# The classified loop body (output of the symbolic walk)
# ----------------------------------------------------------------------


@dataclass
class _LoopPlan:
    seq: list  # pcs of the body, head..back-edge inclusive
    branch_taken: dict  # position -> outcome (conditional branches)
    vl_at: list  # VL in effect at each position
    end_forms: dict  # slot -> form or None
    sym_uses: dict  # slot -> positions where its head value was read
    cmp_constraints: list  # (cmp_op, lhs_form, rhs_form, outcome)
    vl_constraints: list  # (form, clamped_value)
    vec_written: set  # v-register indices written in the body
    vec_head_reads: dict  # idx -> positions reading the head value
    vec_write_pos: dict  # idx -> positions writing it
    mem_pos: dict  # position -> (kind, addr_form, stride, vl)
    has_memory: bool
    has_compare: bool
    final_vl: int
    # iteration counter deltas
    n_vector: int = 0
    n_scalar: int = 0
    n_vmem: int = 0
    n_smem: int = 0
    n_flops: int = 0


_SLOT_OF_KIND = {K_A: "a", K_S: "s", K_VS: "vs"}


def _spec_slot(spec):
    """Scalar register slot addressed by a ``(kind, payload)`` spec."""
    kind = spec[0]
    if kind == K_A:
        return ("a", spec[1])
    if kind == K_S:
        return ("s", spec[1])
    if kind == K_VS:
        return ("vs",)
    return None  # immediate or VL (VL is tracked as a constant)


def _classify(
    decoded, seq, outcomes, vl0: int, max_vl: int, head: dict
) -> _LoopPlan:
    """Symbolically execute one body iteration over head-state symbols.

    Raises :class:`_Decline` when any instruction falls outside the
    provable subset.
    """
    sf = {}  # slot -> form (lazily initialised to the identity)
    uses = {}

    def form_of(slot):
        f = sf.get(slot)
        if f is None and slot not in sf:
            f = _f_ident(slot)
            sf[slot] = f
        return f

    def use(form, pos):
        if form is not None:
            for sym in form[1]:
                uses.setdefault(sym, []).append(pos)

    def operand_form(spec, pos):
        kind = spec[0]
        if kind == K_IMM:
            return _f_const(spec[1])
        if kind == K_VL:
            return _f_const(vl)
        f = form_of(_spec_slot(spec))
        use(f, pos)
        return f

    vl = vl0
    flag_forms = None  # (cmp_op, lhs_form, rhs_form)
    scalar_write_pos = {}  # slot -> positions writing it
    plan = _LoopPlan(
        seq=seq, branch_taken=outcomes, vl_at=[], end_forms=sf,
        sym_uses=uses, cmp_constraints=[], vl_constraints=[],
        vec_written=set(), vec_head_reads={}, vec_write_pos={},
        mem_pos={}, has_memory=False, has_compare=False, final_vl=vl0,
    )
    plan.head_values = head

    def read_vector(idx, pos):
        if idx not in plan.vec_written:
            plan.vec_head_reads.setdefault(idx, []).append(pos)

    def write_form(spec, form, pos):
        nonlocal vl
        slot = _spec_slot(spec)
        if slot is None:  # VL destination
            vl = _record_vl_write(plan, form, max_vl)
            return
        if slot[0] in ("a", "vs"):
            form = _f_trunc_int(form)
        sf[slot] = form
        scalar_write_pos.setdefault(slot, []).append(pos)

    for pos, pc in enumerate(seq):
        d = decoded[pc]
        plan.vl_at.append(vl)
        tag = d.tag
        if d.is_vector:
            plan.n_vector += 1
            if vl <= 0:
                raise _Decline("vl-nonpositive")
            plan.n_flops += d.flop_count * vl
            if d.is_vector_memory:
                plan.n_vmem += 1
        else:
            plan.n_scalar += 1
            if d.is_scalar_memory:
                plan.n_smem += 1

        if tag == T_ALU:
            specs = (d.lhs_spec, d.rhs_spec)
            vec_ops = [s for s in specs if s[0] == "v"]
            for s in vec_ops:
                read_vector(s[1], pos)
            scalar_forms = [
                operand_form(s, pos) for s in specs if s[0] != "v"
            ]
            if d.dest_vec_idx is not None:
                plan.vec_written.add(d.dest_vec_idx)
                plan.vec_write_pos.setdefault(
                    d.dest_vec_idx, []
                ).append(pos)
            else:
                if vec_ops:
                    result = None  # flat[0] of a vector result
                else:
                    lf, rf = scalar_forms
                    op = d.alu_op
                    if op == OP_ADD:
                        result = _f_add(lf, rf)
                    elif op == OP_SUB:
                        result = _f_sub(lf, rf)
                    elif op == OP_MUL:
                        if lf is not None and rf is not None:
                            if not lf[1] and not rf[1]:
                                result = _f_const(lf[0] * rf[0])
                            elif not lf[1]:
                                result = _f_scale(rf, lf[0])
                            elif not rf[1]:
                                result = _f_scale(lf, rf[0])
                            else:
                                result = None
                        else:
                            result = None
                    else:  # OP_DIV
                        if (
                            lf is not None and rf is not None
                            and not lf[1] and not rf[1] and rf[0] != 0
                        ):
                            result = _f_const(lf[0] / rf[0])
                        else:
                            result = None
                write_form(d.dest_spec, result, pos)
        elif tag == T_MOV:
            write_form(d.dest_spec, operand_form(d.src_spec, pos), pos)
        elif tag == T_NEG_S:
            write_form(
                d.dest_spec, _f_neg(operand_form(d.src_spec, pos)), pos
            )
        elif tag == T_CMP:
            lf = operand_form(d.lhs_spec, pos)
            rf = operand_form(d.rhs_spec, pos)
            flag_forms = (d.cmp_op, lf, rf)
            plan.has_compare = True
        elif tag == T_BRS:
            if pos in outcomes or pos == len(seq) - 1:
                taken = outcomes.get(pos, True)
                required = taken if d.branch_sense else not taken
                if flag_forms is None:
                    raise _Decline("branch-before-compare")
                plan.cmp_constraints.append(
                    (flag_forms[0], flag_forms[1], flag_forms[2],
                     required)
                )
        elif tag == T_BR:
            pass
        elif tag == T_SUM:
            read_vector(d.src_vec_idx, pos)
            sf[("s", d.dest_spec[1])] = None
            scalar_write_pos.setdefault(
                ("s", d.dest_spec[1]), []
            ).append(pos)
        elif tag in (T_MOV_VV, T_NEG_V):
            read_vector(d.src_vec_idx, pos)
            plan.vec_written.add(d.dest_vec_idx)
            plan.vec_write_pos.setdefault(d.dest_vec_idx, []).append(pos)
        elif tag in (T_LD_V, T_LD_S, T_ST_V, T_ST_S):
            plan.has_memory = True
            base = form_of(("a", d.base_idx))
            use(base, pos)
            addr = _f_add(base, _f_const(d.offset))
            if addr is None:
                raise _Decline("mem-addr-not-affine")
            if tag == T_LD_V:
                plan.vec_written.add(d.dest_vec_idx)
                plan.vec_write_pos.setdefault(
                    d.dest_vec_idx, []
                ).append(pos)
                plan.mem_pos[pos] = ("ldv", addr, d.mem_stride, vl)
            elif tag == T_ST_V:
                read_vector(d.src_vec_idx, pos)
                plan.mem_pos[pos] = ("stv", addr, d.mem_stride, vl)
            elif tag == T_LD_S:
                plan.mem_pos[pos] = ("lds", addr, 0, 1)
                slot = _spec_slot(d.dest_spec)
                if slot is None:
                    raise _Decline("vl-from-memory")
                sf[slot] = None  # data-dependent; batched in phase B
                scalar_write_pos.setdefault(slot, []).append(pos)
            else:  # T_ST_S
                use(operand_form(d.src_spec, pos), pos)
                plan.mem_pos[pos] = ("sts", addr, 0, 1)
        else:
            raise _Decline("unsupported-instruction")

    plan.final_vl = vl
    plan.scalar_write_pos = scalar_write_pos
    if vl != vl0:
        # iteration j=1 would start with a different VL than modelled
        raise _Decline("vl-not-periodic")
    return plan


def _record_vl_write(plan: _LoopPlan, form, max_vl: int) -> int:
    """Register a VL write; returns the (constant) post-write VL.

    The written value must be affine; the j-independence of the clamp
    is enforced later by a trip-count constraint.  The j=0 value is
    evaluated immediately (phase A runs at engagement time, with the
    head state at hand via the closure over ``_HEAD``).
    """
    if form is None:
        raise _Decline("vl-write-not-affine")
    value = _eval_form(form, plan.head_values)
    if value is None:
        raise _Decline("vl-write-not-evaluable")
    clamped = max(0, min(int(value), max_vl))
    plan.vl_constraints.append((form, clamped))
    return clamped


def _eval_form(
    form: tuple[float, dict[tuple, int]],
    head: dict[tuple, float],
) -> int | float | None:
    """Evaluate a form at j=0 in exact integer arithmetic.

    Returns None unless the constant and every referenced head value
    are integral (the only case the solver trusts).
    """
    c, coefs = form
    if not coefs:
        return c if isinstance(c, (int, float)) else None
    if not _is_intval(c):
        return None
    total = int(c)
    for sym, co in coefs.items():
        h = head[sym]
        if not _is_intval(h):
            return None
        total += co * int(h)
    return total


# ----------------------------------------------------------------------
# Affine closure: which slots advance linearly, and by how much?
# ----------------------------------------------------------------------


def _closure(plan: _LoopPlan):
    """Return (S, steps): the provably affine slots and their strides.

    A slot is in S when its end-of-body form is affine over S-slots,
    its evaluation is exact (integer arithmetic, or a bit-identical
    constant), and the advance is genuinely linear (A @ s == s).
    """
    head = plan.head_values
    forms = {}
    for slot, f in plan.end_forms.items():
        if f is None:
            continue
        c, coefs = f
        if coefs == {slot: 1} and c == 0:
            forms[slot] = f  # identity: exact for any value
            continue
        if coefs and (
            not _is_intval(c)
            or any(not _is_intval(head[s]) for s in coefs)
        ):
            continue  # non-integer affine arithmetic is not exact
        forms[slot] = f

    S = set(forms)
    steps = {}
    while True:
        # keep only slots whose form references S-slots
        changed = True
        while changed:
            changed = False
            for slot in list(S):
                if any(s not in S for s in forms[slot][1]):
                    S.discard(slot)
                    changed = True
        steps.clear()
        dropped = []
        for slot in S:
            c, coefs = forms[slot]
            if coefs == {slot: 1} and c == 0:
                steps[slot] = 0
            elif not coefs:
                h = head[slot]
                # constant recomputation: exact only if it reproduces
                # the current value (NaN never equals, which is right)
                if c == h:
                    steps[slot] = 0
                else:
                    dropped.append(slot)
            else:
                h = head[slot]
                if not _is_intval(h):
                    dropped.append(slot)
                    continue
                end = int(c) + sum(
                    co * int(head[s]) for s, co in coefs.items()
                )
                steps[slot] = end - int(h)
        if not dropped:
            break
        for slot in dropped:
            S.discard(slot)
            del forms[slot]

    # Verify the advance is linear: stepping the head by s must step
    # every end value by exactly its own s (A @ s == s).
    for slot in S:
        c, coefs = forms[slot]
        if coefs == {slot: 1} and c == 0:
            continue
        if sum(co * steps[s] for s, co in coefs.items()) != steps[slot]:
            raise _Decline("nonlinear-recurrence")
    return S, steps


def _slope(form, steps) -> int:
    return sum(co * steps[s] for s, co in form[1].items())


def _require_stable(form, S, reason: str) -> None:
    if any(sym not in S for sym in form[1]):
        raise _Decline(reason)


def _detect_live_patterns(plan: _LoopPlan, decoded, S):
    """Classify head-live slots outside S.

    Scalars must match the sequential-accumulator pattern (read once,
    by the single ALU instruction that also writes them); written
    vector registers whose head value is read must match the carried
    pattern (single elementwise ALU that both reads and writes them).
    Returns (seqacc, carried): slot/idx -> body position.
    """
    seq = plan.seq
    seqacc = {}
    for slot, positions in plan.sym_uses.items():
        if slot in S or not positions:
            continue
        if len(positions) == 1:
            p = positions[0]
            d = decoded[seq[p]]
            if (
                d.tag == T_ALU
                and d.dest_vec_idx is None
                and d.lhs_spec[0] != "v"
                and d.rhs_spec[0] != "v"
                and _spec_slot(d.dest_spec) == slot
                and (_spec_slot(d.lhs_spec) == slot)
                != (_spec_slot(d.rhs_spec) == slot)
                and plan.scalar_write_pos.get(slot) == [p]
            ):
                seqacc[slot] = p
                continue
        raise _Decline("live-nonaffine-scalar")

    carried = {}
    for idx, reads in plan.vec_head_reads.items():
        if idx not in plan.vec_written:
            continue  # purely invariant source
        if len(reads) == 1:
            p = reads[0]
            d = decoded[seq[p]]
            if (
                d.tag == T_ALU
                and d.dest_vec_idx == idx
                and plan.vec_write_pos.get(idx) == [p]
            ):
                carried[idx] = p
                continue
        raise _Decline("live-vector")
    return seqacc, carried


# ----------------------------------------------------------------------
# Trip count
# ----------------------------------------------------------------------


def _prefix_signed(g0: int, g1: int, kind: str):
    if kind == "lt0":
        return _stable_prefix(-g0, -g1, "gt0")
    if kind == "le0":
        return _stable_prefix(-g0, -g1, "ge0")
    return _stable_prefix(g0, g1, kind)


def _trip_count(plan: _LoopPlan, S, steps, budget_iters: int,
                max_vl: int) -> int:
    head = plan.head_values
    cap = MAX_K_VECTOR if plan.n_vector else MAX_K_SCALAR
    k = min(budget_iters, cap)

    for op, lf, rf, outcome in plan.cmp_constraints:
        if lf is None or rf is None:
            raise _Decline("compare-data-dependent")
        _require_stable(lf, S, "compare-unstable")
        _require_stable(rf, S, "compare-unstable")
        g1 = _slope(rf, steps) - _slope(lf, steps)
        kind = _CMP_KIND[(op, outcome)]
        if g1 == 0:
            # constant relation: check it holds (exact evaluation of
            # both sides; mixing int and float compares exactly in
            # Python, mirroring the interpreter)
            lv = _eval_exact(lf, head, steps)
            rv = _eval_exact(rf, head, steps)
            if lv is None or rv is None:
                raise _Decline("compare-inexact")
            if op == CMP_LT:
                out0 = lv < rv
            elif op == CMP_LE:
                out0 = lv <= rv
            else:
                out0 = lv == rv
            if out0 != outcome:
                return 0
            continue
        l0 = _eval_form(lf, head)
        r0 = _eval_form(rf, head)
        if l0 is None or r0 is None or not _is_intval(l0) \
                or not _is_intval(r0):
            raise _Decline("compare-inexact")
        bound = _prefix_signed(int(r0) - int(l0), g1, kind)
        if bound is not None:
            k = min(k, bound)

    for form, clamped in plan.vl_constraints:
        _require_stable(form, S, "vl-unstable")
        g1 = _slope(form, steps)
        if g1 == 0:
            continue
        v0 = _eval_form(form, head)
        if v0 is None or not _is_intval(v0):
            raise _Decline("vl-inexact")
        v0 = int(v0)
        if clamped == max_vl:
            bound = _prefix_signed(v0 - max_vl, g1, "ge0")
        elif clamped == 0:
            bound = _prefix_signed(v0, g1, "le0")
        else:
            bound = 1
        if bound is not None:
            k = min(k, bound)

    # Magnitude guard.  The interpreter's scalar ALU works in float64
    # (``_fetch_float``), so the affine trajectories are only exactly
    # integer arithmetic while every value stays below 2**53 — for
    # a-registers too, not just s-registers.
    for slot, st in steps.items():
        h = head[slot]
        if not _is_intval(h):
            continue  # identity-carried float, never recomputed
        h = int(h)
        if abs(h) >= _F_EXACT:
            raise _Decline("magnitude")
        if st:
            k = min(k, (_F_EXACT - 1 - abs(h)) // abs(st))
    return k


def _eval_exact(form, head, steps):
    """Exact j=0 value: integer affine, or a pure constant of any type."""
    if not form[1]:
        return form[0]
    return _eval_form(form, head)


# ----------------------------------------------------------------------
# Phase B1: memory address templates and disjointness proofs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _WordSet:
    """Word indices ``lo + u * (i * r + e)`` for ``i < n``, ``e < m``.

    The closed form of one memory position's words over a whole skip,
    ``{w0 + j * wstep + e * stride : j < k, e < vl}``.  With ``n == 1``
    it is one arithmetic progression (and ``r == m``): an invariant
    address, a scalar stream, or strips that tile (``|wstep|`` equal to
    ``|stride| * vl``).  With ``n > 1`` it is ``n`` runs of ``m``
    lattice words whose starts are ``r > m`` lattice steps apart: the
    gapped strips of a VL below the strip step.  ``u == 0`` marks any
    other shape, of which only the span ``[lo, hi]`` is known.
    """

    lo: int
    hi: int
    u: int = 0
    r: int = 0
    n: int = 0
    m: int = 0

    @classmethod
    def of(cls, w0: int, wstep: int, k: int, stride: int,
           vl: int) -> "_WordSet":
        lo = w0 + min(0, wstep * (k - 1)) + min(0, stride * (vl - 1))
        hi = w0 + max(0, wstep * (k - 1)) + max(0, stride * (vl - 1))
        axes = sorted((abs(step), count)
                      for step, count in ((wstep, k), (stride, vl))
                      if step and count > 1)
        if not axes:
            return cls(lo, hi, 1, 1, 1, 1)
        small, runs = axes[0]
        if len(axes) == 1:
            return cls(lo, hi, small, runs, 1, runs)
        big, count = axes[1]
        if big % small:
            return cls(lo, hi)
        r = big // small
        if r <= runs:  # the runs touch or overlap: one progression
            m = (count - 1) * r + runs
            return cls(lo, hi, small, m, 1, m)
        return cls(lo, hi, small, r, count, runs)

    @property
    def size(self) -> int:
        return self.n * self.m

    def lines(self) -> list[tuple[int, int, int]]:
        """The set as progressions ``(start, step, count)``."""
        if self.n == 1:
            return [(self.lo, self.u, self.m)]
        step = self.u * self.r
        return [(self.lo + self.u * e, step, self.n) for e in range(self.m)]


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """``sum((a * i + b) // m for i in range(n))`` in O(log m) steps."""
    total = 0
    while True:
        q, a = divmod(a, m)
        total += n * (n - 1) // 2 * q
        q, b = divmod(b, m)
        total += n * q
        top = a * n + b
        if top < m:
            return total
        n, b = divmod(top, m)
        m, a = a, m


def _line_meets(x0: int, v: int, c: int, s: _WordSet) -> bool:
    """Whether some ``x0 + v * t`` with ``t < c`` (``v > 0``) is in ``s``."""
    # on s's lattice: v * t = s.lo - x0 (mod s.u), so t = t0 + period * j
    g = math.gcd(v, s.u)
    if (s.lo - x0) % g:
        return False
    period = s.u // g
    t0 = (s.lo - x0) // g * pow(v // g, -1, period) % period
    # lattice coordinate y = (x - s.lo) / s.u = y0 + d * j
    d = v // g
    y0 = (x0 + v * t0 - s.lo) // s.u
    first = max(0, -(y0 // d))
    last = min((c - 1 - t0) // period,
               ((s.n - 1) * s.r + s.m - 1 - y0) // d)
    if first > last:
        return False
    # some y in a run: y mod r < m, i.e. y // r - (y - m) // r == 1
    count = last - first + 1
    y = y0 + d * first
    return _floor_sum(count, s.r, d, y) > _floor_sum(count, s.r, d, y - s.m)


def _meets(a: _WordSet, b: _WordSet) -> bool:
    """Whether two word sets share a word; declines if undecidable."""
    if a.hi < b.lo or b.hi < a.lo:
        return False
    if not (a.u and b.u):
        raise _Decline("mem-shape")
    if len(a.lines()) > len(b.lines()):
        a, b = b, a
    return any(_line_meets(x0, v, c, b) for x0, v, c in a.lines())


@dataclass
class _MemTemplate:
    """Resolved word addresses for one memory position over the skip."""

    kind: str  # ldv | stv | lds | sts
    pos: int
    w0: int  # word index at the first skipped iteration
    wstep: int  # word-index step per iteration
    stride: int  # words between vector elements
    vl: int
    idx: np.ndarray  # (k, vl), (vl,), (k,) or (1,) word indices


def mem_words(
    plan: _LoopPlan, pos: int, S: set, steps: dict, k: int,
    size_words: int,
) -> tuple[int, int, _WordSet]:
    """Memory position ``pos``'s words over a ``k``-iteration skip.

    Returns ``(w0, wstep, words)``: the word index at the first skipped
    iteration, its step per iteration, and the whole set.  Declines
    unless the address is affine in the head state and word aligned,
    and every word lies in a memory of ``size_words`` (the simulator
    faults on any other access), and unless a vector store writes a
    distinct word per element.
    """
    kind, addr, stride, vl = plan.mem_pos[pos]
    _require_stable(addr, S, "mem-addr-unstable")
    a0 = _eval_form(addr, plan.head_values)
    if a0 is None:
        raise _Decline("mem-addr-nonint")
    astep = _slope(addr, steps)
    if a0 % 8 or astep % 8:
        raise _Decline("mem-unaligned")
    if vl <= 0:
        raise _Decline("vl-nonpositive")
    if kind == "stv" and stride == 0 and vl > 1:
        # all elements target one word; NumPy scatter order is
        # unspecified, so mirror-exactness cannot be proven
        raise _Decline("store-stride0")
    w0 = a0 // 8
    wstep = astep // 8
    words = _WordSet.of(w0, wstep, k, stride, vl)
    if words.lo < 0 or words.hi >= size_words:
        raise _Decline("mem-oob")
    return w0, wstep, words


def _memory_pass(plan: _LoopPlan, S, steps, k: int, memory):
    """Resolve every memory position to concrete word indices.

    Declines unless all addresses are affine in the head state, word
    aligned and in bounds for the whole skip, each store writes a word
    at most once (except the exactly-repeating wstep==0 case, where
    only the last iteration survives), no two stores share a word, and
    no load touches a stored word.  The disjointness proof is integer
    arithmetic over each position's :class:`_WordSet`; it never
    enumerates addresses, and declines as ``mem-shape`` where the
    shapes fall outside that form.  Raises before any state is mutated.
    The index arrays serve the value pass's gathers and scatters.
    """
    templates: list[_MemTemplate] = []
    if not plan.mem_pos:
        return templates
    jvec = np.arange(k, dtype=np.int64)
    loads: list[_WordSet] = []
    stores: list[_WordSet] = []
    for pos in sorted(plan.mem_pos):
        kind, _, stride, vl = plan.mem_pos[pos]
        w0, wstep, words = mem_words(
            plan, pos, S, steps, k, memory.size_words
        )
        if kind in ("ldv", "stv"):
            elem = np.arange(vl, dtype=np.int64) * stride
            if wstep == 0:
                idx = w0 + elem  # identical every iteration
            else:
                idx = (w0 + jvec[:, None] * wstep) + elem[None, :]
        elif wstep == 0:
            idx = np.array([w0], dtype=np.int64)
        else:
            idx = w0 + jvec * wstep
        templates.append(_MemTemplate(kind, pos, w0, wstep, stride, vl, idx))
        if kind in ("stv", "sts"):
            if not words.u:
                raise _Decline("mem-shape")
            if words.size != (k if wstep else 1) * vl:
                # a word written twice across the skip: scatter order
                # would matter
                raise _Decline("store-overlap")
            stores.append(words)
        else:
            loads.append(words)
    if any(_meets(a, b) for i, a in enumerate(stores) for b in stores[:i]):
        raise _Decline("store-overlap")
    if any(_meets(a, b) for a in stores for b in loads):
        raise _Decline("load-store-overlap")
    return templates


# ----------------------------------------------------------------------
# Phase B2: bulk functional execution over the iteration axis
# ----------------------------------------------------------------------
#
# Scalar values are ("c", value) — invariant — or ("b", (k,) batch);
# a-register batches are int64, s-register batches float64, exactly as
# the register file stores them.  Vector values are ("r", (w,) row) —
# invariant — or ("R", (k, w) rows).  Every transfer below mirrors the
# interpreter's operation sequence on the same dtypes, so a batch slice
# at iteration j is bit-identical to interpreting iteration j.


def _value_pass(
    plan: _LoopPlan, decoded, S, steps, seqacc, carried, k: int,
    regfile, memory, templates,
):
    """Advance registers, memory, and the flag by ``k`` iterations.

    Pure until the commit block at the end: any :class:`_Decline`
    leaves the architectural state untouched.
    """
    head = plan.head_values
    seq = plan.seq
    jvec = np.arange(k, dtype=np.int64)

    env: dict = {}
    for slot in S:
        h = head[slot]
        st = steps[slot]
        if st == 0:
            env[slot] = ("c", h)
        else:
            vals = int(h) + jvec * st  # exact: |values| < 2**53
            if slot[0] == "s":
                vals = vals.astype(np.float64)  # exact below 2**53
            env[slot] = ("b", vals)

    seq_at = {p: slot for slot, p in seqacc.items()}
    carried_at = {p: idx for idx, p in carried.items()}
    mem_t = {t.pos: t for t in templates}
    venv: dict = {}  # idx -> (width, "r"|"R", data)
    pending = []  # (template, ("r"|"R"|"c"|"b", values)) store scatters
    last_cmp = None
    cur_vl = plan.vl_at[0] if plan.vl_at else regfile.vl

    # -- helpers -------------------------------------------------------

    def sval(spec):
        """Raw scalar operand (mirror of ``fetch_scalar``)."""
        kind = spec[0]
        if kind == K_IMM:
            return ("c", spec[1])
        if kind == K_VL:
            return ("c", cur_vl)
        e = env.get(_spec_slot(spec))
        if e is None or e[0] not in ("c", "b"):
            raise _Decline("internal-env")
        return e

    def fval(spec):
        """Floated scalar ALU operand (mirror of ``_fetch_float``).

        int -> float64 conversion below is the identical rounding the
        interpreter's ``float(...)`` performs, at any magnitude.
        """
        kind = spec[0]
        if kind == K_IMM:
            return ("c", spec[1])  # pre-floated at decode time
        if kind == K_VL:
            return ("c", float(cur_vl))
        t, v = sval(spec)
        if t == "c":
            return ("c", float(v))
        if v.dtype != np.float64:
            v = v.astype(np.float64)
        return ("b", v)

    def s_binop(op, a, b):
        at, av = a
        bt, bv = b
        if op == OP_DIV:
            if bt == "c":
                if bv == 0.0:
                    raise _Decline("div-by-zero")
            elif not np.all(bv):
                raise _Decline("div-by-zero")
        if op == OP_ADD:
            r = av + bv
        elif op == OP_SUB:
            r = av - bv
        elif op == OP_MUL:
            r = av * bv
        else:
            r = av / bv
        return ("c", r) if (at == "c" and bt == "c") else ("b", r)

    def s_write(spec, value):
        """Mirror of ``write_scalar`` into the environment."""
        kind = spec[0]
        if kind == K_VL:
            # constant across the skip, proven by the VL constraints
            return
        slot = _spec_slot(spec)
        t, v = value
        if kind == K_S:
            if t == "c":
                env[slot] = ("c", float(v))
            else:
                if v.dtype != np.float64:
                    v = v.astype(np.float64)
                env[slot] = ("b", v)
            return
        # address-class destination (a / vs): mirror of int(value)
        if t == "c":
            if isinstance(v, float) and not math.isfinite(v):
                raise _Decline("int-of-nonfinite")
            iv = int(v)
            if abs(iv) >= _A_LIMIT:
                raise _Decline("int-overflow")
            env[slot] = ("c", iv)
        else:
            if v.dtype == np.float64:
                with np.errstate(invalid="ignore"):
                    bad = not np.all(np.isfinite(v)) or bool(
                        np.any(np.abs(v) >= float(_A_LIMIT))
                    )
                if bad:
                    raise _Decline("int-overflow")
                v = v.astype(np.int64)  # truncation, same as int(float)
            env[slot] = ("b", v)

    def vread(idx, w):
        e = venv.get(idx)
        if e is None:
            return ("r", regfile.v[idx, :w].copy())
        ew, kind2, data = e
        if w > ew:
            raise _Decline("vector-widen")
        if kind2 == "r":
            return ("r", data[:w])
        return ("R", data[:, :w])

    def as_rows(kind2, data, w):
        if kind2 == "R":
            return data
        return np.broadcast_to(data, (k, w)).copy()

    def vwrite(idx, w, kind2, data):
        e = venv.get(idx)
        if e is not None and e[0] > w:
            # narrower write layered over a wider one: per iteration
            # the tail [w:pw] keeps the earlier write's value
            pw, pkind, pdata = e
            if pkind == "r" and kind2 == "r":
                merged = pdata.copy()
                merged[:w] = data
                venv[idx] = (pw, "r", merged)
            else:
                merged = as_rows(pkind, pdata, pw)
                if pkind == "R":
                    merged = merged.copy()
                merged[:, :w] = (
                    data if kind2 == "R" else np.broadcast_to(data, (k, w))
                )
                venv[idx] = (pw, "R", merged)
        else:
            venv[idx] = (w, kind2, data)

    def v_binop(op, a, b):
        at, av = a
        bt, bv = b
        if at == "b":
            av = av[:, None]
        if bt == "b":
            bv = bv[:, None]
        if op == OP_ADD:
            r = av + bv
        elif op == OP_SUB:
            r = av - bv
        elif op == OP_MUL:
            r = av * bv
        else:
            r = av / bv
        return ("R", r) if r.ndim == 2 else ("r", r)

    def alu_operand(spec):
        if spec[0] == "v":
            return vread(spec[1], cur_vl)
        return fval(spec)

    def run_seqacc(d, slot):
        """Sequential scalar accumulator (mirrored per iteration)."""
        slot_is_lhs = _spec_slot(d.lhs_spec) == slot
        other_spec = d.rhs_spec if slot_is_lhs else d.lhs_spec
        ot, ov = fval(other_spec)
        is_addr = slot[0] != "s"
        out = np.empty(k, dtype=np.int64 if is_addr else np.float64)
        cur = head[slot]
        op = d.alu_op
        try:
            for j in range(k):
                svf = float(cur)
                o = float(ov[j]) if ot == "b" else ov
                lhs, rhs = (svf, o) if slot_is_lhs else (o, svf)
                if op == OP_ADD:
                    res = lhs + rhs
                elif op == OP_SUB:
                    res = lhs - rhs
                elif op == OP_MUL:
                    res = lhs * rhs
                else:
                    res = lhs / rhs
                res = float(res)
                cur = int(res) if is_addr else res
                out[j] = cur
        except (ZeroDivisionError, OverflowError, ValueError):
            raise _Decline("seqacc-fault") from None
        env[slot] = ("b", out)

    def run_carried(d, idx):
        """Sequential carried-vector update (mirrored per iteration)."""
        vl_p = cur_vl
        idx_is_lhs = d.lhs_spec == ("v", idx)
        other_spec = d.rhs_spec if idx_is_lhs else d.lhs_spec
        if other_spec[0] == "v":
            other = vread(other_spec[1], vl_p)
        else:
            other = fval(other_spec)
        ot, ov = other
        cur = regfile.v[idx, :vl_p].copy()
        rows = np.empty((k, vl_p))
        op = d.alu_op
        for j in range(k):
            if ot == "r" or ot == "c":
                o = ov
            elif ot == "R":
                o = ov[j]
            else:  # scalar batch
                o = float(ov[j])
            lhs, rhs = (cur, o) if idx_is_lhs else (o, cur)
            if op == OP_ADD:
                res = lhs + rhs
            elif op == OP_SUB:
                res = lhs - rhs
            elif op == OP_MUL:
                res = lhs * rhs
            else:
                res = lhs / rhs
            cur = res
            rows[j] = res
        vwrite(idx, vl_p, "R", rows)

    # -- the walk (pure: no architectural mutation) --------------------

    for pos, pc in enumerate(seq):
        d = decoded[pc]
        cur_vl = plan.vl_at[pos]
        tag = d.tag

        if tag == T_ALU:
            if pos in seq_at:
                run_seqacc(d, seq_at[pos])
                continue
            if pos in carried_at:
                run_carried(d, carried_at[pos])
                continue
            if d.dest_vec_idx is not None:
                if d.alu_scalar_result:
                    # scalar result broadcast: np.full(vl, float(result))
                    rt, rv = s_binop(
                        d.alu_op, fval(d.lhs_spec), fval(d.rhs_spec)
                    )
                    if rt == "c":
                        vwrite(
                            d.dest_vec_idx, cur_vl, "r",
                            np.full(cur_vl, float(rv)),
                        )
                    else:
                        vwrite(
                            d.dest_vec_idx, cur_vl, "R",
                            np.broadcast_to(
                                rv[:, None], (k, cur_vl)
                            ).copy(),
                        )
                else:
                    rk, rdata = v_binop(
                        d.alu_op, alu_operand(d.lhs_spec),
                        alu_operand(d.rhs_spec),
                    )
                    vwrite(d.dest_vec_idx, cur_vl, rk, rdata)
            else:
                if d.alu_scalar_result:
                    res = s_binop(
                        d.alu_op, fval(d.lhs_spec), fval(d.rhs_spec)
                    )
                else:
                    # vector-operand ALU into a scalar: flat[0]
                    rk, rdata = v_binop(
                        d.alu_op, alu_operand(d.lhs_spec),
                        alu_operand(d.rhs_spec),
                    )
                    if rk == "r":
                        res = ("c", float(rdata[0]))
                    else:
                        res = ("b", rdata[:, 0].copy())
                s_write(d.dest_spec, res)
        elif tag == T_MOV:
            s_write(d.dest_spec, sval(d.src_spec))
        elif tag == T_NEG_S:
            t, v = sval(d.src_spec)
            if t == "b" and v.dtype == np.int64 and v.size and \
                    int(v.min()) == -(2 ** 63):
                raise _Decline("int-overflow")
            s_write(d.dest_spec, (t, -v))
        elif tag == T_CMP:
            lt, lv = sval(d.lhs_spec)
            rt, rv = sval(d.rhs_spec)
            if lt == "b" or rt == "b":
                # NumPy promotes int64 to float64 in mixed compares;
                # Python compares exactly — only allow the window where
                # promotion is exact
                for (t1, v1), (t2, v2) in (((lt, lv), (rt, rv)),
                                           ((rt, rv), (lt, lv))):
                    is_int = (t1 == "b" and v1.dtype == np.int64) or (
                        t1 == "c" and isinstance(v1, int)
                    )
                    other_float = (t2 == "b" and v2.dtype == np.float64) \
                        or (t2 == "c" and isinstance(v2, float))
                    if is_int and other_float:
                        big = (
                            int(np.abs(v1).max()) if t1 == "b"
                            else abs(v1)
                        )
                        if big >= _F_EXACT:
                            raise _Decline("compare-promote")
            op = d.cmp_op
            if op == CMP_LT:
                res = lv < rv
            elif op == CMP_LE:
                res = lv <= rv
            else:
                res = lv == rv
            last_cmp = (
                ("c", bool(res)) if (lt == "c" and rt == "c")
                else ("b", res)
            )
        elif tag in (T_BR, T_BRS):
            pass  # outcomes proven constant by the trip-count solve
        elif tag == T_SUM:
            sk, sdata = vread(d.src_vec_idx, cur_vl)
            if sk == "r":
                env[("s", d.dest_spec[1])] = ("c", float(sdata.sum()))
            else:
                out = np.empty(k, dtype=np.float64)
                for j in range(k):
                    # per-row .sum(): same contiguous pairwise
                    # summation as the interpreter's read_vector().sum()
                    out[j] = float(sdata[j].sum())
                env[("s", d.dest_spec[1])] = ("b", out)
        elif tag == T_MOV_VV:
            sk, sdata = vread(d.src_vec_idx, cur_vl)
            vwrite(d.dest_vec_idx, cur_vl, sk, sdata)
        elif tag == T_NEG_V:
            sk, sdata = vread(d.src_vec_idx, cur_vl)
            vwrite(d.dest_vec_idx, cur_vl, sk, -sdata)
        elif tag == T_LD_V:
            t = mem_t[pos]
            words = memory.gather_words(t.idx)
            vwrite(
                d.dest_vec_idx, t.vl,
                "r" if t.idx.ndim == 1 else "R", words,
            )
        elif tag == T_LD_S:
            t = mem_t[pos]
            words = memory.gather_words(t.idx)
            if t.wstep == 0:
                s_write(d.dest_spec, ("c", float(words[0])))
            else:
                s_write(d.dest_spec, ("b", words))
        elif tag == T_ST_V:
            t = mem_t[pos]
            pending.append((t, vread(d.src_vec_idx, t.vl)))
        elif tag == T_ST_S:
            t = mem_t[pos]
            # value stored is float(fetch_scalar(...)) — float it now
            pending.append((t, fval(d.src_spec)))
        else:
            raise _Decline("unsupported-instruction")

    # -- commit (no declines past this point) --------------------------

    for t, (vk, vdata) in pending:
        if t.kind == "stv":
            if t.wstep == 0:
                # same words every iteration: the last write survives
                memory.scatter_words(
                    t.idx, vdata if vk == "r" else vdata[k - 1]
                )
            else:
                memory.scatter_words(
                    t.idx,
                    vdata if vk == "R"
                    else np.broadcast_to(vdata, (k, t.vl)),
                )
        else:  # sts
            if t.wstep == 0:
                memory.scatter_words(
                    t.idx, vdata if vk == "c" else vdata[k - 1]
                )
            else:
                memory.scatter_words(t.idx, vdata)

    for slot in plan.scalar_write_pos:
        e = env.get(slot)
        assert e is not None and e[0] in ("c", "b"), slot
        t_, v = e
        val = v if t_ == "c" else v[k - 1]
        if slot[0] == "a":
            regfile.a[slot[1]] = val
        elif slot[0] == "s":
            regfile.s[slot[1]] = val
        else:  # ("vs",)
            regfile.vs = int(val)

    for idx, (w, kind2, data) in venv.items():
        regfile.v[idx, :w] = data if kind2 == "r" else data[k - 1]

    if last_cmp is not None:
        ft, fv = last_cmp
        regfile.flag = bool(fv) if ft == "c" else bool(fv[k - 1])


# ----------------------------------------------------------------------
# Timing advance: replay or analytic shift
# ----------------------------------------------------------------------


def _replay_timing(model, state, decoded, plan, templates, k: int) -> None:
    """Advance the pipeline by re-running the timing model per iteration.

    Exact by construction — these are the very calls the interpreter
    would have made, minus value execution and trace records.  Valid
    under memory refresh and the scalar-cache model.
    """
    timings = model.config.timings
    want_addr = state.scalar_cache is not None
    mem_t = {t.pos: t for t in templates}
    prebuilt = []
    for pos, pc in enumerate(plan.seq):
        d = decoded[pc]
        if d.is_vector:
            prebuilt.append(
                (True, d, timings.lookup(d.timing_key), pc,
                 plan.vl_at[pos], False, None)
            )
        else:
            taken = plan.branch_taken.get(pos, False)
            addr = None
            if want_addr and d.is_scalar_memory:
                t = mem_t[pos]
                addr = (t.w0, t.wstep)
            prebuilt.append((False, d, None, pc, 0, taken, addr))
    time_vector = model.time_vector_decoded
    time_scalar = model.time_scalar_decoded
    for j in range(k):
        for is_vec, d, timing, pc, vl, taken, addr in prebuilt:
            if is_vec:
                time_vector(state, d, timing, pc, vl, record=False)
            else:
                word_address = (
                    addr[0] + j * addr[1] if addr is not None else None
                )
                time_scalar(
                    state, d, pc, taken, word_address, record=False
                )


def _on_grid(v: float) -> bool:
    return abs(v) < _CLOCK_LIMIT and (v * _GRID).is_integer()


def _try_analytic_shift(state, delta: float, k: int) -> bool:
    """Shift all clocks by ``k * delta`` if provably exact; else False.

    With every absolute clock (and ``delta``) a multiple of 2**-20 and
    below 2**30, each ``v + k*delta`` is exactly representable, so the
    bulk shift equals ``k`` exact single-iteration shifts — and the
    timing model's own max/+ recurrences commute with exact shifts.
    """
    if delta < 0 or not _on_grid(delta):
        return False
    shift = delta * k  # exact: both factors on the grid, product < 2**53
    if shift >= _CLOCK_LIMIT:
        return False
    for v in state.absolute_clocks():
        if not _on_grid(v):
            return False
    state.shift_clocks(shift)
    return True


# ----------------------------------------------------------------------
# The loop monitor and the engine
# ----------------------------------------------------------------------


class LoopMonitor:
    """Back-edge loop detector + steady-state skipper for one run.

    The run loop calls :meth:`on_branch` after every executed branch.
    The monitor watches one backward branch at a time and rebuilds each
    iteration's body from the branch events.  The first iteration arms
    it; two identical iterations in a row engage the proof: classify
    the body, solve the affine closure, run the value-side checks, solve
    the trip count, advance the values by ``k`` iterations, then the
    timing by analytic clock shift or replay.  All declines are soft
    for the run; an edge that fails ``MAX_EDGE_FAILS`` times in a row
    is blacklisted to bound monitoring overhead.

    The simulator's :class:`FastPathEngine` and the static tier's
    walker share this policy.  A subclass supplies only what differs:
    :meth:`head_state` (concrete registers, or NaN for unknown values)
    and the value side, :meth:`check_values` before the trip count and
    :meth:`advance_values` after it.
    """

    def __init__(
        self, decoded, model, state, stats: FastPathStats,
        max_instructions: int,
    ) -> None:
        self.decoded = decoded
        self.model = model
        self.state = state
        self.stats = stats
        self.max_instructions = max_instructions
        self._monitor = -1
        self._events: list[tuple[int, bool]] = []
        self._fails: dict[int, int] = {}
        self._blacklist: set[int] = set()
        self._seen: set[int] = set()
        self._prev_sig = None
        self._prev_fp = None
        self._prev_grid = False
        self._prev_issue = 0.0
        # the analytic fingerprint is only ever useful without the
        # scalar cache (cache state is not part of the fingerprint)
        self._track_fp = state.scalar_cache is None

    # -- what a subclass supplies --------------------------------------

    def head_state(self) -> tuple[int, dict]:
        """VL and every scalar slot's value at the loop head."""
        raise NotImplementedError

    def check_values(self, plan: _LoopPlan, S: set):
        """Value-side proof before the trip count; its result is passed
        to :meth:`advance_values`.  Raises :class:`_Decline`."""
        raise NotImplementedError

    def advance_values(
        self, plan: _LoopPlan, S: set, steps: dict, proof, k: int
    ) -> list[_MemTemplate]:
        """Advance the value state by ``k`` iterations; returns the
        memory templates the timing replay needs.  May raise
        :class:`_Decline` only before it changes any state."""
        raise NotImplementedError

    # ------------------------------------------------------------------

    def on_branch(self, pc: int, taken: bool, executed: int) -> _Skip | None:
        """Observe a branch; returns a :class:`_Skip` after a skip."""
        mon = self._monitor
        if mon < 0:
            if (
                taken
                and self.decoded[pc].target_pc <= pc
                and pc not in self._blacklist
            ):
                self._monitor = pc
                self._events = []
                self._prev_sig = None
                self._prev_fp = None
                if pc not in self._seen:
                    self._seen.add(pc)
                    self.stats.loops_detected += 1
            return None
        self._events.append((pc, taken))
        if pc != mon or not taken:
            if len(self._events) > 4 * MAX_BODY:
                return self._fail()
            return None
        return self._boundary(executed)

    # ------------------------------------------------------------------

    def _boundary(self, executed: int):
        events = self._events
        self._events = []
        try:
            seq, outcomes = self._reconstruct(events)
        except _Decline:
            return self._fail()
        sig = (tuple(seq), tuple(sorted(outcomes.items())))
        if sig != self._prev_sig:
            # first sighting of this body shape: arm for next boundary
            self._prev_sig = sig
            self._capture_fp()
            return None
        # two consecutive identical iterations: attempt the proof
        prev_fp, prev_issue = self._prev_fp, self._prev_issue
        prev_grid = self._prev_grid
        try:
            skip = self._engage(
                seq, outcomes, executed, prev_fp, prev_issue, prev_grid
            )
        except _Decline as e:
            self.stats.decline(e.reason)
            return self._fail()
        if skip is None:  # soft: trip count too small right now
            self._capture_fp()
            return None
        # after a skip the steady state must be re-proven from scratch
        self._prev_sig = None
        self._prev_fp = None
        self._fails[self._monitor] = 0
        return skip

    def _capture_fp(self) -> None:
        state = self.state
        self._prev_issue = state.issue_clock
        if self._track_fp:
            self._prev_fp = state.clock_fingerprint()
            # relative fingerprints only certify exact absolute shifts
            # when the subtractions were exact, i.e. both boundary
            # states sit fully on the dyadic grid
            self._prev_grid = all(
                _on_grid(v) for v in state.absolute_clocks()
            )
        else:
            self._prev_fp = None
            self._prev_grid = False

    def _fail(self) -> None:
        mon = self._monitor
        count = self._fails.get(mon, 0) + 1
        self._fails[mon] = count
        self._events = []
        self._prev_sig = None
        self._prev_fp = None
        if count >= MAX_EDGE_FAILS:
            self._blacklist.add(mon)
            self._monitor = -1
        return None

    def _reconstruct(self, events):
        """Body pc sequence + per-position branch outcomes from events."""
        decoded = self.decoded
        mon = self._monitor
        seq: list[int] = []
        outcomes: dict[int, bool] = {}
        pc = decoded[mon].target_pc
        ei = 0
        last = len(events) - 1
        while True:
            seq.append(pc)
            if len(seq) > MAX_BODY:
                raise _Decline("body-too-long")
            d = decoded[pc]
            if d.is_branch:
                if ei > last or events[ei][0] != pc:
                    raise _Decline("trace-mismatch")
                taken = events[ei][1]
                outcomes[len(seq) - 1] = taken
                if ei == last:
                    if pc != mon or not taken:
                        raise _Decline("trace-mismatch")
                    return seq, outcomes
                ei += 1
                pc = d.target_pc if taken else pc + 1
            else:
                pc += 1

    def _engage(
        self, seq, outcomes, executed, prev_fp, prev_issue, prev_grid
    ):
        decoded = self.decoded
        state = self.state
        max_vl = state.config.max_vl
        vl, head = self.head_state()
        plan = _classify(decoded, seq, outcomes, vl, max_vl, head)
        S, steps = _closure(plan)
        proof = self.check_values(plan, S)
        budget = (self.max_instructions - executed) // len(seq)
        k = _trip_count(plan, S, steps, budget, max_vl)
        if k < MIN_SKIP:
            return None

        # values first (no state changes before their last decline),
        # then timing
        templates = self.advance_values(plan, S, steps, proof, k)
        analytic = False
        if (
            prev_fp is not None
            and prev_grid
            and (not plan.has_memory or not state.config.refresh_enabled)
            and prev_fp == state.clock_fingerprint()
        ):
            analytic = _try_analytic_shift(
                state, state.issue_clock - prev_issue, k
            )
        if not analytic:
            _replay_timing(self.model, state, decoded, plan, templates, k)

        stats = self.stats
        stats.engagements += 1
        if analytic:
            stats.analytic_engagements += 1
        else:
            stats.replay_engagements += 1
        stats.iterations_skipped += k
        stats.instructions_skipped += len(seq) * k
        return _Skip(
            instructions=len(seq) * k,
            vector_instructions=plan.n_vector * k,
            scalar_instructions=plan.n_scalar * k,
            vector_memory=plan.n_vmem * k,
            scalar_memory=plan.n_smem * k,
            flops=plan.n_flops * k,
        )


class FastPathEngine(LoopMonitor):
    """The simulator's fast path: a :class:`LoopMonitor` over the
    concrete register file and memory image, whose value side proves
    memory disjointness and advances both in bulk."""

    def __init__(
        self, decoded, model, state, regfile, memory, stats,
        max_instructions: int,
    ):
        super().__init__(decoded, model, state, stats, max_instructions)
        self._regfile = regfile
        self._memory = memory

    def head_state(self) -> tuple[int, dict]:
        rf = self._regfile
        head: dict = {("vs",): rf.vs}
        for i in range(rf.a.shape[0]):
            head[("a", i)] = int(rf.a[i])
        for i in range(rf.s.shape[0]):
            head[("s", i)] = float(rf.s[i])
        return rf.vl, head

    def check_values(self, plan, S):
        return _detect_live_patterns(plan, self.decoded, S)

    def advance_values(self, plan, S, steps, proof, k):
        templates = _memory_pass(plan, S, steps, k, self._memory)
        seqacc, carried = proof
        _value_pass(
            plan, self.decoded, S, steps, seqacc, carried, k,
            self._regfile, self._memory, templates,
        )
        spec = _faults.check("fastpath.engage")
        if spec is not None and spec.kind == "skew":
            # Chaos hook: push the fast path's clocks off the exact
            # timeline so the divergence sentinel has a real defect to
            # catch.  Dead (one ``is None`` test) without an armed plan.
            self.state.shift_clocks(spec.value)
        return templates
