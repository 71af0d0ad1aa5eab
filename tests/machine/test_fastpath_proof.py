"""The fast path's memory-disjointness proof against a set oracle.

Before the fast path skips ``k`` iterations it must prove that no
store writes a word twice, no two stores share a word, and no load
reads a stored word.  ``_memory_pass`` proves this in closed form over
each memory position's affine word set ``{w0 + j*wstep + e*stride}``.
The oracle below is the earlier proof, kept as the reference: it
materialises every word and compares sorted sets.  On every shape the
closed form covers it must return the oracle's exact decision and
decline reason; elsewhere it may only decline, as ``mem-shape``.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.fastpath import (
    MAX_K_VECTOR,
    _Decline,
    _floor_sum,
    _memory_pass,
    _WordSet,
)

ENGAGE = "engage"
BASE = 1 << 20  # word index the random templates cluster around


def set_oracle(plan, S, steps, k, memory):
    """The enumerate-and-sort proof: every word index, then set algebra."""
    head = plan.head_values
    size = memory.size_words
    jvec = np.arange(k, dtype=np.int64)
    load_sets = []
    store_sets = []
    for pos in sorted(plan.mem_pos):
        kind, (c, coefs), stride, vl = plan.mem_pos[pos]
        if any(sym not in S for sym in coefs):
            raise _Decline("mem-addr-unstable")
        a0 = c + sum(co * head[sym] for sym, co in coefs.items())
        astep = sum(co * steps[sym] for sym, co in coefs.items())
        if a0 % 8 or astep % 8:
            raise _Decline("mem-unaligned")
        w0 = a0 // 8
        wstep = astep // 8
        if kind in ("ldv", "stv"):
            if vl <= 0:
                raise _Decline("vl-nonpositive")
            if kind == "stv" and stride == 0 and vl > 1:
                raise _Decline("store-stride0")
            lo = w0 + min(0, wstep * (k - 1)) + min(0, stride * (vl - 1))
            hi = w0 + max(0, wstep * (k - 1)) + max(0, stride * (vl - 1))
            if lo < 0 or hi >= size:
                raise _Decline("mem-oob")
            elem = np.arange(vl, dtype=np.int64) * stride
            if wstep == 0:
                idx = w0 + elem
            else:
                idx = (w0 + jvec[:, None] * wstep) + elem[None, :]
        else:
            lo = min(w0, w0 + wstep * (k - 1))
            hi = max(w0, w0 + wstep * (k - 1))
            if lo < 0 or hi >= size:
                raise _Decline("mem-oob")
            if wstep == 0:
                idx = np.array([w0], dtype=np.int64)
            else:
                idx = w0 + jvec * wstep
        flat = np.unique(idx.ravel())
        if kind in ("stv", "sts"):
            if wstep != 0 and flat.size != idx.size:
                raise _Decline("store-overlap")
            store_sets.append(flat)
        else:
            load_sets.append(flat)
    if store_sets:
        all_stores = np.concatenate(store_sets)
        unique_stores = np.unique(all_stores)
        if unique_stores.size != all_stores.size:
            raise _Decline("store-overlap")
        if load_sets:
            all_loads = np.unique(np.concatenate(load_sets))
            if np.intersect1d(
                unique_stores, all_loads, assume_unique=True
            ).size:
                raise _Decline("load-store-overlap")


def decide(prove, templates, k, size=1 << 21):
    """Run a proof over ``(kind, w0, wstep, stride, vl)`` templates.

    Each template's address is one a-register advancing by ``wstep``
    words per iteration, as the fast path's affine closure reports it.
    """
    slots = [("a", pos) for pos in range(len(templates))]
    plan = SimpleNamespace(mem_pos={}, head_values={})
    steps = {}
    for pos, (kind, w0, wstep, stride, vl) in enumerate(templates):
        if kind in ("lds", "sts"):
            stride, vl = 0, 1
        plan.mem_pos[pos] = (kind, (0, {slots[pos]: 1}), stride, vl)
        plan.head_values[slots[pos]] = 8 * w0
        steps[slots[pos]] = 8 * wstep
    try:
        prove(plan, set(slots), steps, k, SimpleNamespace(size_words=size))
    except _Decline as decline:
        return decline.reason
    return ENGAGE


def covered(template) -> bool:
    """Whether the closed form must decide this shape exactly."""
    kind, _, wstep, stride, vl = template
    if kind in ("lds", "sts") or not wstep or not stride or vl == 1:
        return True
    small, big = sorted((abs(wstep), abs(stride)))
    return big % small == 0


@st.composite
def templates(draw):
    kind = draw(st.sampled_from(["ldv", "stv", "lds", "sts"]))
    vl = draw(st.sampled_from([1, 2, 5, 64, 99, 128]))
    s = draw(st.sampled_from([2, 3, 8]))
    stride = draw(st.sampled_from([0, 1, -1, s, -s]))
    unit = max(abs(stride), 1)
    sign = draw(st.sampled_from([1, -1]))
    wstep = draw(st.one_of(
        st.just(0),
        st.just(sign * vl * unit),  # strips that tile
        st.integers(1, 40).map(lambda g: sign * (vl + g) * unit),  # gapped
        st.integers(1, 300).map(lambda q: sign * q * unit),  # any multiple
        st.integers(-300, 300),  # odd: not a multiple of the stride
    ))
    w0 = BASE + draw(st.integers(-300, 300))
    return (kind, w0, wstep, stride, vl)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(templates(), min_size=1, max_size=4),
    st.sampled_from([2, 3, 7, 64, 777, MAX_K_VECTOR]),
    st.sampled_from([1 << 21, BASE + 200]),
)
def test_closed_form_matches_set_oracle(shapes, k, size):
    closed = decide(_memory_pass, shapes, k, size)
    oracle = decide(set_oracle, shapes, k, size)
    if all(covered(t) for t in shapes):
        assert closed == oracle
    else:
        # outside the closed form: decline, never engage unproven
        assert closed in (oracle, "mem-shape")


@settings(max_examples=200, deadline=None)
@given(templates(), st.sampled_from([2, 3, 7, 64, 777]))
def test_word_set_is_the_enumerated_set(template, k):
    kind, w0, wstep, stride, vl = template
    if kind in ("lds", "sts"):
        stride, vl = 0, 1
        template = (kind, w0, wstep, stride, vl)
    words = _WordSet.of(w0, wstep, k, stride, vl)
    j = np.arange(k)[:, None]
    e = np.arange(vl)[None, :]
    enumerated = np.unique(w0 + j * wstep + e * stride)
    assert (words.lo, words.hi) == (enumerated[0], enumerated[-1])
    if not words.u:
        assert not covered(template)
        return
    lines = [x0 + v * np.arange(c) for x0, v, c in words.lines()]
    canonical = np.sort(np.concatenate(lines))
    np.testing.assert_array_equal(canonical, enumerated)
    assert words.size == enumerated.size


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 60), st.integers(1, 50), st.integers(-200, 200),
       st.integers(-200, 200))
def test_floor_sum_is_the_sum(n, m, a, b):
    assert _floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


# Explicit cases: (templates, k, the oracle's decision).
VL = 128
W = BASE
CASES = {
    "tiled-streams-disjoint": (
        [("ldv", W, VL, 1, VL), ("stv", W - 600_000, VL, 1, VL)],
        MAX_K_VECTOR, ENGAGE),
    "store-overlaps-itself": (
        [("stv", W, VL // 2, 1, VL)], 8, "store-overlap"),
    "stores-overlap-each-other": (
        [("stv", W, VL, 1, VL), ("stv", W + 5 * VL, VL, 1, VL)],
        64, "store-overlap"),
    "scalar-store-hits-vector-store": (
        [("stv", W, VL, 1, VL), ("sts", W + 1000, 0, 0, 1)],
        64, "store-overlap"),
    "load-reads-stored-word": (
        [("ldv", W + 1, VL, 1, VL), ("stv", W, VL, 1, VL)],
        64, "load-store-overlap"),
    "reverse-load-meets-store": (
        [("ldv", W + 63 * VL, -VL, 1, VL), ("stv", W, VL, 1, VL)],
        64, "load-store-overlap"),
    "load-in-the-gaps": (
        [("stv", W, VL, 1, 99), ("ldv", W + 99, VL, 1, VL - 99)],
        777, ENGAGE),
    "load-one-word-into-a-run": (
        [("stv", W, VL, 1, 99), ("ldv", W + 98, VL, 1, VL - 99)],
        777, "load-store-overlap"),
    "interleaved-strides-disjoint": (
        [("stv", W, 2 * VL, 2, VL), ("ldv", W + 1, 2 * VL, 2, VL)],
        777, ENGAGE),
    "invariant-store-after-the-stream": (
        [("ldv", W, VL, 1, VL), ("sts", W - 1, 0, 0, 1)], 64, ENGAGE),
    "invariant-store-inside-the-stream": (
        [("ldv", W, VL, 1, VL), ("sts", W + 64 * VL - 1, 0, 0, 1)],
        64, "load-store-overlap"),
}


@pytest.mark.parametrize("name", CASES)
def test_explicit_decisions(name):
    shapes, k, expected = CASES[name]
    assert decide(set_oracle, shapes, k) == expected
    assert decide(_memory_pass, shapes, k) == expected


def test_unsupported_shape_declines_where_the_oracle_engages():
    # stride 3 within a strip, 7 words per iteration: injective, but
    # outside the closed form, so the proof declines rather than guess
    shapes = [("stv", W, 7, 3, 2)]
    assert decide(set_oracle, shapes, 64) == ENGAGE
    assert decide(_memory_pass, shapes, 64) == "mem-shape"
