"""Workload ``long-vectors``: compile and simulate long generated loops.

The seed picks ``LOOPS`` random loops from
``repro.workloads.generate_loop``; their sizes are a fixed grid from
20k to 100k elements, so strips dominate every loop and the
simulator's fast path engages on each.  This process generates the
loops, their input data and their NumPy references; each timed
repetition is a fresh interpreter (``rep.py long-vectors``) that
compiles every loop once with ``compile_kernel`` and simulates it on
the ``c240`` machine with ``Simulator.run``.
"""

from __future__ import annotations

import json
import os
import random

import numpy as np

from common import (
    Outcome, median, percentile, remove_run_dir, repetitions, run_dir,
    save_spans,
)
from tracing import median_layers

LOOPS = 48
SIZES = [20_000 + (80_000 * i) // (LOOPS - 1) for i in range(LOOPS)]
#: Stores land at ``k + 4`` (the generator's offset pad).
PAD = 4
#: Loop seeds tried per slot to find one of the slot's shape.
SHAPE_TRIES = 2000


def shape(loop) -> tuple:
    """What a loop's cost depends on: arrays, reduction, loads, ops."""
    from repro.lang.ast import ArrayRef, BinOp, UnaryOp

    loads = ops = 0
    pending = [loop.expr]
    while pending:
        expr = pending.pop()
        if isinstance(expr, ArrayRef):
            loads += 1
        elif isinstance(expr, BinOp):
            ops += 1
            pending += [expr.left, expr.right]
        elif isinstance(expr, UnaryOp):
            ops += 1
            pending.append(expr.operand)
    return (len(loop.arrays), loop.is_reduction, loads, ops)


def pick_loop(seed: int, index: int, n: int):
    """Slot ``index``'s loop for ``seed``.

    Random shapes made the per-loop figures of one seed differ from
    another's by 30%.  So slot ``index`` always has the shape of
    ``generate_loop(index)``, and the seed picks the first loop of that
    shape among its own loop seeds: the seed varies the expression,
    offsets, scalars and data, and every run sees one mix of shapes.
    """
    from repro.workloads import generate_loop

    wanted = shape(generate_loop(index, n=n))
    first = (seed * LOOPS + index) * SHAPE_TRIES
    for loop_seed in range(first, first + SHAPE_TRIES):
        loop = generate_loop(loop_seed, n=n)
        if shape(loop) == wanted:
            return loop_seed, loop
    return index, generate_loop(index, n=n)


def make_inputs(seed: int, path: str) -> list:
    """Write the loops and their data; return the references."""
    meta, arrays, references = [], {}, []
    for index, n in enumerate(SIZES):
        loop_seed, loop = pick_loop(seed, index, n)
        data = loop.make_data(random.Random(loop_seed))
        for name, values in data.items():
            arrays[f"{index}:{name}"] = values
        references.append(loop.reference(data))
        meta.append({"source": loop.source, "n": n,
                     "arrays": list(data), "scalars": loop.scalars,
                     "output": loop.output_array})
    np.savez(path, meta=np.array(json.dumps({"loops": meta})), **arrays)
    return references


def outputs_match(output: np.ndarray, reference, n: int) -> bool:
    if np.ndim(reference) == 0:
        return bool(np.isclose(output[0], reference, rtol=1e-9))
    return bool(np.allclose(output[PAD:PAD + n], reference, rtol=1e-9))


def measure(seed: int, seconds: float, trace: bool) -> Outcome:
    work = run_dir("long-vectors")
    inputs = os.path.join(work, "inputs.npz")
    try:
        references = make_inputs(seed, inputs)
        untraced, traced, traced_spans = repetitions(
            work, ["long-vectors", "--inputs", inputs], seconds, trace
        )
        outcome = Outcome()
        first = None
        for rep, result in enumerate(untraced + traced):
            with np.load(result["outputs"]) as outputs:
                for index, loop in enumerate(result["loops"]):
                    outcome.attempted += 1
                    if not outputs_match(outputs[str(index)],
                                         references[index], SIZES[index]):
                        outcome.fail(f"rep {rep} loop {index}: output "
                                     "differs from the NumPy reference")
                    elif first is not None and (
                            loop["cycles"], loop["instructions"]) != (
                            first[index]["cycles"],
                            first[index]["instructions"]):
                        outcome.fail(f"rep {rep} loop {index}: cycles or "
                                     "instructions differ from rep 0")
            if first is None:
                first = result["loops"]
    finally:
        remove_run_dir(work)

    def cycles_per_s(reps):
        loops = [loop for result in reps for loop in result["loops"]]
        return (sum(loop["cycles"] for loop in loops)
                / sum(loop["simulate_s"] for loop in loops))

    times = [loop["compile_s"] + loop["simulate_s"]
             for result in untraced for loop in result["loops"]]
    tail_ms = 1e3 * percentile(times, 95)
    outcome.metrics = {
        "setup_s": median(r["import_s"] for r in untraced),
        "peak_rss_mb": median(r["rss_mb"] for r in untraced),
        "op_p50_ms": 1e3 * median(times),
        "ops_per_s": len(times) / sum(times),
    }
    sim_rate = cycles_per_s(untraced)
    outcome.report += [
        ("sim_cycles_per_s", sim_rate, "1/s",
         "simulated c240 cycles per host second in Simulator setup+run"),
        ("loop_p50_ms", outcome.metrics["op_p50_ms"], "ms",
         f"compile+simulate per loop, {len(times)} samples"),
        ("loop_p95_ms", tail_ms, "ms",
         f"compile+simulate per loop, {len(times)} samples"),
        ("setup_s", outcome.metrics["setup_s"], "s",
         "median program import in a fresh interpreter"),
        ("peak_rss_mb", outcome.metrics["peak_rss_mb"], "MB",
         "median peak RSS of a repetition"),
    ]
    if trace:
        save_spans("long-vectors", traced_spans)
        outcome.layers = median_layers(traced_spans)
        outcome.layers["tail.op_ms"] = tail_ms
        traced_rate = cycles_per_s(traced)
        outcome.layers["trace.sim_cycles_per_s"] = traced_rate
        outcome.layers["trace.sim_cycles_per_s_overhead"] = (
            traced_rate - sim_rate
        )
    return outcome
