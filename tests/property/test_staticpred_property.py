"""Property tests: the static predictor vs the simulator.

Random generated loops, both with the steady-state fast path enabled
and disabled.  The contract under test is the predictor's tier label:

* **exact tier** (``prediction.exact``) is a bit-exactness claim —
  cycles and every counter must equal the simulator's observed run;
* **model tier** answers are bounds — the observed cycle count must
  fall inside ``[cycles_low, cycles_high]``.

Some draws run the loop past the end of its arrays (a run-time ``n``
above the one the arrays were sized for).  Where the simulator then
faults on memory, no exact answer may exist.
"""

import random

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis import predict_program
from repro.compiler import compile_kernel
from repro.compiler.scalar import LITERALS_SYMBOL, SCALARS_SYMBOL
from repro.errors import MemoryError_
from repro.machine import DEFAULT_CONFIG, Simulator
from repro.workloads import generate_loop


#: Extra run-time elements past the arrays' sizing ``n`` (0 = in bounds).
OVERRUN = st.sampled_from([0, 0, 0, 100, 5000])


def known_memory_for(generated, compiled, n):
    """Exactly the words ``simulate`` below makes non-opaque."""
    known = {}
    layout = compiled.program.layout
    scalars = layout.lookup(SCALARS_SYMBOL)
    for word in range(
        scalars.offset_words,
        scalars.offset_words + scalars.size_bytes // 8,
    ):
        known[word] = 0.0
    if compiled.literal_values:
        base = layout.lookup(LITERALS_SYMBOL).offset_words
        for index, value in enumerate(compiled.literal_values):
            known[base + index] = float(value)
    known[compiled.scalar_word_offset("n")] = float(n)
    for name, value in generated.scalars.items():
        known[compiled.scalar_word_offset(name)] = float(value)
    return known


def simulate(generated, compiled, data_seed, config, n):
    sim = Simulator(compiled.program, config=config)
    data = generated.make_data(random.Random(data_seed))
    for name, values in compiled.initial_data(data).items():
        sim.load_symbol(name, values)
    sim.memory.load_array(
        compiled.scalar_word_offset("n"),
        np.asarray([float(n)]),
    )
    for name, value in generated.scalars.items():
        sim.memory.load_array(
            compiled.scalar_word_offset(name), np.asarray([value])
        )
    return sim.run()


def check_one(seed, data_seed, config, overrun=0):
    generated = generate_loop(seed)
    n = generated.n + overrun
    compiled = compile_kernel(generated.source, "prop")
    prediction = predict_program(
        compiled.program,
        config,
        known_memory=known_memory_for(generated, compiled, n),
        trips=(n,),
    )
    try:
        result = simulate(generated, compiled, data_seed, config, n)
    except MemoryError_:
        assert not prediction.exact
        return prediction
    if prediction.exact:
        assert prediction.cycles == result.cycles
        assert (
            prediction.instructions_executed
            == result.instructions_executed
        )
        assert (
            prediction.vector_instructions
            == result.vector_instructions
        )
        assert (
            prediction.scalar_instructions
            == result.scalar_instructions
        )
        assert (
            prediction.vector_memory_ops == result.vector_memory_ops
        )
        assert (
            prediction.scalar_memory_ops == result.scalar_memory_ops
        )
        assert prediction.flops == result.flops
        assert prediction.cycles_low == prediction.cycles_high
    else:
        assert prediction.tier == "model"
        assert prediction.cycles_low <= prediction.cycles_high
        assert (
            prediction.cycles_low
            <= result.cycles
            <= prediction.cycles_high
        )
    return prediction


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), data_seed=st.integers(0, 10_000),
       overrun=OVERRUN)
def test_prediction_tracks_simulator_with_fastpath(seed, data_seed,
                                                   overrun):
    check_one(seed, data_seed, DEFAULT_CONFIG, overrun)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), data_seed=st.integers(0, 10_000),
       overrun=OVERRUN)
def test_prediction_tracks_simulator_without_fastpath(seed, data_seed,
                                                      overrun):
    check_one(seed, data_seed, DEFAULT_CONFIG.without_fastpath(), overrun)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_prediction_is_data_independent(seed):
    """Two different data seeds cannot change the prediction's claim.

    The predictor never sees array data, so whatever it predicts must
    hold across all data fillings — the core soundness property of
    the timing abstraction.
    """
    first = check_one(seed, 1, DEFAULT_CONFIG)
    second = check_one(seed, 2, DEFAULT_CONFIG)
    assert first == second
