"""Steady-state fast path: cycle-exactness and cache behavior.

The fast path must be an *observationally invisible* optimization: for
every program and machine configuration, a run with the fast path armed
must produce bit-for-bit the same cycle count, instruction counters,
memory image, and register file as the plain interpreter.  These tests
check that differentially over the ten case-study kernels and a batch
of randomly generated loops, across the configurations that exercise
different engine modes (analytic shift, timing replay, scalar cache,
odd maximum vector lengths).
"""

import dataclasses
import random

import numpy as np
import pytest

from repro.compiler import compile_kernel
from repro.machine import DEFAULT_CONFIG, Simulator
from repro.workloads import (
    CASE_STUDY_KERNELS,
    clear_caches,
    compile_spec,
    generate_loop,
    kernel,
    prepare_simulator,
    run_kernel,
)

CONFIGS = {
    "default": DEFAULT_CONFIG,
    "norefresh": DEFAULT_CONFIG.without_refresh(),
    "scalar-cache": DEFAULT_CONFIG.with_scalar_cache(),
    "vl99": DEFAULT_CONFIG.replace(max_vl=99),
    "vl1": DEFAULT_CONFIG.replace(max_vl=1),
}

COUNTERS = (
    "instructions_executed",
    "vector_instructions",
    "scalar_instructions",
    "vector_memory_ops",
    "scalar_memory_ops",
    "flops",
)


def assert_identical(fast_sim, fast_result, slow_sim, slow_result):
    """Fast-path and interpreter runs must be indistinguishable."""
    assert fast_result.cycles == slow_result.cycles
    for name in COUNTERS:
        assert getattr(fast_result, name) == getattr(slow_result, name), name
    np.testing.assert_array_equal(
        fast_sim.memory.dump_array(0, fast_sim.memory.size_words),
        slow_sim.memory.dump_array(0, slow_sim.memory.size_words),
    )
    np.testing.assert_array_equal(fast_sim.regfile.a, slow_sim.regfile.a)
    np.testing.assert_array_equal(fast_sim.regfile.s, slow_sim.regfile.s)
    np.testing.assert_array_equal(fast_sim.regfile.v, slow_sim.regfile.v)
    assert fast_sim.regfile.vl == slow_sim.regfile.vl
    assert fast_sim.regfile.vs == slow_sim.regfile.vs


def run_spec(spec, config):
    compiled = compile_spec(spec)
    sim = prepare_simulator(spec, compiled, config)
    return sim, sim.run()


@pytest.mark.parametrize("config_name", CONFIGS)
@pytest.mark.parametrize("spec", CASE_STUDY_KERNELS, ids=lambda s: s.name)
class TestCaseStudyKernels:
    def test_cycle_exact(self, spec, config_name):
        config = CONFIGS[config_name]
        fast_sim, fast = run_spec(spec, config)
        slow_sim, slow = run_spec(spec, config.without_fastpath())
        assert fast.fastpath is not None
        assert slow.fastpath is None
        assert_identical(fast_sim, fast, slow_sim, slow)


class TestEngagement:
    def test_lfk1_engages_and_skips(self):
        _, result = run_spec(kernel("lfk1"), DEFAULT_CONFIG)
        stats = result.fastpath
        assert stats.loops_detected >= 1
        assert stats.engagements >= 1
        assert stats.iterations_skipped > 0
        assert stats.instructions_skipped > 0

    def test_analytic_mode_without_refresh(self):
        # with refresh off and no scalar cache, steady state is provable
        # from the clock fingerprint and the skip is a pure shift
        _, result = run_spec(kernel("lfk1"), DEFAULT_CONFIG.without_refresh())
        assert result.fastpath.analytic_engagements >= 1

    def test_replay_mode_with_refresh(self):
        # refresh makes memory timing phase-dependent, so the engine
        # must fall back to replaying the timing model
        _, result = run_spec(kernel("lfk1"), DEFAULT_CONFIG)
        stats = result.fastpath
        assert stats.analytic_engagements == 0
        assert stats.replay_engagements >= 1

    def test_disabled_by_config(self):
        config = DEFAULT_CONFIG.without_fastpath()
        assert config.fastpath is False
        _, result = run_spec(kernel("lfk1"), config)
        assert result.fastpath is None

    def test_trace_recording_disables_fastpath(self):
        spec = kernel("lfk1")
        compiled = compile_spec(spec)
        sim = prepare_simulator(spec, compiled, DEFAULT_CONFIG)
        result = sim.run(record_trace=True)
        assert result.fastpath is None
        assert result.trace


def run_generated_pair(seed, config, n=None):
    generated = generate_loop(seed, n=n)
    compiled = compile_kernel(generated.source, f"g{seed}")
    sims = []
    results = []
    for cfg in (config, config.without_fastpath()):
        sim = Simulator(compiled.program, cfg)
        data = generated.make_data(random.Random(1234))
        for name, values in compiled.initial_data(data).items():
            sim.load_symbol(name, values)
        sim.memory.load_array(
            compiled.scalar_word_offset("n"),
            np.asarray([float(generated.n)]),
        )
        for name, value in generated.scalars.items():
            sim.memory.load_array(
                compiled.scalar_word_offset(name), np.asarray([value])
            )
        sims.append(sim)
        results.append(sim.run())
    return sims, results


class TestGeneratedLoops:
    @pytest.mark.parametrize("seed", range(8))
    def test_default_sizes(self, seed):
        sims, results = run_generated_pair(seed, DEFAULT_CONFIG)
        assert_identical(sims[0], results[0], sims[1], results[1])

    @pytest.mark.parametrize("config_name", ["default", "norefresh",
                                             "scalar-cache", "vl99"])
    def test_long_loops_engage(self, config_name):
        # n large enough for several identical full-VL strips, so the
        # engine engages; exactness must hold through the skips
        config = CONFIGS[config_name]
        engagements = 0
        for seed in (0, 3, 5):
            sims, results = run_generated_pair(seed, config, n=1500)
            assert_identical(sims[0], results[0], sims[1], results[1])
            engagements += results[0].fastpath.engagements
        assert engagements > 0


class TestRunnerCaches:
    def setup_method(self):
        clear_caches()

    def teardown_method(self):
        clear_caches()

    def test_compile_spec_memoized(self):
        spec = kernel("lfk1")
        assert compile_spec(spec) is compile_spec(spec)

    def test_compile_cache_distinguishes_specs(self):
        assert compile_spec(kernel("lfk1")) is not compile_spec(
            kernel("lfk2")
        )

    def test_run_kernel_memoized(self):
        spec = kernel("lfk1")
        assert run_kernel(spec) is run_kernel(spec)

    def test_run_cache_distinguishes_configs(self):
        spec = kernel("lfk1")
        base = run_kernel(spec)
        assert run_kernel(spec, config=DEFAULT_CONFIG.without_refresh()) \
            is not base

    def test_cached_run_matches_fresh_run(self):
        spec = kernel("lfk3")
        cached = run_kernel(spec)
        clear_caches()
        fresh = run_kernel(spec)
        assert cached is not fresh
        assert cached.result.cycles == fresh.result.cycles

    def test_clear_caches_resets(self):
        spec = kernel("lfk1")
        first = run_kernel(spec)
        clear_caches()
        assert run_kernel(spec) is not first

    def test_explicit_compiled_bypasses_run_cache(self):
        spec = kernel("lfk1")
        compiled = compile_spec(spec)
        first = run_kernel(spec, compiled=compiled)
        second = run_kernel(spec, compiled=compiled)
        assert first is not second

    def test_verify_upgrades_cached_entry(self):
        spec = kernel("lfk1")
        run_kernel(spec, verify=False)
        # the cached run is re-verified on demand, not re-simulated
        assert run_kernel(spec, verify=True) is run_kernel(spec)

    def test_clear_caches_resets_analysis_memo(self):
        from repro import analysis

        program = compile_spec(kernel("lfk1")).program
        first = analysis.analyze_program(program)
        assert len(analysis._ANALYSIS_CACHE) >= 1
        assert analysis.analyze_program(program) is first
        clear_caches()
        assert len(analysis._ANALYSIS_CACHE) == 0
        assert analysis.analyze_program(program) is not first

    def test_sized_variants_not_conflated(self):
        base = kernel("lfk1")
        small = dataclasses.replace(
            base,
            scalar_inputs={**base.scalar_inputs, "n": 64},
            inner_iterations=64,
            trip_profile=(64,),
        )
        assert run_kernel(base).result.cycles \
            != run_kernel(small).result.cycles
