"""Kernel spec and functional-correctness tests for all ten LFKs."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.machine import DEFAULT_CONFIG
from repro.workloads import (
    CASE_STUDY_KERNELS,
    kernel,
    kernel_names,
    run_kernel,
)
from repro.workloads.runner import run_metrics


class TestRegistry:
    def test_ten_kernels(self):
        assert len(CASE_STUDY_KERNELS) == 10
        assert [s.number for s in CASE_STUDY_KERNELS] == [
            1, 2, 3, 4, 6, 7, 8, 9, 10, 12,
        ]

    def test_lookup_by_name_and_number(self):
        assert kernel("lfk8") is kernel(8)
        assert kernel("LFK8") is kernel(8)

    def test_unknown_kernel(self):
        with pytest.raises(WorkloadError):
            kernel("lfk5")
        with pytest.raises(WorkloadError):
            kernel(99)

    def test_names(self):
        assert "lfk1" in kernel_names()


@pytest.mark.parametrize(
    "spec", CASE_STUDY_KERNELS, ids=lambda s: s.name
)
class TestFunctionalCorrectness:
    def test_outputs_match_reference(self, spec, kernel_runs):
        kernel_runs[spec.name].verify()  # raises on mismatch

    def test_vectorized(self, spec, compiled_kernels):
        compiled = compiled_kernels[spec.name]
        assert compiled.vectorized_loops, (
            f"{spec.name} failed to vectorize: "
            f"{[p.reason for p in compiled.loops]}"
        )

    def test_flop_accounting(self, spec, kernel_runs):
        result = kernel_runs[spec.name].result
        # Reduction kernels execute a few extra fp ops outside the
        # source accounting (the final sum.d over a full register).
        assert spec.total_flops <= result.flops <= spec.total_flops + 256

    def test_cpl_cpf_consistent(self, spec, kernel_runs):
        run = kernel_runs[spec.name]
        assert run.cpf() == pytest.approx(
            run.cpl() / spec.flops_per_iteration
        )


class TestSpecificBehaviours:
    def test_lfk2_pass_structure(self, kernel_runs):
        """The halving loop executes 6 vector-loop entries."""
        run = kernel_runs["lfk2"]
        # 97 inner iterations over passes of 50,25,12,6,3,1.
        assert run.spec.inner_iterations == 97

    def test_lfk3_reduction_value(self, kernel_runs):
        run = kernel_runs["lfk3"]
        assert isinstance(run.outputs["Q"], float)
        assert run.outputs["Q"] != 0.0

    def test_lfk6_triangular_iterations(self):
        spec = kernel("lfk6")
        assert spec.inner_iterations == sum(range(1, 64))

    def test_lfk8_scalar_constant_spills(self, compiled_kernels):
        """Eleven FP constants overflow the s-file: in-loop reloads."""
        compiled = compiled_kernels["lfk8"]
        start, end = compiled.program.innermost_loop()
        body = compiled.program.loop_slice((start, end))
        scalar_loads = [i for i in body if i.is_scalar_memory]
        assert len(scalar_loads) >= 3

    def test_lfk9_no_scalar_spills(self, compiled_kernels):
        """Eight constants just fit: no in-loop scalar loads."""
        compiled = compiled_kernels["lfk9"]
        start, end = compiled.program.innermost_loop()
        body = compiled.program.loop_slice((start, end))
        assert not any(i.is_scalar_memory for i in body)

    def test_lfk10_register_pressure_no_spills(self, compiled_kernels):
        plan = compiled_kernels["lfk10"].innermost_vector_plan()
        assert plan.allocation.spill_slots_used == 0

    def test_lfk2_stride_two_loads(self, compiled_kernels):
        plan = compiled_kernels["lfk2"].innermost_vector_plan()
        strides = {
            s.stride_words for s in plan.ir.streams if not s.is_store
        }
        assert strides == {2}

    def test_lfk6_negative_stride_load(self, compiled_kernels):
        plan = compiled_kernels["lfk6"].innermost_vector_plan()
        strides = {s.stride_words for s in plan.ir.streams}
        assert -1 in strides

    def test_make_data_unknown_array_rejected(self):
        with pytest.raises(WorkloadError):
            kernel("lfk1").make_data({"Y": 10})


class TestRunnerEdgeCases:
    def test_reuse_compiled(self, compiled_kernels):
        run = run_kernel("lfk12", compiled=compiled_kernels["lfk12"])
        assert run.cycles > 0

    def test_verify_rejected_for_inexact_compilation(self):
        from repro.compiler import DEFAULT_OPTIONS

        run = run_kernel(
            "lfk1",
            options=DEFAULT_OPTIONS.replace(reuse_shifted_loads=True),
        )
        with pytest.raises(WorkloadError):
            run.verify()

    def test_cycles_per_vector_iteration(self, kernel_runs):
        run = kernel_runs["lfk1"]
        metrics = run_metrics(run.spec, run.result, DEFAULT_CONFIG)
        assert metrics["cycles_per_vector_iteration"] == pytest.approx(
            run.cpl() * 128
        )
