"""The static serving tier: memoization, payloads, cache hygiene."""

import pytest

from repro.machine import DEFAULT_CONFIG
from repro.model import known_initial_memory, predict_kernel
from repro.model.statictier import _STATIC_CACHE
from repro.workloads import clear_caches, compile_spec, workload


@pytest.fixture(autouse=True)
def fresh_memo():
    _STATIC_CACHE.clear()
    yield
    _STATIC_CACHE.clear()


class TestMemoization:
    def test_repeat_is_a_cache_hit(self):
        first = predict_kernel("lfk1")
        assert len(_STATIC_CACHE) == 1
        second = predict_kernel("lfk1")
        assert second is first

    def test_distinct_configs_are_distinct_entries(self):
        predict_kernel("lfk1")
        predict_kernel("lfk1", config=DEFAULT_CONFIG.without_fastpath())
        assert len(_STATIC_CACHE) == 2

    def test_clear_caches_resets_the_memo(self):
        predict_kernel("lfk1")
        assert len(_STATIC_CACHE) == 1
        clear_caches()
        assert len(_STATIC_CACHE) == 0

    def test_number_and_name_resolve_alike(self):
        by_number = predict_kernel(1)
        by_name = predict_kernel("lfk1")
        assert by_number is by_name


class TestPayload:
    def test_vector_kernel_payload_schema(self):
        payload = predict_kernel("lfk3").to_payload()
        assert payload["kernel"] == "lfk3"
        assert payload["tier"] == "exact"
        assert payload["exact"] is True
        assert payload["cycles_low"] <= payload["cycles"]
        assert payload["cycles"] <= payload["cycles_high"]
        assert payload["cpl_low"] <= payload["cpl"] <= payload["cpl_high"]
        macs = payload["macs"]
        assert macs["ma_cpl"] <= macs["mac_cpl"] <= macs["macs_cpl"]
        assert macs["t_p_cpl"] == pytest.approx(payload["cpl"])
        assert payload["advice"], "vector kernels get ranked advice"
        assert "MACS hierarchy" in payload["report"]

    def test_scalar_kernel_payload_has_no_macs(self):
        payload = predict_kernel("lfk5").to_payload()
        assert payload["macs"] is None
        assert payload["advice"] == []
        assert "scalar kernel" in payload["report"]
        assert payload["tier"] == "exact"

    def test_metrics_match_the_run_schema(self):
        metrics = predict_kernel("lfk1").metrics()
        for name in (
            "cycles", "instructions", "vector_instructions",
            "scalar_instructions", "vector_memory_ops",
            "scalar_memory_ops", "flops", "cpl", "cpf",
            "cycles_per_vector_iteration", "mflops",
        ):
            assert name in metrics
        assert metrics["mflops"] > 0

    def test_problem_size_changes_the_answer(self):
        base = predict_kernel("lfk1")
        sized = predict_kernel("lfk1", n=64)
        assert sized.cycles != base.cycles


class TestKnownMemory:
    def test_covers_scalar_inputs_and_literals(self):
        spec = workload("lfk1")
        compiled = compile_spec(spec)
        known = known_initial_memory(spec, compiled)
        for name in spec.scalar_inputs:
            word = compiled.scalar_word_offset(name)
            assert known[word] == pytest.approx(
                float(spec.scalar_inputs[name])
            )
        # Unwritten scalar-region words are zeros, as in the machine.
        assert 0.0 in known.values()
