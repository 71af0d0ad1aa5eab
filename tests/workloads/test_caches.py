"""Cache lifecycle regressions.

``clear_caches()`` must wipe every registered memo *and* the sweep
telemetry collector, and forked sweep workers must start cold — a
child inheriting the parent's run cache would report ``cached``
statuses for cells it never simulated, and an inherited telemetry
collector would write to the parent's trace file descriptor.
"""

import os

from repro import memo
from repro.analysis import lint_program
from repro.machines import builtin_machine
from repro.model import measure_ax, predict_kernel
from repro.sweep import telemetry
from repro.workloads import clear_caches, compile_spec, run_kernel, workload

#: Every process-global memo the package defines; the registry must
#: reach each one once its module is loaded.
ALL_MEMOS = {
    "analysis.program",
    "machine.decode",
    "machines.builtin",
    "model.ax",
    "model.static",
    "workloads.compile",
    "workloads.run",
}


def memo_sizes():
    return {m.name: len(m) for m in memo.registered()}


def warm_caches():
    spec = workload("lfk12")
    run_kernel(spec)
    predict_kernel("lfk1")  # the service's ``advise`` path
    measure_ax(spec, compile_spec(spec))
    lint_program(compile_spec(spec).program)
    builtin_machine("c210")
    sizes = memo_sizes()
    assert ALL_MEMOS <= set(sizes)
    assert all(sizes[name] > 0 for name in ALL_MEMOS), sizes


class TestClearCaches:
    def test_clears_compile_and_run_caches(self):
        warm_caches()
        clear_caches()
        assert not any(memo_sizes().values()), memo_sizes()

    def test_clears_every_registered_memo(self):
        warm_caches()
        clear_caches()
        for m in memo.registered():
            assert len(m) == 0, m.name
            assert m.hits == m.misses == 0, m.name

    def test_deactivates_leftover_telemetry_collector(self):
        collector = telemetry.Telemetry()
        telemetry.activate(collector)
        assert telemetry.current() is collector
        clear_caches()
        assert telemetry.current() is None

    def test_clears_the_service_result_cache_too(self):
        from repro.service.cache import ResultCache

        cache = ResultCache(max_entries=4)
        cache.put("key", "bound", {"v": 1})
        warm_caches()
        clear_caches()
        assert len(cache) == 0
        assert not any(memo_sizes().values())

    def test_reset_does_not_close_inherited_trace_handle(self, tmp_path):
        # reset() must detach the durable log's handle without closing
        # it: after a fork the child shares the parent's file
        # descriptor, and closing it would corrupt the parent's trace.
        trace = tmp_path / "trace.jsonl"
        collector = telemetry.Telemetry(trace_path=str(trace))
        telemetry.activate(collector)
        collector.emit("probe")  # the append handle opens lazily
        handle = collector._trace_log._handle
        assert handle is not None
        clear_caches()
        assert collector._trace_log is None
        assert not handle.closed
        handle.close()


class TestForkIsolation:
    def test_forked_child_starts_with_cold_caches(self):
        warm_caches()
        warm = memo_sizes()
        pid = os.fork()
        if pid == 0:
            # Child: the at-fork hook must have cleared everything the
            # parent warmed.  Exit codes communicate the verdict.
            status = (
                0
                if not any(memo_sizes().values())
                and telemetry.current() is None
                else 1
            )
            os._exit(status)
        _, wait_status = os.waitpid(pid, 0)
        assert os.WIFEXITED(wait_status)
        assert os.WEXITSTATUS(wait_status) == 0
        # ... and the parent's caches are untouched by the fork.
        assert memo_sizes() == warm

    def test_forked_child_inherits_no_active_collector(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        collector = telemetry.Telemetry(trace_path=str(trace))
        telemetry.activate(collector)
        try:
            pid = os.fork()
            if pid == 0:
                os._exit(0 if telemetry.current() is None else 1)
            _, wait_status = os.waitpid(pid, 0)
            assert os.WEXITSTATUS(wait_status) == 0
            # The parent's collector survives the fork and can still
            # write to its trace handle.
            assert telemetry.current() is collector
            collector.emit("probe")
        finally:
            telemetry.deactivate()
        assert "probe" in trace.read_text()
