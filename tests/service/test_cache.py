"""Result-cache tests: LRU bounds, durability, degradation, hygiene."""

import os

import pytest

from repro.errors import ExperimentError
from repro.resilience import faults
from repro import memo
from repro.service.cache import ResultCache
from repro.workloads import clear_caches


class TestLRU:
    def test_get_put_and_stats(self):
        cache = ResultCache(max_entries=4)
        assert cache.get("k1") is None
        cache.put("k1", "bound", {"v": 1})
        assert cache.get("k1") == {"v": 1}
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert not stats["durable"]

    def test_eviction_is_least_recently_used(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", "bound", {"v": 1})
        cache.put("b", "bound", {"v": 2})
        assert cache.get("a") is not None  # refresh 'a'
        cache.put("c", "bound", {"v": 3})  # evicts 'b'
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None

    def test_put_overwrites_in_place(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", "bound", {"v": 1})
        cache.put("a", "bound", {"v": 2})
        assert len(cache) == 1
        assert cache.get("a") == {"v": 2}

    def test_bad_bound_rejected(self):
        with pytest.raises(ExperimentError):
            ResultCache(max_entries=0)


class TestDurability:
    def test_restart_recovers_entries(self, tmp_path):
        path = str(tmp_path / "cache.log")
        first = ResultCache(max_entries=8, path=path)
        first.put("k1", "bound", {"v": 1})
        first.put("k2", "mac", {"v": 2})
        first.close()

        warm = ResultCache(max_entries=8, path=path)
        assert warm.get("k1") == {"v": 1}
        assert warm.get("k2") == {"v": 2}
        warm.close()

    def test_restart_honors_entry_bound(self, tmp_path):
        path = str(tmp_path / "cache.log")
        first = ResultCache(max_entries=8, path=path)
        for i in range(6):
            first.put(f"k{i}", "bound", {"v": i})
        first.close()

        small = ResultCache(max_entries=2, path=path)
        assert len(small) == 2
        # The newest records win.
        assert small.get("k5") is not None
        assert small.get("k0") is None
        small.close()

    def test_torn_tail_does_not_poison_recovery(self, tmp_path):
        path = str(tmp_path / "cache.log")
        first = ResultCache(max_entries=8, path=path)
        first.put("good", "bound", {"v": 1})
        first.close()
        with open(path, "ab") as handle:
            handle.write(b'{"torn": ')  # crash mid-append

        recovered = ResultCache(max_entries=8, path=path)
        assert recovered.get("good") == {"v": 1}
        assert recovered.last_recovery is not None
        recovered.close()

    def test_write_fault_degrades_to_memory_only(self, tmp_path):
        path = str(tmp_path / "cache.log")
        plan = faults.FaultPlan.from_dict(
            {"faults": [
                {"site": "service.cache_write", "kind": "io-error"},
            ]}
        )
        cache = ResultCache(max_entries=8, path=path)
        with faults.chaos(plan):
            cache.put("k1", "bound", {"v": 1})
        # The request still succeeded in RAM...
        assert cache.get("k1") == {"v": 1}
        stats = cache.stats()
        assert stats["degraded"] is not None
        assert not stats["durable"]
        # ...and later puts don't resurrect the log.
        cache.put("k2", "bound", {"v": 2})
        cold = ResultCache(max_entries=8, path=path)
        assert cold.get("k1") is None
        cold.close()
        cache.close()


class TestProcessHygiene:
    def test_clear_caches_clears_service_caches(self):
        cache = ResultCache(max_entries=4)
        cache.put("k1", "bound", {"v": 1})
        clear_caches()  # the workloads-level entry point
        assert len(cache) == 0
        assert cache.stats()["hits"] == 0

    def test_memo_clear_all_reaches_the_cache(self):
        cache = ResultCache(max_entries=4)
        cache.put("k1", "bound", {"v": 1})
        memo.clear_all()
        assert cache.get("k1") is None

    def test_forked_child_starts_cold_and_detached(self, tmp_path):
        path = str(tmp_path / "cache.log")
        cache = ResultCache(max_entries=4, path=path)
        cache.put("k1", "bound", {"v": 1})
        pid = os.fork()
        if pid == 0:
            # Child: entries dropped, durable handle detached (not
            # closed — the parent still owns the descriptor).
            status = 0 if len(cache) == 0 and cache._log is None \
                else 1
            os._exit(status)
        _, wait_status = os.waitpid(pid, 0)
        assert os.WIFEXITED(wait_status)
        assert os.WEXITSTATUS(wait_status) == 0
        # Parent state untouched: entry present, log still writable.
        assert cache.get("k1") == {"v": 1}
        cache.put("k2", "bound", {"v": 2})
        assert cache.stats()["durable"]
        cache.close()
