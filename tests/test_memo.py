"""The memo primitive: LRU order, counters, and the registry."""

from repro import memo
from repro.memo import Memo


class TestLru:
    def test_evicts_least_recent_at_the_cap(self):
        m = Memo("test.lru", 3)
        for key in "abcd":
            m.put(key, key.upper())
        assert len(m) == 3
        assert "a" not in m
        assert [k for k in "bcd" if k in m] == ["b", "c", "d"]

    def test_get_moves_an_entry_to_most_recent(self):
        m = Memo("test.touch", 3)
        for key in "abc":
            m.put(key, key)
        assert m.get("a") == "a"
        m.put("d", "d")
        assert "a" in m
        assert "b" not in m

    def test_put_refreshes_an_existing_key(self):
        m = Memo("test.refresh", 2)
        m.put("a", 1)
        m.put("b", 2)
        m.put("a", 3)
        m.put("c", 4)
        assert m.get("a") == 3
        assert "b" not in m

    def test_contains_and_len_do_not_touch_order_or_counts(self):
        m = Memo("test.peek", 2)
        m.put("a", 1)
        m.put("b", 2)
        assert "a" in m and len(m) == 2
        m.put("c", 3)
        assert "a" not in m
        assert m.hits == m.misses == 0


class TestCounters:
    def test_hits_and_misses(self):
        m = Memo("test.counts", 4)
        assert m.get("a") is None
        assert m.get("b") is None
        m.put("a", 1)
        assert m.get("a") == 1
        assert m.get("a") == 1
        assert (m.hits, m.misses) == (2, 2)

    def test_clear_resets_entries_and_counters(self):
        m = Memo("test.clear", 4)
        m.put("a", 1)
        m.get("a")
        m.get("b")
        m.clear()
        assert len(m) == 0
        assert (m.hits, m.misses) == (0, 0)


class TestRegistry:
    def test_clear_all_reaches_an_instance_created_after_import(self):
        m = Memo("test.late", 4)
        m.put("a", 1)
        assert m in memo.registered()
        memo.clear_all()
        assert len(m) == 0

    def test_a_dropped_memo_leaves_the_registry(self):
        import gc

        m = Memo("test.dropped", 4)
        name = m.name
        del m
        gc.collect()
        assert name not in {r.name for r in memo.registered()}
