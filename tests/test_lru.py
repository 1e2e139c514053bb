"""Unit tests for the bounded LRU behind the pipeline's warm caches."""

import threading

import pytest

from repro.lru import Lru


class TestLru:
    def test_eviction_order_and_reported_values(self):
        lru: Lru[str, int] = Lru(2)
        assert lru.put("a", 1) == []
        assert lru.put("b", 2) == []
        # A hit makes "a" the most recently used, so "b" goes first.
        assert lru.get("a") == 1
        assert lru.put("c", 3) == [2]
        assert lru.keys() == ["a", "c"]
        assert lru.get("b") is None
        assert len(lru) == 2

    def test_put_of_an_existing_key_refreshes_without_evicting(self):
        lru: Lru[str, int] = Lru(2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.put("a", 10) == []
        assert lru.keys() == ["b", "a"]
        assert lru.get("a") == 10
        assert lru.put("c", 3) == [2]

    def test_a_miss_changes_no_order(self):
        lru: Lru[str, int] = Lru(2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("z") is None
        assert lru.keys() == ["a", "b"]

    def test_clear(self):
        lru: Lru[str, int] = Lru(3)
        lru.put("a", 1)
        lru.clear()
        assert len(lru) == 0 and lru.keys() == []

    def test_bound_is_validated(self):
        with pytest.raises(ValueError):
            Lru(0)

    def test_concurrent_puts_hold_the_bound(self):
        lru: Lru[int, int] = Lru(8)
        evicted: list[int] = []

        def writer(offset):
            for key in range(offset, offset + 200):
                evicted.extend(lru.put(key, key))

        threads = [threading.Thread(target=writer, args=(n * 1000,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(lru) == 8
        assert len(evicted) == 4 * 200 - 8
        assert sorted(evicted + lru.keys()) == sorted(
            key for n in range(4) for key in range(n * 1000, n * 1000 + 200)
        )
