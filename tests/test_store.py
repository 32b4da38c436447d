"""Tests for the payload-agnostic parts of :class:`repro.store.ContentStore`.

The target and program codecs are covered with their callers
(``test_fleet.py``, ``test_service.py``, ``test_programcache.py``); these
tests use a toy codec to pin what the store itself guarantees.
"""

import json
import sys
import threading

from repro.store import Codec, ContentStore

#: A toy payload kind: lists of ints, copied on read.
CODEC = Codec(7, lambda items: {"items": items}, lambda doc: list(doc["items"]), list)
ECHO = {"owner": "test"}


class TestToyCodec:
    def test_any_codec_round_trips_through_disk(self, tmp_path):
        ContentStore(CODEC, 2, tmp_path).put("k-1", [1, 2], ECHO)
        [entry] = ContentStore(CODEC, 2, tmp_path).entries()
        assert json.loads(entry.read_text()) == {
            "format_version": 7,
            "owner": "test",
            "items": [1, 2],
        }
        assert ContentStore(CODEC, 2, tmp_path).get("k-1", ECHO) == ([1, 2], "disk")

    def test_decode_errors_are_misses(self, tmp_path):
        store = ContentStore(CODEC, 2, tmp_path)
        store.path_for("k-1").write_text(
            json.dumps({"format_version": 7, "owner": "test"})  # no payload
        )
        built, source = store.get_or_build("k-1", ECHO, lambda: [3])
        assert (built, source) == ([3], "built")
        assert ContentStore(CODEC, 2, tmp_path).get("k-1", ECHO) == ([3], "disk")

    def test_memory_only_get_or_build(self):
        store = ContentStore(CODEC, 1)
        calls = []

        def build():
            calls.append(1)
            return [len(calls)]

        assert store.get_or_build("k-1", ECHO, build) == ([1], "built")
        assert store.get_or_build("k-1", ECHO, build) == ([1], "memory")
        store.get_or_build("k-2", ECHO, build)  # evicts k-1
        assert store.get_or_build("k-1", ECHO, build) == ([3], "built")
        assert store.stats.as_dict() == {
            "memory_hits": 1,
            "disk_hits": 0,
            "misses": 3,
            "invalidated": 0,
            "hit_rate": 0.25,
        }


def test_concurrent_lookups_lose_no_counts():
    """Threads hammering one small LRU: every lookup lands in exactly one
    counter and the capacity bound holds (a lost update breaks both)."""
    store = ContentStore(CODEC, 4)
    threads, per_thread, failures = 8, 400, []

    def worker(offset: int) -> None:
        try:
            for index in range(per_thread):
                key = f"fp{(offset + index) % 3}-{index % 6}"
                if store.get(key, ECHO)[0] is None:
                    store.put(key, [index], ECHO)
                if index % 50 == 0:
                    store.invalidate_prefix(f"fp{offset % 3}-")
        except Exception as error:  # noqa: BLE001 - surfaced via assert
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker, args=(n,)) for n in range(threads)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in workers)
    assert failures == []
    assert store.stats.lookups == threads * per_thread
    assert len(store) <= store.capacity
