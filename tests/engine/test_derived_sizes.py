"""Partition sizes derived from byte counts already held.

Cogroup outputs and aggregator-free shuffle reads report their size from
their parents' memoized or cached serialized counts and the map-output
sizes instead of walking every record; whatever the derivation cannot
prove exact is walked.  Cached blocks, migrated copies and lineage-prefix
hits carry the serialized count, and checkpoint writes reuse it.
"""

import pytest

from repro import StarkConfig, StarkContext
from repro.cluster.cost_model import SimStr
from repro.engine.block_manager import Block
from repro.engine.compute import EvalContext
from repro.engine.metrics import TaskMetrics
from repro.engine.partitioner import HashPartitioner


@pytest.fixture
def declared(monkeypatch):
    """``(rdd_id, pid) -> bool``: whether the operator that built the
    partition derived its size (``False``: left to the walk)."""
    seen = {}
    original = EvalContext.declare_sizes

    def spy(self, rdd, pid, sizes):
        seen[(rdd.rdd_id, pid)] = sizes is not None
        original(self, rdd, pid, sizes)

    monkeypatch.setattr(EvalContext, "declare_sizes", spy)
    return seen


def small_context(num_workers=2, **config):
    return StarkContext(num_workers=num_workers, cores_per_worker=2,
                        memory_per_worker=1e9,
                        config=StarkConfig(**config))


def walked_sizes(sc, rdd):
    """``RecordSizer.sizes`` of every partition of ``rdd``."""
    return sc.run_job(rdd, sc.sizer.sizes)


def assert_stats_match_the_walk(sc, rdd):
    walked = walked_sizes(sc, rdd)
    assert sc.rdd_stats(rdd.rdd_id).size_bytes == sum(s for s, _ in walked)
    return walked


class TestDerivedPaths:
    def test_cogroup_of_cached_and_shuffled_parents(self, declared):
        sc = small_context()
        part = HashPartitioner(4)
        words = sc.parallelize([(i % 7, f"v{i}") for i in range(60)], 4) \
            .partition_by(part).cache()
        sized = sc.parallelize(
            [(f"k{i % 5}", SimStr("x", 100 + i)) for i in range(30)], 3) \
            .partition_by(part).cache()
        words.count()
        sized.count()
        loose = sc.parallelize([(i % 3, [i, "n"]) for i in range(20)], 2)
        grouped = words.cogroup(sized, loose).cache()

        walked = assert_stats_match_the_walk(sc, grouped)
        # The partition_by reads and the cogroup all derived.
        for rdd in (words, sized, grouped):
            assert all(declared[(rdd.rdd_id, pid)] for pid in range(4))
        master = sc.block_manager_master
        for pid, (serialized, heap) in enumerate(walked):
            block = master.stores[min(master.locations(
                (grouped.rdd_id, pid)))].peek((grouped.rdd_id, pid))
            assert (block.serialized_bytes, block.size_bytes) \
                == (serialized, heap)

    def test_join_is_a_derived_cogroup(self, declared):
        sc = small_context()
        left = sc.parallelize([(i % 4, float(i)) for i in range(16)], 2)
        right = sc.parallelize([(i % 4, b"r") for i in range(8)], 2)
        joined = left.join(right)
        assert sorted(joined.collect())[:2] == [(0, (0.0, b"r"))] * 2
        # Both shuffle-read inputs of every cogroup partition were known.
        assert declared and all(declared.values())


class TestFallbacks:
    def test_equal_keys_of_different_sizes_are_walked(self, declared):
        sc = small_context()
        part = HashPartitioner(2)
        plain = sc.parallelize([("a", 1), ("b", 2)], 1).partition_by(part)
        sized = sc.parallelize([(SimStr("a", 999), 3)], 1).partition_by(part)
        grouped = plain.cogroup(sized)
        assert_stats_match_the_walk(sc, grouped)
        assert declared[(grouped.rdd_id, part.get_partition("a"))] is False

    def test_tuple_keys_and_namedtuple_records_are_walked(self, declared):
        from collections import namedtuple

        Pair = namedtuple("Pair", ["key", "value"])
        sc = small_context()
        part = HashPartitioner(2)
        tupled = sc.parallelize([((i, "t"), i) for i in range(6)], 2) \
            .partition_by(part)
        named = sc.parallelize([Pair(i, "v") for i in range(6)], 2) \
            .partition_by(part)
        for rdd in (tupled.cogroup(tupled), named.cogroup(named)):
            assert_stats_match_the_walk(sc, rdd)
            assert not any(declared[(rdd.rdd_id, pid)] for pid in range(2))
        # A shuffle read of namedtuples may not assume the heap rule.
        assert not any(declared[(named.rdd_id, pid)] for pid in range(2))

    def test_records_declaring_their_heap_are_walked(self, declared):
        class HeapPair(tuple):
            sim_memory_size = 100

        sc = small_context()
        moved = sc.parallelize([HeapPair((i, "v")) for i in range(6)], 2) \
            .partition_by(HashPartitioner(2)).cache()
        walked = assert_stats_match_the_walk(sc, moved)
        assert not any(declared[(moved.rdd_id, pid)] for pid in range(2))
        assert sum(heap for _, heap in walked) == \
            sc.block_manager_master.total_cached_bytes()

    def test_block_without_a_serialized_count_is_walked(self, declared):
        sc = small_context(num_workers=1)
        part = HashPartitioner(2)
        cached = sc.parallelize([(i, "v") for i in range(10)], 2) \
            .partition_by(part).cache()
        cached.count()
        master = sc.block_manager_master
        for pid in range(2):
            key = (cached.rdd_id, pid)
            block = master.stores[0].peek(key)
            master.put(0, Block(key, block.records, block.size_bytes))
        other = sc.parallelize([(i, 1) for i in range(4)], 1) \
            .partition_by(part)
        grouped = cached.cogroup(other)
        assert_stats_match_the_walk(sc, grouped)
        assert not any(declared[(grouped.rdd_id, pid)] for pid in range(2))


class TestCountsTravelWithBlocks:
    def test_cached_and_migrated_blocks_keep_the_count(self):
        sc = small_context()
        data = sc.parallelize([(i, f"v{i}") for i in range(12)], 2).cache()
        data.count()
        master = sc.block_manager_master
        key = (data.rdd_id, 0)
        src = min(master.locations(key))
        block = master.stores[src].peek(key)
        assert block.serialized_bytes == sc.sizer.sizes(block.records)[0]
        dst = 1 - src
        assert master.migrate_block(key, src, dst)
        assert master.stores[dst].peek(key).serialized_bytes \
            == block.serialized_bytes

    def test_lineage_prefix_hit_keeps_the_count(self):
        sc = small_context(cache_broker=True)

        def pipeline():
            return sc.generated(lambda pid: [(pid, i) for i in range(8)], 2,
                                read_cost="none", name="scan") \
                .map(lambda kv: (kv[0], kv[1] + 1)).cache()

        expected = pipeline().collect()
        second = pipeline()
        assert second.collect() == expected
        hits = sc.cache_broker.prefix_hits
        assert hits >= 2
        ctx = EvalContext(sc, 0, TaskMetrics())
        records = ctx.evaluate(second, 0)
        assert sc.cache_broker.prefix_hits == hits + 1
        assert ctx.serialized_bytes(second, 0) == sc.sizer.sizes(records)[0]

    def test_checkpoint_bytes_match_the_walk(self):
        sc = small_context()
        part = HashPartitioner(3)
        left = sc.parallelize([(i % 5, f"v{i}") for i in range(30)], 3) \
            .partition_by(part).cache()
        left.count()
        right = sc.parallelize([(i % 5, i) for i in range(10)], 2)
        grouped = left.cogroup(right)
        walked = walked_sizes(sc, grouped)
        assert sc.checkpoint_rdd(grouped) == sum(s for s, _ in walked)
        # A cached block without a count: the write walks the records.
        key = (left.rdd_id, 0)
        master = sc.block_manager_master
        wid = min(master.locations(key))
        block = master.stores[wid].peek(key)
        master.put(wid, Block(key, block.records, block.size_bytes))
        assert sc.checkpoint_rdd(left) == sum(
            s for s, _ in walked_sizes(sc, left))
