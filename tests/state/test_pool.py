"""BlockPool refcounting, commit index, and pinned LRU eviction."""

from __future__ import annotations

import pytest

from repro.errors import CapacityError, ConfigError, StateError
from repro.state import BlockPool


def make_pool(capacity: int = 4) -> BlockPool:
    return BlockPool(
        n_layers=2,
        block_tokens=4,
        n_kv_heads=1,
        head_dim=2,
        hidden_width=4,
        capacity_blocks=capacity,
    )


def fill_block(pool: BlockPool, block_id: int, value: float) -> None:
    for layer in range(pool.n_layers):
        k, v = pool.kv_views(block_id, layer)
        k[:] = value
        v[:] = value + 0.5
        pool.hidden_view(block_id, layer)[:] = value + 0.25


def test_geometry_validation():
    with pytest.raises(ConfigError):
        BlockPool(0, 4, 1, 2, 4, 4)
    with pytest.raises(ConfigError):
        BlockPool(2, 4, 1, 2, 4, 0)


def test_allocate_ref_unref_lifecycle():
    pool = make_pool()
    block = pool.allocate()
    assert pool.refcount(block) == 1
    pool.ref(block)
    assert pool.refcount(block) == 2
    pool.unref(block)
    pool.unref(block)
    # Uncommitted block at refcount 0 is freed immediately.
    assert pool.refcount(block) == 0
    assert pool.free_blocks == pool.capacity_blocks
    with pytest.raises(StateError):
        pool.unref(block)
    with pytest.raises(StateError):
        pool.ref(block)  # dead and uncommitted: unreachable
    pool.debug_validate()


def test_allocation_zeroes_content():
    pool = make_pool(capacity=1)
    block = pool.allocate()
    fill_block(pool, block, 9.0)
    pool.unref(block)
    block = pool.allocate()
    for layer in range(pool.n_layers):
        k, v = pool.kv_views(block, layer)
        assert not k.any() and not v.any()
        assert not pool.hidden_view(block, layer).any()


def test_commit_and_lookup():
    pool = make_pool()
    block = pool.allocate()
    assert pool.lookup("k1") is None
    assert pool.stats.lookup_misses == 1
    pool.commit(block, "k1")
    assert pool.committed_key(block) == "k1"
    assert pool.lookup("k1") == block
    assert pool.stats.lookup_hits == 1
    with pytest.raises(StateError):
        pool.commit(block, "k2")  # a block carries one key
    other = pool.allocate()
    with pytest.raises(StateError):
        pool.commit(other, "k1")  # a key names one block
    with pytest.raises(ConfigError):
        pool.commit(other, "")
    pool.debug_validate()


def test_committed_block_survives_refcount_zero_and_can_be_adopted():
    pool = make_pool()
    block = pool.allocate()
    fill_block(pool, block, 1.0)
    pool.commit(block, "k1")
    pool.unref(block)
    # Parked as an eviction candidate, still resident and findable.
    assert pool.refcount(block) == 0
    assert pool.evictable_blocks() == (block,)
    assert pool.lookup("k1") == block
    assert pool.adopt_committed("k1") == block  # re-pins
    assert pool.refcount(block) == 1
    assert pool.evictable_blocks() == ()
    pool.debug_validate()


def test_ref_repins_committed_eviction_candidate():
    pool = make_pool()
    block = pool.allocate()
    pool.commit(block, "k1")
    pool.unref(block)
    pool.ref(block)
    assert pool.refcount(block) == 1
    assert pool.evictable_blocks() == ()
    pool.debug_validate()


def test_eviction_skips_pinned_blocks_and_takes_lru_first():
    pool = make_pool(capacity=4)
    blocks = [pool.allocate() for _ in range(4)]
    for i, block in enumerate(blocks):
        pool.commit(block, f"k{i}")
    # Pin 0 and 3 (live tables); park 1 then 2 as refcount-0 candidates.
    pool.unref(blocks[1])
    pool.unref(blocks[2])
    # Touch 1 so 2 becomes least recently used among the unpinned.
    pool.lookup("k1")
    assert pool.evictable_blocks() == (blocks[2], blocks[1])
    fresh = pool.allocate()
    # LRU refcount-0 tail evicted first: block 2, never pinned 0 or 3.
    assert fresh == blocks[2]
    assert pool.stats.evictions == 1
    assert pool.lookup("k2") is None  # key gone with the eviction
    assert pool.lookup("k0") == blocks[0]
    fresh2 = pool.allocate()
    assert fresh2 == blocks[1]
    pool.debug_validate()


def test_all_pinned_pool_raises_capacity_error():
    pool = make_pool(capacity=2)
    a = pool.allocate()
    b = pool.allocate()
    pool.commit(a, "ka")
    with pytest.raises(CapacityError):
        pool.allocate()
    # Unpinning the committed block makes it the victim.
    pool.unref(a)
    assert pool.allocate() == a
    assert b is not None
    pool.debug_validate()


def test_copy_block_duplicates_content_and_stays_private():
    pool = make_pool()
    src = pool.allocate()
    fill_block(pool, src, 2.0)
    pool.commit(src, "k1")
    dst = pool.copy_block(src)
    assert dst != src
    assert pool.blocks_equal(src, dst)
    assert pool.committed_key(dst) is None  # the copy is never published
    assert pool.refcount(dst) == 1
    # Diverging the copy leaves the source untouched.
    pool.hidden_view(dst, 0)[0, 0] = 99.0
    assert not pool.blocks_equal(src, dst)
    assert pool.hidden_view(src, 0)[0, 0] == 2.25
    pool.debug_validate()


def test_blocks_equal_is_bitwise_over_all_layers_and_kinds():
    pool = make_pool()
    a = pool.allocate()
    b = pool.allocate()
    fill_block(pool, a, 1.0)
    fill_block(pool, b, 1.0)
    assert pool.blocks_equal(a, b)
    k, _ = pool.kv_views(b, pool.n_layers - 1)
    k[-1, -1, -1] += 1e-7
    assert not pool.blocks_equal(a, b)


def test_accounting_properties():
    pool = make_pool(capacity=4)
    assert pool.free_blocks == 4
    a = pool.allocate()
    pool.commit(a, "ka")
    b = pool.allocate()
    assert pool.live_blocks == 2
    assert pool.resident_blocks == 2
    pool.unref(a)  # committed: stays resident
    pool.unref(b)  # private: freed
    assert pool.live_blocks == 0
    assert pool.resident_blocks == 1
    assert pool.block_nbytes() > 0
    pool.debug_validate()
