"""Tests for DFCCL's SQ/CQ variants, context management and configuration."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import QueueEmptyError, QueueFullError
from repro.core import DfcclConfig
from repro.core.context import (
    ActiveContextCache,
    CollectiveContextBuffer,
    StaticContext,
    memory_overhead_report,
)
from repro.core.queues import (
    Cqe,
    OptimizedCasCQ,
    OptimizedRingCQ,
    Sqe,
    SubmissionQueue,
    VanillaRingCQ,
    make_completion_queue,
)

CONFIG = DfcclConfig()


class TestDfcclConfig:
    def test_defaults_validate(self):
        assert DfcclConfig().validate()

    @pytest.mark.parametrize("field,value", [
        ("cq_variant", "bogus"), ("ordering", "bogus"), ("spin_policy", "bogus"),
        ("initial_spin_threshold", 0), ("spin_position_decay", 0.0),
        ("spin_success_boost", 0.5),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            DfcclConfig(**{field: value}).validate()

    def test_with_overrides(self):
        config = DfcclConfig().with_overrides(chunk_bytes=1024)
        assert config.chunk_bytes == 1024
        assert DfcclConfig().chunk_bytes != 1024


class TestSubmissionQueue:
    def test_fifo_per_consumer(self):
        sq = SubmissionQueue(capacity=8)
        sq.register_consumer("c")
        sq.push(Sqe(coll_id=1, invocation_id=0))
        sq.push(Sqe(coll_id=2, invocation_id=0))
        assert sq.pop("c").coll_id == 1
        assert sq.pop("c").coll_id == 2

    def test_pop_empty_raises(self):
        sq = SubmissionQueue(capacity=4)
        sq.register_consumer("c")
        with pytest.raises(QueueEmptyError):
            sq.pop("c")

    def test_full_queue_rejects_push(self):
        sq = SubmissionQueue(capacity=2)
        sq.register_consumer("c")
        sq.push(Sqe(coll_id=1, invocation_id=0))
        sq.push(Sqe(coll_id=2, invocation_id=0))
        with pytest.raises(QueueFullError):
            sq.push(Sqe(coll_id=3, invocation_id=0))

    def test_slot_recycled_after_all_consumers_read(self):
        sq = SubmissionQueue(capacity=1, num_consumers=2)
        sq.register_consumer("a")
        sq.register_consumer("b")
        sq.push(Sqe(coll_id=1, invocation_id=0))
        assert not sq.writable()
        sq.pop("a")
        assert not sq.writable()
        sq.pop("b")
        assert sq.writable()

    def test_pending_counts(self):
        sq = SubmissionQueue(capacity=8)
        sq.register_consumer("c")
        sq.push(Sqe(coll_id=1, invocation_id=0))
        sq.push(Sqe(coll_id=2, invocation_id=0))
        assert sq.pending("c") == 2
        sq.pop("c")
        assert sq.pending("c") == 1

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_consumer_sees_exactly_the_pushed_sequence(self, ids):
        sq = SubmissionQueue(capacity=128)
        sq.register_consumer("c")
        for coll_id in ids:
            sq.push(Sqe(coll_id=coll_id, invocation_id=0))
        popped = [sq.pop("c").coll_id for _ in ids]
        assert popped == ids


class TestCompletionQueues:
    @pytest.mark.parametrize("variant", ["vanilla", "optimized-ring", "optimized-cas"])
    def test_push_pop_roundtrip(self, variant):
        cq = make_completion_queue(variant, capacity=16)
        for index in range(10):
            cq.push(Cqe(coll_id=index, invocation_id=0))
        popped = {cq.pop().coll_id for _ in range(10)}
        assert popped == set(range(10))

    @pytest.mark.parametrize("variant", ["vanilla", "optimized-ring", "optimized-cas"])
    def test_full_and_empty_conditions(self, variant):
        cq = make_completion_queue(variant, capacity=2)
        cq.push(Cqe(1, 0))
        cq.push(Cqe(2, 0))
        with pytest.raises(QueueFullError):
            cq.push(Cqe(3, 0))
        cq.pop()
        cq.pop()
        with pytest.raises(QueueEmptyError):
            cq.pop()

    def test_write_costs_ordered_as_in_fig7c(self):
        vanilla = VanillaRingCQ().write_cost_us(CONFIG)
        optimized_ring = OptimizedRingCQ().write_cost_us(CONFIG)
        cas = OptimizedCasCQ().write_cost_us(CONFIG)
        assert vanilla > optimized_ring > cas
        assert cas == pytest.approx(2.0, abs=0.5)
        assert vanilla == pytest.approx(6.9, abs=0.5)
        assert optimized_ring == pytest.approx(4.8, abs=0.5)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            make_completion_queue("bogus")

    @given(st.lists(st.integers(0, 999), min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_cas_cq_never_loses_or_duplicates(self, ids):
        cq = OptimizedCasCQ(capacity=128)
        for coll_id in ids:
            cq.push(Cqe(coll_id, 0))
        drained = sorted(cq.pop().coll_id for _ in ids)
        assert drained == sorted(ids)


class TestContextManagement:
    def _static(self, coll_id):
        return StaticContext(coll_id, "all_reduce", 8, 0, 4096, 14)

    def test_context_buffer_register_unregister(self):
        buffer = CollectiveContextBuffer(CONFIG)
        buffer.register(0, self._static(0))
        assert 0 in buffer and len(buffer) == 1
        assert buffer.allocated_bytes == CONFIG.context_bytes_per_collective
        buffer.unregister(0)
        assert 0 not in buffer and buffer.allocated_bytes == 0

    def test_cache_hit_is_free(self):
        buffer = CollectiveContextBuffer(CONFIG)
        buffer.register(0, self._static(0))
        cache = ActiveContextCache(CONFIG, buffer)
        slot, first = cache.load(0)
        same_slot, second = cache.load(0)
        assert same_slot is slot and slot.coll_id == 0
        assert first > 0.0
        assert second == 0.0
        assert cache.stats.cache_hits == 1

    def test_direct_mapped_eviction_saves_dirty_context(self):
        buffer = CollectiveContextBuffer(CONFIG)
        slots = CONFIG.active_context_slots
        conflicting = slots  # maps to the same slot as coll 0
        buffer.register(0, self._static(0))
        buffer.register(conflicting, self._static(conflicting))
        cache = ActiveContextCache(CONFIG, buffer)
        slot, _ = cache.load(0)
        slot.dirty = True  # the collective progressed
        cache.load(conflicting)
        assert cache.stats.saves == 1

    def test_lazy_save_skips_unprogressed(self):
        buffer = CollectiveContextBuffer(CONFIG)
        buffer.register(0, self._static(0))
        cache = ActiveContextCache(CONFIG, buffer)
        cache.load(0)
        assert cache.save_on_preempt(0, progressed=False) == 0.0
        assert cache.stats.lazy_save_skips == 1
        assert cache.save_on_preempt(0, progressed=True) > 0.0

    def test_memory_overheads_match_sec62(self):
        """Sec. 6.2: ~13KB shared + ~4MB global per block for 1,000 collectives."""
        report = memory_overhead_report(CONFIG, num_collectives=1000)
        assert report["shared_bytes_per_block"] == pytest.approx(13 << 10, rel=0.05)
        assert report["global_bytes_per_block"] == pytest.approx(4 << 20, rel=0.05)
        assert report["global_bytes_shared"] == pytest.approx(11 << 10, rel=0.05)
