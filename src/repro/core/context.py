"""Collective context management (Sec. 4.2 and the Sec. 5 optimizations).

The *static context* of a collective holds its unchanging configuration (peer
set, buffer addresses, primitive-sequence composition); the *dynamic context*
holds the resume point (current chunk / aborted primitive).  Contexts of
preempted collectives live in the global-memory context buffer; the context of
the currently scheduled collective is cached in shared-memory *active context
slots* managed as a direct-mapped cache with lazy saving.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field


@dataclass
class StaticContext:
    """Constant configuration of a registered collective on one GPU."""

    coll_id: int
    kind: str
    group_size: int
    group_rank: int
    nbytes: int
    primitive_count: int
    send_buffer_addr: int = 0
    recv_buffer_addr: int = 0

    def nbytes_estimate(self):
        """Approximate serialized size (used only for memory accounting)."""
        return 64


@dataclass
class DynamicContext:
    """Mutable execution state saved on preemption and restored on resume."""

    position: int = 0
    chunk_id: int = 0
    aborted_primitive: int = -1
    progressed: bool = False

    def as_dict(self):
        return {"position": self.position}


@dataclass
class ContextStats:
    """Counters for the overhead analysis of Fig. 7 and Fig. 11."""

    loads: int = 0
    saves: int = 0
    lazy_save_skips: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    load_time_us: float = 0.0
    save_time_us: float = 0.0


class CollectiveContextBuffer:
    """Global-memory buffer holding one context record per registered collective."""

    def __init__(self, config, global_memory=None, block_index=0):
        self.config = config
        self.block_index = block_index
        self._records = {}
        self._global_memory = global_memory
        self._region_name = f"dfccl-ctx-buffer-block{block_index}"
        self._allocated = 0

    def register(self, coll_id, static_context):
        """Reserve a record for a collective and store its static context."""
        if coll_id in self._records:
            return self._records[coll_id]
        record = {
            "static": static_context,
            "dynamic": DynamicContext(),
        }
        self._records[coll_id] = record
        self._allocated += self.config.context_bytes_per_collective
        return record

    def unregister(self, coll_id):
        if coll_id in self._records:
            del self._records[coll_id]
            self._allocated -= self.config.context_bytes_per_collective

    def dynamic(self, coll_id):
        return self._records[coll_id]["dynamic"]

    def static(self, coll_id):
        return self._records[coll_id]["static"]

    def save_dynamic(self, coll_id, dynamic_context):
        self._records[coll_id]["dynamic"] = dynamic_context

    @property
    def allocated_bytes(self):
        return self._allocated

    def __contains__(self, coll_id):
        return coll_id in self._records

    def __len__(self):
        return len(self._records)


@dataclass
class _Slot:
    coll_id: int = None
    dirty: bool = False


class ActiveContextCache:
    """Direct-mapped cache of active context slots in shared memory.

    Loading a context costs ``context_load_cost_us``; saving costs
    ``context_save_cost_us`` and is *lazy*: a collective that made no progress
    since it was loaded is not written back (Sec. 5).
    """

    def __init__(self, config, context_buffer, clock=None):
        self.config = config
        self.context_buffer = context_buffer
        self.clock = clock
        self.slots = [_Slot() for _ in range(config.active_context_slots)]
        self.stats = ContextStats()

    def _slot_for(self, coll_id):
        # Direct mapping must handle both int ids and the multi-tenant
        # (job, local id) tuples.  String hashing via hash() is randomized
        # per process (PYTHONHASHSEED), which would break seeded
        # reproducibility, so tuples map through a stable CRC instead.
        if isinstance(coll_id, int):
            index = coll_id
        else:
            index = zlib.crc32(repr(coll_id).encode())
        return self.slots[index % len(self.slots)]

    def _charge(self, cost_us):
        if self.clock is not None:
            self.clock.advance(cost_us)
        return cost_us

    def load(self, coll_id):
        """Make ``coll_id``'s context resident; returns ``(slot, charged_us)``.

        Callers mark progress by setting the returned slot's ``dirty`` flag.
        """
        slot = self._slot_for(coll_id)
        charged = 0.0
        if slot.coll_id == coll_id:
            self.stats.cache_hits += 1
            return slot, charged
        self.stats.cache_misses += 1
        if slot.coll_id is not None and slot.dirty:
            charged += self._charge(self.config.context_save_cost_us)
            self.stats.saves += 1
            self.stats.save_time_us += self.config.context_save_cost_us
        charged += self._charge(self.config.context_load_cost_us)
        self.stats.loads += 1
        self.stats.load_time_us += self.config.context_load_cost_us
        slot.coll_id = coll_id
        slot.dirty = False
        return slot, charged

    def save_on_preempt(self, coll_id, progressed):
        """Save the dynamic context when a collective is preempted.

        Lazy saving: only collectives that progressed since their last load
        are written back.  Returns the charged time.
        """
        slot = self._slot_for(coll_id)
        if not progressed:
            self.stats.lazy_save_skips += 1
            return 0.0
        charged = self._charge(self.config.context_save_cost_us)
        self.stats.saves += 1
        self.stats.save_time_us += self.config.context_save_cost_us
        if slot.coll_id == coll_id:
            slot.dirty = False
        return charged

    def evict(self, coll_id):
        slot = self._slot_for(coll_id)
        if slot.coll_id == coll_id:
            slot.coll_id = None
            slot.dirty = False


def memory_overhead_report(config, num_collectives, num_blocks=1):
    """Workload-independent memory overheads (Sec. 6.2).

    Returns a dict with per-block shared memory, per-block global memory and
    the global memory shared by all blocks, in bytes.
    """
    shared_per_block = (
        num_collectives * config.task_queue_entry_bytes
        + config.active_context_slots * config.active_slot_bytes
    )
    global_per_block = num_collectives * config.context_bytes_per_collective
    global_shared = (
        num_collectives * config.counter_bytes_per_collective
        + config.fixed_global_bytes
    )
    return {
        "shared_bytes_per_block": shared_per_block,
        "global_bytes_per_block": global_per_block,
        "global_bytes_shared": global_shared,
        "num_blocks": num_blocks,
        "num_collectives": num_collectives,
    }
