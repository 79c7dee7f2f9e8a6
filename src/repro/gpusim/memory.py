"""Memory accounting for the simulated GPUs and the host.

The paper reports DFCCL's workload-independent *memory* overheads (Sec. 6.2):
shared memory per block for the task queue and active context slots, and
global memory for the collective context buffer.  This module provides the
bookkeeping used to reproduce those numbers, plus a pinned (page-locked) host
memory allocator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ResourceExhaustedError


@dataclass
class MemoryRegion:
    """A named allocation inside a memory space."""

    name: str
    nbytes: int


class MemoryAccountant:
    """Tracks named allocations against a fixed capacity.

    Used for three spaces per GPU: per-block shared memory, device global
    memory, and (shared per node) page-locked host memory.
    """

    def __init__(self, label, capacity_bytes):
        self.label = label
        self.capacity_bytes = int(capacity_bytes)
        self._regions = {}
        self._used = 0
        self.peak_bytes = 0

    @property
    def used_bytes(self):
        return self._used

    @property
    def free_bytes(self):
        return self.capacity_bytes - self._used

    def allocate(self, name, nbytes):
        """Allocate ``nbytes`` under ``name``; raise when capacity is exceeded."""
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError(f"allocation size must be non-negative, got {nbytes}")
        if name in self._regions:
            raise ValueError(f"region {name!r} already allocated in {self.label}")
        if self._used + nbytes > self.capacity_bytes:
            raise ResourceExhaustedError(
                f"{self.label}: cannot allocate {nbytes}B for {name!r} "
                f"({self.free_bytes}B free of {self.capacity_bytes}B)"
            )
        region = MemoryRegion(name, nbytes)
        self._regions[name] = region
        self._used += nbytes
        self.peak_bytes = max(self.peak_bytes, self._used)
        return region

    def free(self, name):
        """Release the region called ``name``."""
        region = self._regions.pop(name, None)
        if region is None:
            raise KeyError(f"region {name!r} is not allocated in {self.label}")
        self._used -= region.nbytes
        return region

    def __contains__(self, name):
        return name in self._regions


@dataclass
class PinnedAllocation:
    """Handle returned by :class:`PinnedHostAllocator`."""

    name: str
    nbytes: int
    time_us: float


class PinnedHostAllocator:
    """Page-locked host memory allocator.

    Allocating pinned memory on a real system issues CPU-initiated GPU memory
    operations that behave like implicit GPU synchronization (PyTorch issue
    #31095 discussed in Sec. 2.2).  The allocator therefore records, for each
    allocation, which GPU the caller was bound to so the host thread can issue
    the corresponding implicit synchronization.
    """

    #: Cost of a pinned allocation in host time (independent of the implicit
    #: synchronization it triggers).
    ALLOC_COST_US = 8.0

    def __init__(self, capacity_bytes=64 << 30):
        self.accountant = MemoryAccountant("pinned-host", capacity_bytes)
        self.allocations = []

    def allocate(self, name, nbytes, time_us=0.0):
        self.accountant.allocate(name, nbytes)
        allocation = PinnedAllocation(name, int(nbytes), time_us)
        self.allocations.append(allocation)
        return allocation

    def free(self, name):
        self.accountant.free(name)
