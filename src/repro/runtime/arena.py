"""Scratch arenas: recycled activation buffers for steady-state inference.

The memory planner (repro.optim.memory_planner) proves how small the live
set of a plan can be; this module makes repeated execution actually *stay*
there.  A :class:`ScratchArena` is a pool of previously-used activation
buffers keyed by ``(shape, dtype)``.  The executor allocates every node
output through the arena and returns each intermediate to it the moment
the liveness schedule declares it dead, so after a warmup run every
"allocation" is a recycled buffer and steady-state inference performs no
large heap allocations at all — the behaviour of a static arena on an
embedded target (paper Sec. II-B), reproduced on the host runtime.

Ownership rules keep recycling safe:

* only arrays handed out by :meth:`ScratchArena.alloc` are accepted back
  by :meth:`release` (a graph-input feed dying in the liveness schedule is
  silently ignored, never pooled);
* graph outputs are :meth:`detach`-ed before they escape to the caller,
  and can be explicitly returned later via :meth:`adopt` (what the
  serving engine does after splitting a batch into per-request copies);
* an arena is **single-owner**: every mutating call carries a cheap
  in-use assertion, so two threads recycling through one arena
  concurrently raise :class:`ArenaOwnershipError` instead of silently
  corrupting the free pool.  Plans run on one thread; a server that
  runs batches concurrently gives each batch its own plan instance
  (:meth:`repro.runtime.plan.ExecutionPlan.with_buffers`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

import numpy as np

from ..telemetry import collectors as _telemetry


class ArenaOwnershipError(RuntimeError):
    """Concurrent use of a single-owner arena (see module docs)."""

# Allocations above this many bytes count as "large" in the stats — the
# threshold the batch-scaling acceptance check asserts against.
LARGE_ALLOCATION_BYTES = 1 << 20


@dataclass
class ArenaStats:
    """Counters describing how an arena has been used.

    ``allocations`` increments only when a request misses the free pool
    and real memory is obtained from the heap; a steady-state workload
    therefore shows a flat ``allocations`` (and ``large_allocations``)
    count while ``reuses`` keeps growing.
    """

    allocations: int = 0
    allocated_bytes: int = 0
    large_allocations: int = 0
    reuses: int = 0
    reused_bytes: int = 0
    releases: int = 0
    foreign_releases: int = 0
    # Live-footprint accounting: ``outstanding_bytes`` is the sum of
    # buffers currently checked out; ``peak_bytes`` is the high-water
    # mark of outstanding + pooled bytes — the arena's real memory
    # footprint at its worst moment.  ``clear()`` resets the live
    # numbers but keeps the peak (it happened).
    outstanding_bytes: int = 0
    peak_bytes: int = 0

    def snapshot(self) -> "ArenaStats":
        return replace(self)


class ScratchArena:
    """A free-list pool of activation buffers keyed by (shape, dtype)."""

    def __init__(self, large_threshold: int = LARGE_ALLOCATION_BYTES) -> None:
        self.large_threshold = int(large_threshold)
        self.stats = ArenaStats()
        # Incremental mirror of pooled_bytes() so peak accounting costs
        # one add per mutation instead of a free-list walk.
        self._pooled_nbytes = 0
        self._free: Dict[Tuple[Tuple[int, ...], str], List[np.ndarray]] = {}
        # Strong references to every buffer currently checked out.  Keying
        # by id() is safe exactly because the reference is strong: an id
        # cannot be recycled while the array it names is still held here.
        self._issued: Dict[int, np.ndarray] = {}
        # Single-owner guard: ``_active`` holds the thread currently
        # inside a mutating call; a second thread entering while it is
        # set is concurrent misuse.
        self._active: "int | None" = None
        # Scrape-time telemetry: the registry reads this arena's stats
        # through a weak reference; the alloc/release paths pay nothing.
        _telemetry.track_arena(self)

    def _enter(self) -> None:
        """Begin a mutating call, asserting single ownership."""
        me = threading.get_ident()
        holder = self._active
        if holder is not None and holder != me:
            raise ArenaOwnershipError(
                "ScratchArena used concurrently from multiple threads; "
                "arenas are single-owner — give each thread its own plan "
                "instance (ExecutionPlan.with_buffers())")
        self._active = me

    def _exit(self) -> None:
        self._active = None

    @staticmethod
    def _key(shape, dtype) -> Tuple[Tuple[int, ...], str]:
        return tuple(int(d) for d in shape), np.dtype(dtype).str

    def alloc(self, shape, dtype) -> np.ndarray:
        """Return an uninitialized buffer, recycled when possible."""
        key = self._key(shape, dtype)
        self._enter()
        try:
            free = self._free.get(key)
            if free:
                buf = free.pop()
                self.stats.reuses += 1
                self.stats.reused_bytes += buf.nbytes
                self._pooled_nbytes -= buf.nbytes
            else:
                buf = np.empty(key[0], dtype=np.dtype(key[1]))
                self.stats.allocations += 1
                self.stats.allocated_bytes += buf.nbytes
                if buf.nbytes > self.large_threshold:
                    self.stats.large_allocations += 1
            self._issued[id(buf)] = buf
            self.stats.outstanding_bytes += buf.nbytes
            self._note_peak()
            return buf
        finally:
            self._exit()

    def reserve(self, shape, dtype, count: int = 1) -> int:
        """Pre-populate the free pool up to ``count`` buffers of this key.

        Used by plan prewarm so even the first run draws recycled
        buffers.  The heap memory obtained here is counted in the
        allocation stats (it is real memory), but it is acquired before
        steady state begins.  Returns how many buffers were added.
        """
        key = self._key(shape, dtype)
        self._enter()
        try:
            free = self._free.setdefault(key, [])
            added = 0
            while len(free) < count:
                buf = np.empty(key[0], dtype=np.dtype(key[1]))
                self.stats.allocations += 1
                self.stats.allocated_bytes += buf.nbytes
                if buf.nbytes > self.large_threshold:
                    self.stats.large_allocations += 1
                free.append(buf)
                self._pooled_nbytes += buf.nbytes
                added += 1
            self._note_peak()
            return added
        finally:
            self._exit()

    def release(self, array: np.ndarray) -> bool:
        """Return a dead tensor to the pool; ignores arrays we never issued."""
        self._enter()
        try:
            issued = self._issued.pop(id(array), None)
            if issued is None:
                self.stats.foreign_releases += 1
                return False
            self._free.setdefault(self._key(array.shape, array.dtype),
                                  []).append(array)
            self.stats.releases += 1
            self.stats.outstanding_bytes -= issued.nbytes
            self._pooled_nbytes += issued.nbytes
            return True
        finally:
            self._exit()

    def detach(self, array: np.ndarray) -> None:
        """Stop tracking an issued buffer (it escapes to the caller)."""
        self._enter()
        try:
            issued = self._issued.pop(id(array), None)
            if issued is not None:
                self.stats.outstanding_bytes -= issued.nbytes
        finally:
            self._exit()

    def adopt(self, array: np.ndarray) -> bool:
        """Donate a caller-owned base array to the pool (explicit recycle)."""
        if not isinstance(array, np.ndarray) or array.base is not None \
                or not array.flags["C_CONTIGUOUS"]:
            return False
        self._enter()
        try:
            self._free.setdefault(self._key(array.shape, array.dtype),
                                  []).append(array)
            self.stats.releases += 1
            self._pooled_nbytes += array.nbytes
            self._note_peak()
            return True
        finally:
            self._exit()

    def _note_peak(self) -> None:
        live = self.stats.outstanding_bytes + self._pooled_nbytes
        if live > self.stats.peak_bytes:
            self.stats.peak_bytes = live

    def pooled_bytes(self) -> int:
        return sum(buf.nbytes for bufs in self._free.values() for buf in bufs)

    def clear(self) -> None:
        self._enter()
        try:
            self._free.clear()
            self._issued.clear()
            self._pooled_nbytes = 0
            self.stats.outstanding_bytes = 0
        finally:
            self._exit()


class RunContext:
    """Per-execution handle the bound kernels allocate through.

    Carries the plan instance's arena (inter-node activation buffers) and
    kernel workspace (intra-kernel scratch such as im2col columns).  A
    builder that receives ``ctx=None`` must fall back to plain allocating
    behaviour, so compiled steps stay usable without an arena.
    """

    __slots__ = ("arena", "workspace")

    def __init__(self, arena: ScratchArena, workspace) -> None:
        self.arena = arena
        self.workspace = workspace

    def alloc(self, shape, dtype) -> np.ndarray:
        return self.arena.alloc(shape, dtype)
