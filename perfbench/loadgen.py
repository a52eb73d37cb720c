"""Closed- and open-loop load generators with per-request records.

Open-loop latency is timed from each request's *scheduled* send time,
so a generator stall is charged to every request it delays (the
generator's own lag is reported separately).  Closed-loop latency is
timed from the actual send.  Completion is the moment the engine
resolves the request's future (a done-callback stamps it).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import TimeoutError as FutureTimeout
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

OK, SHED, FAILED = 0, 1, 2

# Every submitted request must resolve within this bound.
RESOLVE_TIMEOUT_S = 60.0


def _shed_errors():
    from repro.serving.batcher import RequestShedError
    from repro.serving.replicas import TierSaturatedError

    return (RequestShedError, TierSaturatedError)


class Records:
    """Per-request outcome arrays of one measured window (perf_counter
    seconds; ``done`` is NaN for a request shed at submit)."""

    def __init__(self, capacity: int) -> None:
        self.scheduled = np.full(capacity, np.nan)
        self.sent = np.full(capacity, np.nan)
        self.returned = np.full(capacity, np.nan)
        self.done = np.full(capacity, np.nan)
        self.status = np.full(capacity, FAILED, dtype=np.int8)
        self.index = np.zeros(capacity, dtype=np.int64)
        self.count = 0
        # Served outputs kept for the bitwise check: request -> outputs.
        self.samples: Dict[int, Dict[str, np.ndarray]] = {}

    def trim(self) -> Dict[str, np.ndarray]:
        n = self.count
        return {"scheduled": self.scheduled[:n], "sent": self.sent[:n],
                "returned": self.returned[:n], "done": self.done[:n],
                "status": self.status[:n], "index": self.index[:n]}


class _Tracker:
    """Done-callbacks: stamp completion, classify, keep sampled outputs."""

    def __init__(self, records: Records, sample_every: int,
                 max_samples: int) -> None:
        self.records = records
        self.sample_every = max(1, sample_every)
        self.max_samples = max_samples
        self.shed_errors = _shed_errors()
        self.lock = threading.Lock()

    def attach(self, slot: int, future) -> None:
        def callback(fut, slot=slot) -> None:
            now = time.perf_counter()
            records = self.records
            records.done[slot] = now
            exc = fut.exception()
            if exc is None:
                records.status[slot] = OK
                if slot % self.sample_every == 0:
                    with self.lock:
                        if len(records.samples) < self.max_samples:
                            records.samples[slot] = fut.result()
            elif isinstance(exc, self.shed_errors):
                records.status[slot] = SHED
            else:
                records.status[slot] = FAILED
        future.add_done_callback(callback)


def _wait_all(futures: Sequence) -> None:
    deadline = time.monotonic() + RESOLVE_TIMEOUT_S
    for future in futures:
        try:
            future.exception(timeout=max(0.0, deadline - time.monotonic()))
        except FutureTimeout:
            raise RuntimeError(
                f"a request did not resolve within {RESOLVE_TIMEOUT_S:.0f}"
                f" s") from None


def closed_loop(engine, feeds: Callable[[int], Dict[str, np.ndarray]],
                indices: np.ndarray, seconds: float,
                sample_every: int = 50, max_samples: int = 16) -> Records:
    """One client: send, wait for the answer, send the next."""
    records = Records(len(indices))
    tracker = _Tracker(records, sample_every, max_samples)
    end = time.perf_counter() + seconds
    slot = 0
    while slot < len(indices):
        now = time.perf_counter()
        if now >= end:
            break
        records.index[slot] = indices[slot]
        records.scheduled[slot] = records.sent[slot] = now
        future = engine.infer(feeds(int(indices[slot])))
        records.returned[slot] = time.perf_counter()
        tracker.attach(slot, future)
        slot += 1
        _wait_all([future])
    records.count = slot
    return records


def open_loop(engine, feeds: Callable[[int], Dict[str, np.ndarray]],
              arrivals: Sequence[float], indices: np.ndarray,
              slo_ms: Optional[float], sample_every: int = 50,
              max_samples: int = 16) -> Records:
    """Send on the arrival schedule whatever the engine does."""
    records = Records(len(arrivals))
    tracker = _Tracker(records, sample_every, max_samples)
    shed_errors = tracker.shed_errors
    futures: List = []
    clock = time.perf_counter
    start = clock() + 0.005
    for slot, offset in enumerate(arrivals):
        due = start + offset
        delay = due - clock()
        if delay > 0:
            time.sleep(delay)
        records.index[slot] = indices[slot]
        records.scheduled[slot] = due
        records.sent[slot] = clock()
        try:
            future = engine.infer(feeds(int(indices[slot])), slo_ms=slo_ms)
        except shed_errors:
            records.status[slot] = SHED
            records.returned[slot] = records.done[slot] = clock()
            continue
        records.returned[slot] = clock()
        tracker.attach(slot, future)
        futures.append(future)
    records.count = len(arrivals)
    _wait_all(futures)
    return records


def warmup(engine, feeds: Callable[[int], Dict[str, np.ndarray]],
           concurrency: int, requests: int,
           on_first: Optional[Callable[[], None]] = None) -> None:
    """Warm the engine from this one thread: rounds of ``concurrency``
    requests sent back to back, each round awaited before the next.
    ``on_first`` fires once, when the first request is answered."""
    shed_errors = _shed_errors()
    lock = threading.Lock()
    pending = [on_first]

    def first_answer(_future) -> None:
        with lock:
            callback, pending[0] = pending[0], None
        if callback is not None:
            callback()

    sent = 0
    while sent < requests:
        burst = min(concurrency, requests - sent)
        futures = []
        for _ in range(burst):
            future = engine.infer(feeds(sent))
            future.add_done_callback(first_answer)
            futures.append(future)
            sent += 1
        _wait_all(futures)
        for future in futures:
            exc = future.exception()
            if exc is not None and not isinstance(exc, shed_errors):
                raise exc


def sweep_batch_sizes(engine, feeds: Callable[[int], Dict[str, np.ndarray]],
                      max_batch: int, replicas: int, rounds: int = 2,
                      gap_s: float = 0.004) -> None:
    """Make every replica serve every batch size once per round: for each
    size, one group of that many requests per replica, the groups
    ``gap_s`` apart so the queue's 2 ms coalescing timer closes each
    group into its own batch while the previous replica is busy."""
    for _ in range(rounds):
        for size in range(1, max_batch + 1):
            futures = []
            for group in range(replicas):
                if group:
                    time.sleep(gap_s)
                futures += [engine.infer(feeds(size * replicas + group))
                            for _ in range(size)]
            _wait_all(futures)
