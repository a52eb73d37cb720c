"""One benchmark episode, run in a fresh process.

Set-up is timed from an empty, private plan-cache directory to the
first answered request: building the graph, compiling or pre-warming
plans, and (on the replica tier) spawning replicas until READY.  Warmup
follows and is not timed.  Then the load generator measures for the
episode's seconds.  A traced episode attaches a ``Tracer`` to the engine
and returns the per-request layer components instead of relying on the
untraced latencies.  Every episode ends by closing the engine and
checking that no engine thread, replica process or ``/dev/shm`` segment
outlives it.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
import traceback
from typing import Dict, List

import numpy as np

import host
import layers
import loadgen
from workloads import WARMUP_REQUESTS, WARMUP_TAIL, WORKLOADS


def episode_main(conn, spec: Dict[str, object]) -> None:
    """Child-process entry point: run, send the result, close."""
    try:
        result = ("ok", run_episode(**spec))
    except BaseException:
        result = ("error", traceback.format_exc())
    try:
        conn.send(result)
    finally:
        conn.close()
        stop_resource_tracker()


def stop_resource_tracker() -> None:
    """Spawning processes and the shared-memory data plane start
    multiprocessing's resource tracker; stop and reap it so that no
    process of the benchmark outlives it."""
    try:
        from multiprocessing import resource_tracker

        tracker = resource_tracker._resource_tracker
        if getattr(tracker, "_pid", None) is not None:
            tracker._stop()
    except Exception:
        pass


def _engine_counters(engine, backend: str) -> Dict[str, float]:
    snap = engine.metrics()
    counters = {"requests": snap.requests, "batches": snap.batches,
                "plan_cache_hits": snap.plan_cache_hits,
                "plan_cache_misses": snap.plan_cache_misses}
    if backend == "tier":
        stats = engine.replica_stats()
        counters.update(
            arena_allocations=sum(s.child_arena_allocations for s in stats),
            runs=sum(s.child_batches for s in stats),
            shm_requests=engine.shm_requests,
            shm_fallbacks=engine.shm_fallbacks,
            restarts=engine.restarts)
    else:
        counters.update(arena_allocations=snap.arena_allocations,
                        runs=snap.batches)
    return counters


def _median_ms(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) * 1e3)
    return sorted(times)[len(times) // 2]


def run_episode(workload: str, seed: int, episode: int, seconds: float,
                traced: bool, run_dir: str, chrome_path: str = ""
                ) -> Dict[str, object]:
    spec = WORKLOADS[workload]
    cache_dir = tempfile.mkdtemp(prefix=f"plan-cache-{episode}-",
                                 dir=run_dir)
    os.environ["REPRO_PLAN_CACHE_DIR"] = cache_dir

    from repro.telemetry.tracing import Tracer

    pool = spec.input_pool(seed)
    arrivals, indices = spec.schedule(seed, episode, seconds)

    def feeds(index: int):
        return {"input": pool[index % len(pool):index % len(pool) + 1]}

    tracer = Tracer(sample_rate=spec.trace_rate, capacity=1 << 17) \
        if traced else None
    engine_class = spec.engine_class()
    extra = {}
    if traced and spec.backend == "tier":
        # A non-adaptive tier still feeds a latency model it is given
        # (dispatch-to-completion per batch) but never consults it, so
        # the traced run measures the model without changing admission.
        from repro.serving.latency_model import BatchLatencyModel

        extra["latency_model"] = BatchLatencyModel()
    first: List[float] = []
    start = time.perf_counter()
    graph = spec.build_graph()
    engine = engine_class(graph, tracer=tracer, **spec.engine_kwargs,
                          **extra)
    result: Dict[str, object] = {"episode": episode, "traced": traced}
    pids: List[int] = []
    segments: List[str] = []
    try:
        loadgen.warmup(engine, feeds, spec.max_batch, WARMUP_REQUESTS,
                       on_first=lambda: first.append(time.perf_counter()))
        result["setup_s"] = first[0] - start
        loadgen.warmup(engine, feeds, 1, WARMUP_TAIL)
        if spec.sweep_sizes:
            loadgen.sweep_batch_sizes(engine, feeds, spec.max_batch,
                                      spec.engine_kwargs["replicas"])
        if spec.backend == "tier":
            pids = [s.pid for s in engine.replica_stats()]
            segments = engine.shm_segment_names()
        if tracer is not None:
            tracer.clear()
        before = _engine_counters(engine, spec.backend)
        cpu_start = host.cpu_times()
        window_start = time.perf_counter()
        if spec.loop == "open":
            records = loadgen.open_loop(engine, feeds, arrivals, indices,
                                        slo_ms=spec.limit_ms)
        else:
            records = loadgen.closed_loop(engine, feeds, indices, seconds)
        result["records"] = records.trim()
        done = result["records"]["done"]
        last = float(np.nanmax(done)) if np.isfinite(done).any() \
            else time.perf_counter()
        result["window_s"] = last - window_start
        result["steal"] = host.steal_share(cpu_start, host.cpu_times())
        after = _engine_counters(engine, spec.backend)
        result["counters"] = {key: after[key] - before.get(key, 0)
                              for key in after}
        result["plan_cache"] = (after["plan_cache_hits"],
                                after["plan_cache_misses"])
        rss_kib = host.vm_hwm_kib()
        if spec.backend == "tier":
            stats = engine.replica_stats()
            pids += [s.pid for s in stats]
            rss_kib += sum(host.vm_hwm_kib(s.pid) for s in stats)
            segments += engine.shm_segment_names()
        result["rss_kib"] = rss_kib
        result["samples"] = {int(records.index[slot]): outputs
                             for slot, outputs in records.samples.items()}
        if tracer is not None:
            traces = tracer.traces()
            model = getattr(engine, "latency_model", None)
            predict = model.predict if model is not None else None
            result["layers"] = layers.extract(
                traces, result["records"], spec.backend,
                layers.CostTable(graph), predict=predict)
            if chrome_path:
                _write_chrome(traces, chrome_path)
    finally:
        engine.close()
    result["leaks"] = host.leaks(set(pids), set(segments))
    if traced:
        result.update(_plan_metrics(spec, graph, cache_dir))
    shutil.rmtree(cache_dir, ignore_errors=True)
    return result


def _write_chrome(traces, path: str, limit: int = 1000) -> None:
    from repro.telemetry.export import (traces_to_chrome,
                                        validate_chrome_trace,
                                        write_chrome_trace)

    events = traces_to_chrome(traces[:limit])
    write_chrome_trace(path, events)
    with open(path) as handle:
        validate_chrome_trace(handle.read())


def _plan_metrics(spec, graph, cache_dir: str) -> Dict[str, float]:
    """Plan compile and plan-cache load times, timed from outside after
    the engine closed (the entries the tier pre-warmed are still on
    disk)."""
    from repro.runtime.plan import compile_plan
    from repro.runtime.plan_cache import PlanCache

    batched = graph.with_batch(spec.max_batch)
    metrics = {"plan.compile_ms": _median_ms(lambda: compile_plan(batched))}
    load_ms = 0.0
    if spec.backend == "tier":
        cache = PlanCache(cache_dir)
        key = cache.key_for(batched)
        if cache.load(key) is not None:
            load_ms = _median_ms(lambda: cache.load(key))
    metrics["plan_cache.load_ms"] = load_ms
    return metrics
