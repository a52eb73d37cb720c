"""Batched inference engine: micro-batching over the engine's own
dispatch threads.

The in-process backend of the serving front end
(:mod:`repro.serving.frontend` owns admission, shedding, completion and
telemetry), built on the compiled-plan runtime:

* a :class:`repro.serving.batcher.BatchQueue` coalesces concurrent
  single-sample requests along the leading batch axis (Fig. 4's batch
  scaling, applied online);
* the engine starts ``workers`` dispatch threads
  (``repro-serve-dispatch-<i>``).  Each one, under an assembly lock,
  forms the next batch from the queue and then runs it inline on a
  sequential executor — only a free thread forms a batch, so queued
  requests keep coalescing while every thread is busy.  numpy's
  BLAS-bound kernels release the GIL, so batches on different threads
  overlap on multi-core hosts;
* every plan instance owns a scratch arena and kernel workspace
  (``reuse_buffers``), so steady-state serving performs no large heap
  allocations: batch results are split into per-request copies and the
  batch buffers immediately recycled.

Plans are compiled once per observed batch size and shared: each batch
in flight holds a cheap ``with_buffers()`` instance over the same
immutable compiled steps.  Scaling past one process is the replica
tier's job (:mod:`repro.serving.replicas`).
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..ir.graph import Graph
from ..runtime.arena import ArenaStats
from ..runtime.executor import Executor
from ..runtime.plan import ExecutionPlan, compile_plan
from ..telemetry.tracing import Tracer
from .batcher import InferenceRequest
from .frontend import Frontend, ShedPolicy
from .latency_model import BatchLatencyModel, model_path

logger = logging.getLogger("repro.serving")


class InferenceEngine(Frontend):
    """Serves single-sample requests through dynamically formed batches.

    Parameters
    ----------
    graph
        Model to serve; rebatched internally, so any build batch works.
    workers
        Dispatch threads, each running one batch at a time (the bound
        on in-flight batches).
    max_batch
        Largest batch the queue may coalesce.
    max_latency_ms
        How long the oldest queued request may wait for the batch to
        fill before being dispatched anyway.
    reuse_buffers
        Run batches on scratch arenas (allocation-free steady state).
    plan_cache
        Optional :class:`repro.runtime.plan_cache.PlanCache`: per-batch
        plan builds go through :func:`load_or_build`, so a restarted
        engine warm-starts from disk instead of respecializing.  Hit and
        miss counts surface in :meth:`metrics`.  An adaptive engine
        persists its latency model next to the plan entry.
    aot_config
        :class:`repro.optim.passes.AOTConfig` for cache-backed builds
        (bitwise-safe defaults when None).
    prewarm
        Pre-populate each executor's arena from the plan's activation
        shapes (first run allocation-free, not just steady state).
    tracer
        Sampled requests carry a :class:`RequestTrace` through the
        whole pipeline (queue wait, dispatch wait, batch assembly,
        execute with per-step kernel spans, finalize).  ``None`` (the
        default) disables tracing: the hot path pays one branch.
    slow_request_ms / adaptive / default_slo_ms / shed_policy /
    latency_model / headroom_ms
        The front-end options of :class:`repro.serving.frontend.Frontend`.
        The adaptive engine fits its latency model from task-start-to-
        results timings (assembly + execute + finalize).
    """

    def __init__(self, graph: Graph, workers: int = 1, max_batch: int = 8,
                 max_latency_ms: float = 2.0,
                 reuse_buffers: bool = True,
                 plan_cache=None, aot_config=None,
                 prewarm: bool = False,
                 tracer: Optional[Tracer] = None,
                 slow_request_ms: Optional[float] = None,
                 adaptive: bool = False,
                 default_slo_ms: Optional[float] = None,
                 shed_policy: Optional[ShedPolicy] = None,
                 latency_model: Optional[BatchLatencyModel] = None,
                 headroom_ms: float = 0.5) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        template = graph.with_batch(1)
        self.workers = int(workers)
        self.reuse_buffers = reuse_buffers
        self.plan_cache = plan_cache
        self.aot_config = aot_config
        self.prewarm = bool(prewarm)
        self._cache_hits = 0
        self._cache_misses = 0
        # Warm starts begin calibrated: the model is keyed and stored
        # alongside the plan-cache entry it timed.
        path = model_path(plan_cache.directory,
                          plan_cache.key_for(template, aot_config)) \
            if adaptive and plan_cache is not None else None
        super().__init__(
            template, max_batch=max_batch, max_latency_ms=max_latency_ms,
            tracer=tracer, slow_request_ms=slow_request_ms,
            adaptive=adaptive, default_slo_ms=default_slo_ms,
            shed_policy=shed_policy, latency_model=latency_model,
            headroom_ms=headroom_ms, latency_model_path=path)
        # Compiled base plans shared across executors, keyed by batch
        # size.
        self._compile_lock = threading.Lock()
        self._compiled: Dict[int, Tuple[Graph, ExecutionPlan]] = {}
        # Checked-in executors per batch size, plus every executor ever
        # created (for aggregate arena stats).
        self._pool_lock = threading.Lock()
        self._free: Dict[int, List[Executor]] = {}
        self._executors: List[Executor] = []
        # One dispatch thread forms a batch at a time, and only while it
        # is free to run it: batches never pile up ahead of the threads,
        # so queued requests keep coalescing while every thread is busy.
        self._assembly_lock = threading.Lock()
        self._dispatchers = [
            threading.Thread(target=self._dispatch_loop,
                             name=f"repro-serve-dispatch-{index}",
                             daemon=True)
            for index in range(self.workers)]
        for thread in self._dispatchers:
            thread.start()

    # -- front-end hooks -----------------------------------------------------

    def _join_dispatchers(self, deadline: Optional[float]) -> None:
        self._join(self._dispatchers, deadline)

    def _snapshot_detail(self) -> Dict[str, object]:
        arena_stats = ArenaStats()
        workspace_allocations = 0
        with self._pool_lock:
            executors = list(self._executors)
        for executor in executors:
            arena = executor.plan.arena
            if arena is not None:
                arena_stats.allocations += arena.stats.allocations
                arena_stats.allocated_bytes += arena.stats.allocated_bytes
                arena_stats.large_allocations += arena.stats.large_allocations
                arena_stats.reuses += arena.stats.reuses
                arena_stats.reused_bytes += arena.stats.reused_bytes
            if executor.plan.workspace is not None:
                workspace_allocations += executor.plan.workspace.allocations
        with self._compile_lock:
            cache_hits, cache_misses = self._cache_hits, self._cache_misses
        return {"arena_stats": arena_stats,
                "workspace_allocations": workspace_allocations,
                "plan_cache_hits": cache_hits,
                "plan_cache_misses": cache_misses}

    # -- plans and executors -------------------------------------------------

    def _base_plan(self, batch: int) -> Tuple[Graph, ExecutionPlan]:
        with self._compile_lock:
            entry = self._compiled.get(batch)
            if entry is None:
                graph = self.template.with_batch(batch)
                if self.plan_cache is not None:
                    from ..runtime.plan_cache import load_or_build

                    model = load_or_build(graph, self.aot_config,
                                          self.plan_cache)
                    if model.from_cache:
                        self._cache_hits += 1
                    else:
                        self._cache_misses += 1
                    entry = (model.graph, model.plan)
                else:
                    entry = (graph, compile_plan(graph))
                self._compiled[batch] = entry
            return entry

    def _checkout(self, batch: int) -> Executor:
        with self._pool_lock:
            free = self._free.get(batch)
            if free:
                return free.pop()
        graph, plan = self._base_plan(batch)
        executor = Executor(graph, reuse_buffers=self.reuse_buffers,
                            plan=plan, prewarm=self.prewarm)
        with self._pool_lock:
            self._executors.append(executor)
        return executor

    def _checkin(self, batch: int, executor: Executor) -> None:
        with self._pool_lock:
            self._free.setdefault(batch, []).append(executor)

    # -- dispatch ------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._assembly_lock:
                batch = self._next_batch()
            if batch is None:
                return
            try:
                self._run_batch(batch)
            except Exception:
                # _run_batch resolves its own futures; whatever still
                # escapes must not take a dispatch thread down with it.
                logger.exception("dispatch thread: batch finalization "
                                 "failed")

    def _run_batch(self, requests: List[InferenceRequest]) -> None:
        size = len(requests)
        # Traces ride along only for sampled requests; with no tracer
        # attached this is a single falsy check per batch.
        traces = [request.trace for request in requests
                  if request.trace is not None] if self.tracer is not None \
            else []
        for trace in traces:
            trace.batch_size = size
            trace.mark("task_start")
        try:
            executor = self._checkout(size)
            # Start the latency-model clock only once the executor is in
            # hand: the first batch of a size compiles its plan inside
            # _checkout, and an observation carrying compile time would
            # predict every deadline unmeetable and shed everything.
            task_t0 = time.perf_counter()
            try:
                if size == 1:
                    feeds = requests[0].feeds
                else:
                    feeds = {
                        name: np.concatenate(
                            [request.feeds[name] for request in requests],
                            axis=0)
                        for name in self._input_specs
                    }
                if traces:
                    execute_t0 = time.perf_counter()
                    for trace in traces:
                        trace.mark("assembled", execute_t0)
                        trace.mark("execute_t0", execute_t0)
                    executor.record_timeline = True
                try:
                    outputs = executor.run(feeds)
                finally:
                    if traces:
                        executor.record_timeline = False
                if traces:
                    timeline = executor.last_timeline or []
                    for trace in traces:
                        trace.mark("executed")
                        trace.attach_steps(timeline)
                # Per-request copies so the (large) batch buffers can go
                # straight back to the executor's arena.
                results = [
                    {name: array[index:index + 1].copy()
                     for name, array in outputs.items()}
                    for index in range(size)
                ]
                executor.recycle(outputs)
            finally:
                self._checkin(size, executor)
        except BaseException as exc:
            self._fail(requests, exc)
            return
        self._complete(requests, results, time.perf_counter() - task_t0)
