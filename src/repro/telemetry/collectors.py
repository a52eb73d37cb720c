"""Scrape-time collectors for the runtime's existing cheap counters.

The arena, kernel workspace, plan cache, serving front ends, and safety
monitor pipeline all keep small local stats already (they predate this
module).  Rather than threading registry handles through every hot path,
each instance registers itself here at construction — a single
``WeakSet.add`` — and one collector per subsystem reads the live
instances' stats when the registry is scraped.  Hot paths therefore pay
**nothing** for telemetry; dead instances drop out of the weak sets and
their contribution simply stops accumulating.

Series produced (all prefixed ``repro_``):

========================  =========  =====================================
arena                     counters   allocations/allocated_bytes/
                                     large_allocations/reuses/reused_bytes/
                                     releases (``_total``)
                          gauges     pooled_bytes, instances
kernel workspace          counters   allocations/allocated_bytes/hits
                                     (``_total``)
                          gauges     bytes, peak_bytes, instances
plan cache                counters   hits/misses/stores (``_total``)
serving (per front end,   counters   requests/batches/failures/shed/
engine or replica tier)              slo_misses/slow_requests (``_total``)
                          gauges     queue_depth, latency p50/p95/p99 ms,
                                     throughput window rps, failure ratio,
                                     error-budget burn
replica tier              counters   replica requests/failures and child
                                     arena allocations (labeled
                                     ``replica="N"``), tier restarts
                          gauges     live replicas, per-replica inflight
safety pipeline           counters   samples{action=...}, anomalies{kind=...}
========================  =========  =====================================

The collectors are installed on the **default** registry the first time
any instance registers; :func:`install_runtime_collectors` installs the
same set on a custom registry (tests do this to scrape in isolation).
"""

from __future__ import annotations

import threading
import weakref
from typing import Iterable, List

from .registry import MetricFamily, MetricsRegistry, Sample, get_registry

_arenas: "weakref.WeakSet" = weakref.WeakSet()
_workspaces: "weakref.WeakSet" = weakref.WeakSet()
_plan_caches: "weakref.WeakSet" = weakref.WeakSet()
_frontends: "weakref.WeakSet" = weakref.WeakSet()
_pipelines: "weakref.WeakSet" = weakref.WeakSet()
_replica_tiers: "weakref.WeakSet" = weakref.WeakSet()

_install_lock = threading.Lock()
_installed_default = False


def track_arena(arena) -> None:
    _ensure_default_installed()
    _arenas.add(arena)


def track_workspace(workspace) -> None:
    _ensure_default_installed()
    _workspaces.add(workspace)


def track_plan_cache(cache) -> None:
    _ensure_default_installed()
    _plan_caches.add(cache)


def track_frontend(frontend) -> None:
    _ensure_default_installed()
    _frontends.add(frontend)


def track_pipeline(pipeline) -> None:
    _ensure_default_installed()
    _pipelines.add(pipeline)


def track_replica_tier(tier) -> None:
    _ensure_default_installed()
    _replica_tiers.add(tier)


def _ensure_default_installed() -> None:
    global _installed_default
    if _installed_default:
        return
    with _install_lock:
        if not _installed_default:
            install_runtime_collectors(get_registry())
            _installed_default = True


def install_runtime_collectors(registry: MetricsRegistry) -> List:
    """Register every subsystem collector on ``registry``.

    Returns the unregister callables (tests use them to detach).
    """
    return [
        registry.register_collector(_collect_arenas),
        registry.register_collector(_collect_workspaces),
        registry.register_collector(_collect_plan_caches),
        registry.register_collector(_collect_frontends),
        registry.register_collector(_collect_pipelines),
        registry.register_collector(_collect_replica_tiers),
    ]


def _counter_family(name: str, help: str, value: float
                    ) -> MetricFamily:
    return MetricFamily(name, "counter", help,
                        [Sample(name, (), float(value))])


def _gauge_family(name: str, help: str, value: float) -> MetricFamily:
    return MetricFamily(name, "gauge", help,
                        [Sample(name, (), float(value))])


def _collect_arenas() -> Iterable[MetricFamily]:
    allocations = allocated = large = reuses = reused = releases = 0
    pooled = instances = outstanding = peak = 0
    for arena in list(_arenas):
        stats = arena.stats
        allocations += stats.allocations
        allocated += stats.allocated_bytes
        large += stats.large_allocations
        reuses += stats.reuses
        reused += stats.reused_bytes
        releases += stats.releases
        pooled += arena.pooled_bytes()
        outstanding += stats.outstanding_bytes
        peak += stats.peak_bytes
        instances += 1
    yield _counter_family(
        "repro_arena_allocations_total",
        "Heap allocations performed by scratch arenas (misses of the "
        "free pool)", allocations)
    yield _counter_family(
        "repro_arena_allocated_bytes_total",
        "Bytes obtained from the heap by scratch arenas", allocated)
    yield _counter_family(
        "repro_arena_large_allocations_total",
        "Arena allocations above the large-buffer threshold", large)
    yield _counter_family(
        "repro_arena_reuses_total",
        "Buffer requests served from arena free pools", reuses)
    yield _counter_family(
        "repro_arena_reused_bytes_total",
        "Bytes served from arena free pools", reused)
    yield _counter_family(
        "repro_arena_releases_total",
        "Buffers returned to arena free pools", releases)
    yield _gauge_family(
        "repro_arena_pooled_bytes",
        "Bytes currently parked in arena free pools", pooled)
    yield _gauge_family(
        "repro_arena_outstanding_bytes",
        "Bytes currently checked out of scratch arenas", outstanding)
    yield _gauge_family(
        "repro_arena_peak_bytes",
        "High-water mark of arena live bytes (outstanding + pooled)",
        peak)
    yield _gauge_family(
        "repro_arena_instances",
        "Live scratch arena instances", instances)


def _collect_workspaces() -> Iterable[MetricFamily]:
    allocations = allocated = hits = 0
    resident = peak = instances = 0
    for workspace in list(_workspaces):
        allocations += workspace.allocations
        allocated += workspace.allocated_bytes
        hits += workspace.hits
        resident += workspace.nbytes()
        peak += workspace.peak_bytes
        instances += 1
    yield _counter_family(
        "repro_workspace_allocations_total",
        "Scratch buffers created by kernel workspaces", allocations)
    yield _counter_family(
        "repro_workspace_allocated_bytes_total",
        "Bytes allocated for kernel workspace scratch buffers", allocated)
    yield _counter_family(
        "repro_workspace_hits_total",
        "Workspace buffer requests served by an existing buffer", hits)
    yield _gauge_family(
        "repro_workspace_bytes",
        "Bytes currently resident in kernel workspaces", resident)
    yield _gauge_family(
        "repro_workspace_peak_bytes",
        "Summed per-workspace high-water scratch bytes", peak)
    yield _gauge_family(
        "repro_workspace_instances", "Live kernel workspaces", instances)


def _collect_plan_caches() -> Iterable[MetricFamily]:
    hits = misses = stores = 0
    for cache in list(_plan_caches):
        hits += cache.stats.hits
        misses += cache.stats.misses
        stores += cache.stats.stores
    yield _counter_family(
        "repro_plan_cache_hits_total",
        "Plan-cache lookups served from disk", hits)
    yield _counter_family(
        "repro_plan_cache_misses_total",
        "Plan-cache lookups that fell back to a cold build", misses)
    yield _counter_family(
        "repro_plan_cache_stores_total",
        "Plan-cache entries written", stores)


def _collect_frontends() -> Iterable[MetricFamily]:
    """The ``repro_serving_*`` series over every live serving front end:
    in-process engines and replica tiers alike."""
    requests = batches = failures = slow = 0
    shed = slo_misses = 0
    depth = 0
    p50 = p95 = p99 = window_rps = failure_rate = 0.0
    goodput = miss_rate = 0.0
    live = 0
    for frontend in list(_frontends):
        snapshot = frontend.recorder.snapshot(
            queue_depth=frontend.queue.depth())
        requests += snapshot.requests
        batches += snapshot.batches
        failures += snapshot.failures
        shed += snapshot.shed
        slo_misses += snapshot.slo_misses
        slow += frontend.slow_requests
        depth += snapshot.queue_depth
        p50 = max(p50, snapshot.p50_ms)
        p95 = max(p95, snapshot.p95_ms)
        p99 = max(p99, snapshot.p99_ms)
        window_rps += snapshot.throughput_rps
        goodput += snapshot.goodput_rps
        failure_rate = max(failure_rate, snapshot.failure_rate)
        miss_rate = max(miss_rate, snapshot.miss_rate)
        live += 1
    yield _counter_family(
        "repro_serving_requests_total",
        "Requests completed by serving front ends", requests)
    yield _counter_family(
        "repro_serving_batches_total",
        "Batches executed by serving front ends", batches)
    yield _counter_family(
        "repro_serving_failures_total",
        "Requests failed by serving front ends", failures)
    yield _counter_family(
        "repro_serving_slow_requests_total",
        "Requests that exceeded the slow-request threshold", slow)
    yield _gauge_family(
        "repro_serving_queue_depth",
        "Requests waiting in serving batch queues", depth)
    yield _gauge_family(
        "repro_serving_engines", "Live serving front ends", live)
    yield _gauge_family(
        "repro_serving_latency_p50_ms",
        "Worst per-front-end windowed p50 latency", p50)
    yield _gauge_family(
        "repro_serving_latency_p95_ms",
        "Worst per-front-end windowed p95 latency", p95)
    yield _gauge_family(
        "repro_serving_latency_p99_ms",
        "Worst per-front-end windowed p99 latency", p99)
    yield _gauge_family(
        "repro_serving_window_rps",
        "Summed sliding-window throughput across front ends",
        window_rps)
    yield _gauge_family(
        "repro_serving_failure_rate",
        "Worst per-front-end windowed failure rate", failure_rate)
    yield _counter_family(
        "repro_serving_shed_total",
        "Requests shed by SLO-aware admission control before execution",
        shed)
    yield _counter_family(
        "repro_serving_slo_misses_total",
        "Completed requests that finished after their deadline",
        slo_misses)
    yield _gauge_family(
        "repro_serving_goodput_rps",
        "Summed sliding-window SLO-met throughput across front ends",
        goodput)
    yield _gauge_family(
        "repro_serving_miss_rate",
        "Worst per-front-end windowed share of bad outcomes "
        "(failures + sheds + deadline misses)", miss_rate)
    yield _burn_rate_family()


def _burn_rate_family() -> MetricFamily:
    """Worst error-budget burn across every front end, one sample per
    window.  Lazy import: serving.metrics itself imports telemetry."""
    from ..serving.metrics import BURN_WINDOWS

    family = MetricFamily(
        "repro_serving_error_budget_burn", "gauge",
        "Worst per-front-end SLO error-budget burn rate (bad-outcome share "
        "over the window divided by the SLO's error budget; 1.0 spends "
        "the budget exactly as fast as it accrues)")
    for label, window_s in BURN_WINDOWS:
        burn = 0.0
        for frontend in list(_frontends):
            burn = max(burn, frontend.recorder.error_budget_burn(window_s))
        family.samples.append(Sample(
            family.name, (("window", label),), burn))
    return family


def _collect_replica_tiers() -> Iterable[MetricFamily]:
    """One registry view of every replica tier: per-replica series are
    labeled ``replica="N"`` so a single scrape shows the whole tier."""
    requests_family = MetricFamily(
        "repro_replica_requests_total", "counter",
        "Requests completed per replica process")
    failures_family = MetricFamily(
        "repro_replica_failures_total", "counter",
        "Requests failed per replica process (crashes included)")
    inflight_family = MetricFamily(
        "repro_replica_inflight", "gauge",
        "Batches currently in flight per replica process")
    arena_family = MetricFamily(
        "repro_replica_arena_allocations_total", "counter",
        "Scratch-arena heap allocations inside each replica process")
    live = restarts = 0
    for tier in list(_replica_tiers):
        for stats in tier.replica_stats():
            labels = (("replica", str(stats.index)),)
            requests_family.samples.append(Sample(
                requests_family.name, labels,
                float(stats.completed_requests)))
            failures_family.samples.append(Sample(
                failures_family.name, labels,
                float(stats.failed_requests)))
            inflight_family.samples.append(Sample(
                inflight_family.name, labels, float(stats.inflight)))
            arena_family.samples.append(Sample(
                arena_family.name, labels,
                float(stats.child_arena_allocations)))
            live += int(stats.alive)
        restarts += tier.restarts
    for family in (requests_family, failures_family, inflight_family,
                   arena_family):
        if not family.samples:
            family.samples.append(Sample(
                family.name, (("replica", "none"),), 0.0))
        yield family
    yield _gauge_family(
        "repro_replicas_live", "Live replica processes across tiers",
        live)
    yield _counter_family(
        "repro_replica_tier_restarts_total",
        "Replica processes restarted after a crash", restarts)


def _collect_pipelines() -> Iterable[MetricFamily]:
    actions = {"passed": 0, "corrected": 0, "rejected": 0}
    observed = 0
    kinds: dict = {}
    for pipeline in list(_pipelines):
        stats = pipeline.stats
        observed += stats.observed
        actions["passed"] += stats.passed
        actions["corrected"] += stats.corrected
        actions["rejected"] += stats.rejected
        for kind, count in stats.anomalies_by_kind.items():
            kinds[kind] = kinds.get(kind, 0) + count
    yield _counter_family(
        "repro_safety_observed_total",
        "Samples inspected by safety monitor pipelines", observed)
    samples_family = MetricFamily(
        "repro_safety_samples_total", "counter",
        "Monitor pipeline decisions by action")
    for action, count in sorted(actions.items()):
        samples_family.samples.append(Sample(
            "repro_safety_samples_total", (("action", action),),
            float(count)))
    yield samples_family
    anomalies_family = MetricFamily(
        "repro_safety_anomalies_total", "counter",
        "Anomalies detected by monitor pipelines, by kind")
    for kind, count in sorted(kinds.items()):
        anomalies_family.samples.append(Sample(
            "repro_safety_anomalies_total", (("kind", kind),),
            float(count)))
    if not kinds:
        anomalies_family.samples.append(Sample(
            "repro_safety_anomalies_total", (("kind", "none"),), 0.0))
    yield anomalies_family
