"""End-to-end and per-layer metrics from the episodes of one run.

The reference host is a virtual machine whose hypervisor hands its CPUs
to other guests for seconds at a time, and even 1% of CPU stolen that
way lifts the replica tier's p99 by half.  So every episode's requests
are cut by send time into slices of about ``SLICE_S`` seconds, each
slice gets the host's CPU steal share during its seconds, and the
latency metrics pool the requests of the calmest slices, a third of the
run's answered requests.  The choice looks only at the host, never at
latencies.  Counts are summed over the run, set-up is the
median over episodes and peak memory the worst episode.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

import host
import layers
from loadgen import FAILED, OK, SHED
from workloads import LATE_MS, Workload

Episodes = Sequence[Dict[str, object]]

# Seconds per host-noise slice.
SLICE_S = 2.0
# The latency metrics keep the calmest 1/CALM_SHARE of answered requests,
# and at least CALM_ANSWERS of them (ten beyond p99).
CALM_SHARE = 3
CALM_ANSWERS = 1000


def pooled(episodes: Episodes, key: str) -> np.ndarray:
    return np.concatenate([e["records"][key] for e in episodes])


def latencies_ms(workload: Workload, episodes: Episodes) -> np.ndarray:
    """Latencies of answered requests, ascending: from the scheduled send
    in the open loop, from the actual send in the closed loop."""
    ok = pooled(episodes, "status") == OK
    origin = pooled(episodes, "scheduled" if workload.loop == "open"
                    else "sent")
    return np.sort((pooled(episodes, "done") - origin)[ok] * 1e3)


def counts(episodes: Episodes, wrong: int) -> Dict[str, int]:
    status = pooled(episodes, "status")
    return {"sent": int(status.size),
            "succeeded": int((status == OK).sum()),
            "shed": int((status == SHED).sum()),
            "failed": int((status == FAILED).sum()),
            "wrong": wrong}


def loadgen_metrics(episodes: Episodes) -> Dict[str, float]:
    lag = (pooled(episodes, "sent") - pooled(episodes, "scheduled")) * 1e3
    return {"loadgen.lag_p99_ms": layers.quantile(lag, 0.99),
            "loadgen.late_share": float((lag > LATE_MS).mean())
            if lag.size else 0.0}


def slices(workload: Workload, episodes: Episodes
           ) -> List[Dict[str, object]]:
    """Every episode's requests cut by send time into equal slices of
    about ``SLICE_S`` seconds: host steal, requests sent and latencies
    of the answered ones, per slice."""
    result = []
    for e in episodes:
        records = e["records"]
        ok = records["status"] == OK
        origin = records["scheduled" if workload.loop == "open"
                         else "sent"]
        latency = (records["done"] - origin) * 1e3
        start, end = float(np.nanmin(origin)), float(np.nanmax(origin))
        count = max(1, int(round((end - start) / SLICE_S)))
        edges = np.linspace(start, end, count + 1)
        index = np.clip(np.searchsorted(edges, origin, "right") - 1,
                        0, count - 1)
        for k in range(count):
            member = index == k
            result.append({
                "steal": host.steal_between(e.get("steal_samples", ()),
                                            edges[k], edges[k + 1]),
                "sent": int(member.sum()),
                "latency": latency[member & ok]})
    return result


def calm(parts: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """The calmest slices (least host steal first) until they hold a
    third of the run's answered requests, and at least a thousand: on a
    run where the host stole CPU during two of three episodes, the third
    one still decides."""
    need = max(sum(part["latency"].size for part in parts) / CALM_SHARE,
               CALM_ANSWERS)
    kept, held = [], 0
    for part in sorted(parts, key=lambda part: part["steal"]):
        if held >= need:
            break
        kept.append(part)
        held += part["latency"].size
    return kept


def end_to_end(workload: Workload, episodes: Episodes,
               tally: Dict[str, int]) -> Dict[str, float]:
    kept = calm(slices(workload, episodes))
    latencies = np.concatenate([part["latency"] for part in kept])
    kept_sent = max(1, sum(part["sent"] for part in kept))
    met = int((latencies <= workload.limit_ms).sum())
    window = sum(e["window_s"] for e in episodes)
    sent = max(1, tally["sent"])
    return {
        "setup_s": layers.median([e["setup_s"] for e in episodes]),
        "latency_p50_ms": layers.quantile(latencies, 0.50),
        "latency_p99_ms": layers.quantile(latencies, 0.99),
        "throughput_rps": tally["succeeded"] / window,
        "slo_attainment": max(0.0, met / kept_sent - tally["wrong"] / sent),
        "success_share": (tally["succeeded"] - tally["wrong"]) / sent,
        "peak_rss_mib": max(e["rss_kib"] for e in episodes) / 1024.0,
    }


def per_layer(workload: Workload, untraced: Episodes, traced: Episodes
              ) -> Dict[str, object]:
    """Per-layer metrics and the self-time table.  Layers a workload does
    not use read 0."""
    merged = layers.merge([e["layers"] for e in traced])
    components, batches = merged["components"], merged["batches"]
    kernels = layers.kernel_metrics(batches)
    metrics: Dict[str, float] = dict(kernels)
    metrics.update(layers.executor_metrics(batches))
    tier = workload.backend == "tier"

    def total(key: str) -> float:
        return float(sum(e["counters"].get(key, 0) for e in traced))

    def typical(name: str) -> float:
        return layers.median(components.get(name, []))

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    queue_wait = components.get("queue_wait", [])
    metrics.update({
        "arena.allocations_per_run": ratio(total("arena_allocations"),
                                           total("runs")),
        "plan.compile_ms": layers.median(
            [e["plan.compile_ms"] for e in traced]),
        "plan_cache.hits": layers.median(
            [e["plan_cache"][0] for e in traced]),
        "plan_cache.misses": layers.median(
            [e["plan_cache"][1] for e in traced]),
        "plan_cache.load_ms": layers.median(
            [e["plan_cache.load_ms"] for e in traced]),
        "batcher.queue_wait_p50_ms": layers.quantile(queue_wait, 0.5),
        "batcher.queue_wait_p99_ms": layers.quantile(queue_wait, 0.99),
        "batcher.batch_size_mean": ratio(total("requests"),
                                         total("batches")),
        "batcher.shed": float((pooled(traced, "status") == SHED).sum()),
        "latency_model.abs_err_ms": layers.median(
            [b["predict_err_ms"] for b in batches if "predict_err_ms" in b]),
        "engine.dispatch_wait_ms": 0.0 if tier else typical("dispatch_wait"),
        "engine.finalize_ms": 0.0 if tier else typical("finalize"),
        "tier.slot_wait_ms": typical("slot_wait") if tier else 0.0,
        "tier.batch_assembly_ms": typical("batch_assembly") if tier else 0.0,
        "tier.dispatch_ms": layers.median(
            [b["dispatch_ms"] for b in batches if "dispatch_ms" in b]),
        "tier.replica_execute_ms": layers.median(
            [b["execute_ms"] for b in batches]) if tier else 0.0,
        "tier.ipc_ms": typical("ipc") if tier else 0.0,
        "tier.shm_share": ratio(total("shm_requests"), total("batches")),
        "tier.shm_fallbacks": total("shm_fallbacks"),
        "tier.restarts": total("restarts"),
        "tier.bytes_per_request": float(workload.request_bytes())
        if tier else 0.0,
    })
    metrics.update(loadgen_metrics(untraced))
    untraced_p50 = layers.quantile(latencies_ms(workload, untraced), 0.5)
    traced_p50 = layers.quantile(latencies_ms(workload, traced), 0.5)
    metrics["tracing.overhead_pct"] = ratio(
        (traced_p50 - untraced_p50) * 100.0, untraced_p50)
    table, remainder = layers.attribution_table(
        components, workload.backend, untraced_p50, kernels)
    metrics["attribution.remainder_ms"] = remainder
    joined = components["total"].size if "total" in components else 0
    unmatched = sum(e["layers"]["unmatched"] for e in traced)
    table += (f"\ntraced requests joined to their records: {joined}"
              f" (not joined: {unmatched}, shed or failed)")
    return {"metrics": metrics, "table": table}


def episode_lines(workload: Workload, episodes: Episodes) -> List[str]:
    lines = []
    for e in episodes:
        status = e["records"]["status"]
        latencies = latencies_ms(workload, [e])
        lines.append(
            f"episode {e['episode']} traced={int(e['traced'])} "
            f"setup_s {e['setup_s']:.4f} steal {e['steal']:.4f} "
            f"sent {status.size} shed {int((status == SHED).sum())} "
            f"p50 {layers.quantile(latencies, 0.5):.2f} "
            f"p99 {layers.quantile(latencies, 0.99):.2f} ms "
            f"window_s {e['window_s']:.2f}")
    return lines
