"""Per-layer attribution from the traces the engines already produce.

A traced episode attaches a :class:`repro.telemetry.tracing.Tracer` to
the engine.  Every finished :class:`RequestTrace` carries the serving
phases (queue wait, dispatch or slot wait, assembly, execute or
dispatch, finalize) and the executor's per-step spans; the replica tier
merges the replica's execute and step spans under its dispatch phase.
This module joins each trace with the load generator's record of the
same request (scheduled, sent and answered times), so that a request's
components add up exactly to its measured latency:

    latency = lag + admission + <serving phases> + executor + kernels
              + finalize (until the future is answered)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

KERNEL_OPS = ("maxpool2d", "conv2d", "leaky_relu", "batchnorm",
              "avgpool2d", "dense", "relu", "softmax")

# Component -> layer it is charged to, per backend.
ENGINE_LAYERS = (
    ("lag", "loadgen"),
    ("admission", "serving.engine"),
    ("queue_wait", "serving.batcher"),
    ("dispatch_wait", "serving.engine"),
    ("batch_assembly", "serving.engine"),
    ("executor_overhead", "runtime.executor"),
    ("kernels", "runtime.kernels"),
    ("finalize", "serving.engine"),
)
TIER_LAYERS = (
    ("lag", "loadgen"),
    ("admission", "serving.replicas"),
    ("queue_wait", "serving.batcher"),
    ("slot_wait", "serving.replicas"),
    ("batch_assembly", "serving.replicas"),
    ("ipc", "serving.shm"),
    ("executor_overhead", "runtime.executor"),
    ("kernels", "runtime.kernels"),
    ("finalize", "serving.replicas"),
)


def _phases(root) -> Dict[str, object]:
    return {span.name: span for span in root.children}


def _steps(span) -> List:
    return [child for child in span.children
            if child.category not in ("serving", "replica", "request")]


class CostTable:
    """``OpCost`` ops and computed bytes per node, per batch size."""

    def __init__(self, graph) -> None:
        self.template = graph.with_batch(1)
        self._by_batch: Dict[int, Dict[str, Tuple[int, int]]] = {}

    def lookup(self, batch: int, node: str) -> Optional[Tuple[int, int]]:
        table = self._by_batch.get(batch)
        if table is None:
            graph = self.template.with_batch(batch)
            table = {n.name: (cost.ops,
                              cost.activation_bytes + cost.weight_bytes)
                     for n, cost in graph.per_node_cost()}
            self._by_batch[batch] = table
        return table.get(node)


def extract(traces: Sequence, records: Dict[str, np.ndarray],
            backend: str, costs: CostTable,
            predict=None) -> Dict[str, object]:
    """Per-request components and per-batch kernel rows of one traced
    episode.  ``predict`` is the engine's latency model, if it has one."""
    sent = records["sent"]
    returned = records["returned"]
    order = np.argsort(sent)
    sent_sorted = sent[order]
    components: Dict[str, List[float]] = {}
    batches: Dict[object, Dict[str, object]] = {}
    unmatched = 0
    for trace in traces:
        root = trace.build_spans()
        enqueued = trace.marks.get("enqueued")
        if root is None or enqueued is None:
            continue
        pos = int(np.searchsorted(sent_sorted, enqueued, "right")) - 1
        slot = int(order[pos]) if pos >= 0 else -1
        if slot < 0 or not enqueued <= returned[slot] or \
                records["status"][slot] != 0:
            unmatched += 1
            continue
        phases = _phases(root)
        done = records["done"][slot]
        row = {"lag": sent[slot] - records["scheduled"][slot],
               "admission": enqueued - sent[slot],
               "queue_wait": phases["queue_wait"].duration_s}
        row["batch_assembly"] = phases["batch_assembly"].duration_s
        if backend == "tier":
            # The replica's spans hang under the dispatch phase; the batch
            # is identified by its (shared) replica_batch span.
            remote = [child for child in phases["dispatch"].children
                      if child.name == "replica_batch"]
            execute = remote[0].children[0] if remote else None
            row["slot_wait"] = phases["slot_wait"].duration_s
            key = id(remote[0]) if remote else None
        else:
            execute = phases["execute"]
            row["dispatch_wait"] = phases["dispatch_wait"].duration_s
            key = trace.marks.get("execute_t0")
        if execute is None:
            unmatched += 1
            continue
        steps = _steps(execute)
        step_s = sum(step.duration_s for step in steps)
        row["executor_overhead"] = execute.duration_s - step_s
        row["kernels"] = step_s
        if backend == "tier":
            row["ipc"] = phases["dispatch"].duration_s - execute.duration_s
        row["finalize"] = done - phases["finalize"].start_s
        row["total"] = done - records["scheduled"][slot]
        per_op: Dict[str, float] = {}
        for step in steps:
            per_op[step.category] = per_op.get(step.category, 0.0) \
                + step.duration_s
        for op in KERNEL_OPS:
            row[f"kernel.{op}"] = per_op.get(op, 0.0)
        for name, value in row.items():
            components.setdefault(name, []).append(value * 1e3)
        if key is not None and key not in batches:
            size = trace.batch_size
            ops = {}
            for step in steps:
                cost = costs.lookup(size, step.name)
                if cost is not None:
                    prior = ops.get(step.category, (0, 0))
                    ops[step.category] = (prior[0] + cost[0],
                                          prior[1] + cost[1])
            entry = {"size": size, "execute_ms": execute.duration_s * 1e3,
                     "steps_ms": step_s * 1e3,
                     "op_ms": {op: t * 1e3 for op, t in per_op.items()},
                     "op_cost": ops}
            # What the latency model predicts: dispatch to completion on
            # the tier, assembly to results in the in-process engine.
            if backend == "tier":
                task = phases["dispatch"].duration_s
                entry["dispatch_ms"] = task * 1e3
            else:
                task = phases["finalize"].end_s - phases[
                    "batch_assembly"].start_s
            predicted = predict(size) if predict is not None else None
            if predicted is not None:
                entry["predict_err_ms"] = abs(predicted - task) * 1e3
            batches[key] = entry
    return {"components": {name: np.asarray(values)
                           for name, values in components.items()},
            "batches": list(batches.values()),
            "unmatched": unmatched}


def median(values) -> float:
    values = np.asarray(values, dtype=float)
    return float(np.median(values)) if values.size else 0.0


def quantile(values, q: float) -> float:
    values = np.sort(np.asarray(values, dtype=float))
    if not values.size:
        return 0.0
    rank = int(round(q * (values.size - 1)))
    return float(values[rank])


def merge(extracts: Sequence[Dict[str, object]]) -> Dict[str, object]:
    components: Dict[str, List[np.ndarray]] = {}
    batches: List[Dict[str, object]] = []
    for part in extracts:
        for name, values in part["components"].items():
            components.setdefault(name, []).append(values)
        batches.extend(part["batches"])
    return {"components": {name: np.concatenate(parts)
                           for name, parts in components.items()},
            "batches": batches}


def kernel_metrics(batches: Sequence[Dict[str, object]]
                   ) -> Dict[str, float]:
    """``kernels.<op>.ms`` (median per plan run), GFLOP/s and GB/s from
    ``OpCost`` ops and computed bytes over all traced runs."""
    metrics: Dict[str, float] = {}
    for op in KERNEL_OPS:
        times = [batch["op_ms"][op] for batch in batches
                 if op in batch["op_ms"]]
        total_ms = sum(times)
        ops = sum(batch["op_cost"].get(op, (0, 0))[0] for batch in batches)
        moved = sum(batch["op_cost"].get(op, (0, 0))[1]
                    for batch in batches)
        seconds = total_ms / 1e3
        metrics[f"kernels.{op}.ms"] = median(times)
        metrics[f"kernels.{op}.gflops"] = ops / seconds / 1e9 \
            if seconds > 0 else 0.0
        metrics[f"kernels.{op}.gbps"] = moved / seconds / 1e9 \
            if seconds > 0 else 0.0
    return metrics


def executor_metrics(batches: Sequence[Dict[str, object]],
                     max_batch: int = 8) -> Dict[str, float]:
    metrics = {}
    for size in range(1, max_batch + 1):
        metrics[f"executor.run_ms.b{size}"] = median(
            [b["execute_ms"] for b in batches if b["size"] == size])
    metrics["executor.unattributed_ms"] = median(
        [b["execute_ms"] - b["steps_ms"] for b in batches])
    return metrics


def band(components: Dict[str, np.ndarray], low: float = 0.4,
         high: float = 0.6) -> Dict[str, float]:
    """Mean of every component over the requests whose total latency
    lies between the ``low`` and ``high`` quantiles: the components of a
    typical (median) request, which sum to that band's mean latency."""
    total = components.get("total")
    if total is None or not total.size:
        return {}
    lo, hi = np.quantile(total, [low, high])
    mask = (total >= lo) & (total <= hi)
    return {name: float(values[mask].mean())
            for name, values in components.items()}


def attribution_table(components: Dict[str, np.ndarray], backend: str,
                      untraced_p50_ms: float, kernels: Dict[str, float]
                      ) -> Tuple[str, float]:
    """Self time per layer for a median request; returns the rendered
    table and the remainder (untraced p50 minus the attributed sum)."""
    typical = band(components)
    layout = TIER_LAYERS if backend == "tier" else ENGINE_LAYERS
    layers: Dict[str, float] = {}
    lines = [f"{'layer':<22} {'component':<20} {'self ms':>9}"
             f" {'GFLOP/s':>9} {'GB/s*':>8}"]
    for component, layer in layout:
        layers[layer] = layers.get(layer, 0.0) + typical.get(component, 0.0)
    for component, layer in layout:
        lines.append(f"{layer:<22} {component:<20} "
                     f"{typical.get(component, 0.0):9.3f}")
        if component == "kernels":
            for op in KERNEL_OPS:
                value = typical.get(f"kernel.{op}", 0.0)
                if value <= 0:
                    continue
                lines.append(
                    f"{'':<22} {'  ' + op:<20} {value:9.3f}"
                    f" {kernels[f'kernels.{op}.gflops']:9.2f}"
                    f" {kernels[f'kernels.{op}.gbps']:8.2f}")
    attributed = sum(layers.values())
    lines.append("-" * 71)
    for layer, value in layers.items():
        lines.append(f"{layer:<43} {value:9.3f}")
    remainder = untraced_p50_ms - attributed
    lines += [
        f"{'attributed (sum of self times)':<43} {attributed:9.3f}",
        f"{'traced p50':<43} {median(components.get('total', [])):9.3f}",
        f"{'untraced p50':<43} {untraced_p50_ms:9.3f}",
        f"{'remainder (untraced p50 - attributed)':<43} {remainder:9.3f}",
        "* GB/s from OpCost computed bytes (activations + weights), "
        "not measured traffic",
    ]
    return "\n".join(lines), remainder

