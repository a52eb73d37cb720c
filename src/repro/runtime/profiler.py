"""Execution profiler: per-op wall-clock latency and memory accounting.

Provides the measurement half of the Kenning-style benchmarking flow
(paper Sec. III): inference duration, per-layer breakdown, and peak
activation memory.  The analytic hardware model (repro.hw) predicts what a
*target* would do; this profiler measures what the reference runtime
actually does on the host.

Memory accounting follows the executor's liveness schedule: a tensor's
bytes are counted live from the node that produces it until its last
consumer has run, so ``peak_activation_bytes`` is the true live-set peak
— the same quantity the activation-memory planner lower-bounds with
``plan_memory(graph).peak_live_bytes`` — not the monotone sum of every
output ever produced.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping

import numpy as np

from ..ir.graph import Graph, Node
from .executor import Executor


@dataclass
class LayerProfile:
    """Aggregated timing of one node across profiled runs."""

    name: str
    op_type: str
    calls: int = 0
    total_seconds: float = 0.0
    output_bytes: int = 0
    # Analytic work for one call of this node (from the op schema's cost
    # model); zero when the op has no cost model or specs are missing.
    macs: int = 0

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.calls if self.calls else 0.0

    @property
    def achieved_gflops(self) -> float:
        """Achieved GFLOP/s across profiled calls (2 FLOPs per MAC)."""
        if not self.total_seconds or not self.macs:
            return 0.0
        return 2.0 * self.macs * self.calls / self.total_seconds / 1e9


@dataclass
class ProfileResult:
    """Result of profiling a graph over one or more runs."""

    graph_name: str
    runs: int
    total_seconds: float
    layers: List[LayerProfile] = field(default_factory=list)
    peak_activation_bytes: int = 0
    planned_peak_bytes: int = 0     # the plan's predicted live-set peak
    # Scratch-arena behaviour over the timed runs (zero when profiling
    # without reuse_buffers): steady-state inference should show
    # arena_allocations == 0 and a growing arena_reuses.
    arena_allocations: int = 0
    arena_reuses: int = 0

    @property
    def mean_latency_seconds(self) -> float:
        return self.total_seconds / self.runs if self.runs else 0.0

    def by_op_type(self) -> Dict[str, float]:
        """Total seconds grouped by operator kind (hot-spot summary)."""
        totals: Dict[str, float] = {}
        for layer in self.layers:
            totals[layer.op_type] = totals.get(layer.op_type, 0.0) + layer.total_seconds
        return totals

    def report(self, top: int = 10) -> str:
        """Human-readable profile summary, hottest layers first."""
        lines = [
            f"profile of {self.graph_name!r}: {self.runs} runs, "
            f"mean latency {self.mean_latency_seconds * 1e3:.3f} ms, "
            f"peak activations {self.peak_activation_bytes / 1024:.1f} KiB",
        ]
        hottest = sorted(self.layers, key=lambda l: l.total_seconds, reverse=True)
        for layer in hottest[:top]:
            share = (layer.total_seconds / self.total_seconds * 100
                     if self.total_seconds else 0.0)
            rate = (f"  {layer.achieved_gflops:6.2f} GFLOP/s"
                    if layer.macs else "")
            lines.append(
                f"  {layer.name:<28} {layer.op_type:<16} "
                f"{layer.mean_seconds * 1e6:9.1f} us/call  {share:5.1f}%"
                f"{rate}"
            )
        return "\n".join(lines)


class Profiler:
    """Wraps an :class:`Executor` with timing hooks.

    With ``reuse_buffers=True`` the profiled executor runs on its scratch
    arena (outputs are recycled between runs), so the result reports how
    many real allocations the timed runs performed — zero in steady state.
    """

    def __init__(self, graph: Graph, reuse_buffers: bool = False) -> None:
        self.executor = Executor(graph, reuse_buffers=reuse_buffers)
        self.graph = graph

    def _node_macs(self, node: Node) -> int:
        """Analytic MACs for one call of ``node``, 0 when unmodelled."""
        from ..ir.ops import get_op

        specs = self.executor.specs
        try:
            schema = get_op(node.op_type)
            inputs = [specs[name] for name in node.inputs]
            outputs = [specs[name] for name in node.outputs]
            return int(schema.cost(inputs, outputs, node.attrs).macs)
        except Exception:
            return 0

    def _new_layers(self) -> Dict[str, LayerProfile]:
        return {
            node.name: LayerProfile(node.name, node.op_type,
                                    macs=self._node_macs(node))
            for node in self.graph.nodes
        }

    def profile(
        self, feeds: Mapping[str, np.ndarray], runs: int = 3, warmup: int = 1,
    ) -> ProfileResult:
        """Execute ``runs`` timed inferences (after ``warmup`` untimed ones)."""
        if runs < 1:
            raise ValueError("runs must be >= 1")
        layers: Dict[str, LayerProfile] = self._new_layers()
        # Tensors whose last consumer is each node: after that node runs
        # (and its outputs are counted), their bytes leave the live set.
        releases = {step.node.name: step.release
                    for step in self.executor.plan.steps}
        state = {"last": 0.0, "live_bytes": 0, "peak": 0}
        sizes: Dict[str, int] = {}

        def timing_hook(node: Node, outputs):
            now = time.perf_counter()
            profile = layers[node.name]
            profile.calls += 1
            profile.total_seconds += now - state["last"]
            out_bytes = 0
            for name, out in zip(node.outputs, outputs):
                nbytes = int(out.nbytes)
                sizes[name] = nbytes
                out_bytes += nbytes
            profile.output_bytes = out_bytes
            state["live_bytes"] += out_bytes
            state["peak"] = max(state["peak"], state["live_bytes"])
            for name in releases[node.name]:
                state["live_bytes"] -= sizes.pop(name, 0)
            state["last"] = time.perf_counter()
            return None

        for _ in range(warmup):
            self.executor.recycle(self.executor.run(feeds))

        arena = self.executor.plan.arena
        baseline = arena.stats.snapshot() if arena is not None else None
        self.executor.add_hook(timing_hook)
        total = 0.0
        try:
            for _ in range(runs):
                state["live_bytes"] = 0
                sizes.clear()
                start = time.perf_counter()
                state["last"] = start
                out = self.executor.run(feeds)
                total += time.perf_counter() - start
                self.executor.recycle(out)
        finally:
            self.executor.clear_hooks()

        return ProfileResult(
            graph_name=self.graph.name,
            runs=runs,
            total_seconds=total,
            layers=list(layers.values()),
            peak_activation_bytes=state["peak"],
            planned_peak_bytes=self.executor.plan.peak_live_bytes,
            arena_allocations=(arena.stats.allocations - baseline.allocations
                               if arena is not None else 0),
            arena_reuses=(arena.stats.reuses - baseline.reuses
                          if arena is not None else 0),
        )


def profile_graph(graph: Graph, feeds: Mapping[str, np.ndarray],
                  runs: int = 3, warmup: int = 1) -> ProfileResult:
    """One-shot convenience wrapper around :class:`Profiler`."""
    return Profiler(graph).profile(feeds, runs=runs, warmup=warmup)
