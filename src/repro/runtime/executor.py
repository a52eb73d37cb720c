"""Reference executor: runs a compiled plan on numpy tensors.

This is the "runtime" stage of the deployment flow (paper Sec. III,
step 6).  The graph is compiled once at construction time
(:func:`repro.runtime.plan.compile_plan`): every node's attributes and
quantization parameters are resolved into a bound kernel callable, and a
liveness schedule (from the activation-memory planner) marks where each
intermediate tensor dies.  :meth:`Executor.run` is then a thin loop —
call the bound kernel, fire hooks, store outputs, drop dead tensors — so
repeated inference pays no per-run dispatch or attr-lookup cost and holds
no more activation memory than the planner's ``peak_live_bytes``.

With ``reuse_buffers=True`` the executor goes one step further: node
outputs are allocated through the plan instance's scratch arena and dead
intermediates are returned to it, so after a warmup run steady-state
inference performs no large heap allocations (the arena's stats counters
prove it).  Callers that want a fully closed loop hand their finished
output arrays back via :meth:`Executor.recycle` — what the serving
engine does after splitting a batch into per-request copies.

It supports float graphs, QDQ-quantized graphs produced by the PTQ pass,
binarized graphs, and fused graphs.  Per-node hooks allow the profiler
(latency/memory measurements, Kenning-style) and the safety fault
injector to observe or perturb intermediate tensors.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Union

import numpy as np

from ..ir.graph import Graph, Node
from ..ir.tensor import TensorSpec
from .arena import RunContext
from .plan import ExecutionError, ExecutionPlan, compile_plan

# Hook signature: (node, output arrays) -> possibly-replaced output arrays.
NodeHook = Callable[[Node, List[np.ndarray]], Optional[List[np.ndarray]]]


class Executor:
    """Executes a graph through its compiled plan.

    Parameters
    ----------
    graph
        The graph to execute; validated and compiled at construction.
    keep_intermediates
        When true, :meth:`run` returns every tensor, not just graph outputs
        (used by the robustness monitors and by debugging tools).  This
        disables early release of dead activations.
    reuse_buffers
        When true, the executor attaches a per-instance scratch arena and
        kernel workspace to the plan and routes all activation storage
        through them.  Incompatible with ``keep_intermediates`` (tensors
        kept for the caller can never be recycled).
    plan
        An already-compiled plan to reuse (compiled steps are immutable
        and shareable); the serving engine passes the same base plan to
        every executor of one batch size instead of recompiling the
        graph.
    prewarm
        With ``reuse_buffers``, pre-populate the scratch arena's free
        pool from the plan's activation shapes so even the first run
        allocates nothing from the heap.
    """

    def __init__(self, graph: Graph, keep_intermediates: bool = False,
                 reuse_buffers: bool = False,
                 plan: Optional[ExecutionPlan] = None,
                 prewarm: bool = False) -> None:
        if keep_intermediates and reuse_buffers:
            raise ValueError(
                "keep_intermediates and reuse_buffers are mutually "
                "exclusive: kept tensors can never be recycled")
        if plan is None:
            plan = compile_plan(graph)
        if reuse_buffers:
            plan = plan.with_buffers(prewarm=prewarm)
        self.plan: ExecutionPlan = plan
        self.graph = graph
        self.specs: Dict[str, TensorSpec] = self.plan.specs
        self.keep_intermediates = keep_intermediates
        self.reuse_buffers = reuse_buffers
        self._ctx: Optional[RunContext] = (
            RunContext(plan.arena, plan.workspace) if reuse_buffers else None)
        self._hooks: List[NodeHook] = []
        # When recording, each run leaves per-step wall spans in
        # last_timeline (the serving engine's trace material).
        self.record_timeline = False
        self.last_timeline: Optional[List[Dict[str, object]]] = None

    def add_hook(self, hook: NodeHook) -> None:
        """Register a per-node hook, called after each node executes."""
        self._hooks.append(hook)

    def clear_hooks(self) -> None:
        self._hooks.clear()

    # -- feeds ---------------------------------------------------------------

    def _check_feeds(self, feeds: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        env: Dict[str, np.ndarray] = {}
        for spec in self.graph.inputs:
            if spec.name not in feeds:
                raise ExecutionError(f"missing feed for graph input {spec.name!r}")
            value = np.asarray(feeds[spec.name])
            if tuple(value.shape) != spec.shape:
                raise ExecutionError(
                    f"feed {spec.name!r} has shape {value.shape}, "
                    f"expected {spec.shape}"
                )
            env[spec.name] = value.astype(spec.dtype.to_numpy(), copy=False)
        extra = set(feeds) - set(env)
        if extra:
            raise ExecutionError(f"unknown feed tensors: {sorted(extra)}")
        return env

    # -- execution -------------------------------------------------------------

    def run(self, feeds: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Run one inference; returns a dict of output name to array."""
        env = self._check_feeds(feeds)
        env.update(self.graph.initializers)
        release = not self.keep_intermediates
        ctx = self._ctx
        # Per-step timeline for tracing/export; one predictable branch
        # per step when disabled, zero allocations.
        timeline: Optional[List[Dict[str, object]]] = (
            [] if self.record_timeline else None)
        clock = time.perf_counter
        t0 = clock() if timeline is not None else 0.0
        for step in self.plan.steps:
            node = step.node
            args = [env[name] for name in node.inputs]
            if timeline is not None:
                step_start = clock()
            try:
                outputs = step.run(args, ctx) if ctx is not None \
                    else step.run(args)
            except ExecutionError:
                raise
            except Exception as exc:
                raise ExecutionError(
                    f"node {node.name!r} ({node.op_type}) failed: {exc}"
                ) from exc
            if timeline is not None:
                timeline.append({
                    "name": node.name, "op": node.op_type,
                    "start": step_start - t0, "end": clock() - t0,
                    "thread": threading.get_ident()})
            for hook in self._hooks:
                replaced = hook(node, outputs)
                if replaced is not None:
                    if ctx is not None:
                        # A hook that substitutes a tensor orphans the
                        # arena original; reclaim it unless the
                        # replacement still aliases its storage.
                        for orig, new in zip(outputs, replaced):
                            if new is not orig and \
                                    not np.may_share_memory(orig, new):
                                ctx.arena.release(orig)
                    outputs = replaced
            for name, value in zip(node.outputs, outputs):
                env[name] = value
            if release:
                for name in step.release:
                    dead = env.pop(name)
                    if ctx is not None:
                        ctx.arena.release(dead)
        if timeline is not None:
            self.last_timeline = timeline
        if self.keep_intermediates:
            return env
        results = {name: env[name] for name in self.graph.output_names}
        if ctx is not None:
            # Outputs escape to the caller; stop tracking them so the
            # arena never hands their storage out again behind the
            # caller's back.  recycle() re-donates them explicitly.
            for value in results.values():
                ctx.arena.detach(value)
        return results

    def recycle(self, outputs: Union[Mapping[str, np.ndarray],
                                     Iterable[np.ndarray]]) -> None:
        """Donate finished output arrays back to the scratch arena.

        No-op without ``reuse_buffers``.  After recycling, the arrays
        must no longer be read — their storage will back future runs.
        """
        if self._ctx is None:
            return
        arrays = outputs.values() if isinstance(outputs, Mapping) else outputs
        for array in arrays:
            self._ctx.arena.adopt(array)

    def __call__(self, feeds: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        return self.run(feeds)


def run_graph(graph: Graph, feeds: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """One-shot convenience wrapper around :class:`Executor`."""
    return Executor(graph).run(feeds)
