"""The benchmark workloads: model, engine, load shape, limits.

``BENCHMARK.json`` lists yolo-camera and convnet-tier.  sensor-burst runs
by hand only: the share of its bursts it sheds follows the CPU the host
leaves it, too unsteady for a regression bound.

Each workload is served through a public engine API
(:class:`repro.serving.engine.InferenceEngine` or
:class:`repro.serving.replicas.ReplicaEngine`).  A run is split into
*episodes*; every episode is a fresh process that sets the engine up
from an empty plan-cache directory, warms it, and measures for its share
of the run.  Inputs and arrival schedules come only from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

# Warmup for every workload, shaped like the one ``repro.serving.bench``
# runs before a trace replay: 32 requests at ``max_batch`` concurrency
# (compiles the per-size plans, calibrates adaptive engines), then 4 one
# at a time.  The first answered warmup request ends set-up.
WARMUP_REQUESTS = 32
WARMUP_TAIL = 4

# A send later than this behind its schedule counts as late.
LATE_MS = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: str
    model_kwargs: Dict[str, int]
    backend: str                 # "engine" (in-process) or "tier"
    engine_kwargs: Dict[str, object]
    loop: str                    # "closed" (one client) or "open"
    arrivals: Optional[str]      # make_trace kind for the open loop
    rate_rps: float              # mean offered rate (open loop)
    limit_ms: float              # latency limit for slo_attainment
    episode_s: float             # target measured seconds per episode
    pool_size: int               # distinct inputs drawn from the seed
    trace_rate: float            # Tracer sample rate in traced episodes
    # Warm every batch size on every replica.  Replicas build an executor
    # and arena per batch size on first use, so without this the peak
    # memory depends on which sizes the arrivals happened to form.  Not
    # used on the adaptive engine: extra calibration samples would change
    # the admission behaviour the workload measures.
    sweep_sizes: bool = False

    @property
    def max_batch(self) -> int:
        return int(self.engine_kwargs.get("max_batch", 8))

    def episodes(self, seconds: float, traced: bool) -> int:
        count = max(1, int(round(seconds / self.episode_s)))
        if traced:
            # Untraced and traced episodes alternate, so the tracing
            # overhead is measured against the same process history.
            count = max(2, count + count % 2)
        return count

    def build_graph(self):
        from repro.ir import build_model

        return build_model(self.model, **self.model_kwargs)

    def engine_class(self):
        """The serving API under test (imported here, so that callers can
        keep module import out of the timed set-up)."""
        if self.backend == "tier":
            from repro.serving.replicas import ReplicaEngine

            return ReplicaEngine
        from repro.serving.engine import InferenceEngine

        return InferenceEngine

    def input_shape(self) -> Tuple[int, ...]:
        return tuple(self.build_graph().with_batch(1).inputs[0].shape)

    def request_bytes(self) -> int:
        """Input plus output tensor bytes of one request (computed from
        the specs, not measured)."""
        template = self.build_graph().with_batch(1)
        specs = template.infer_specs()
        return sum(spec.size_bytes for spec in template.inputs) + sum(
            specs[name].size_bytes for name in template.output_names)

    def input_pool(self, seed: int) -> np.ndarray:
        """``pool_size`` distinct single-sample inputs, stacked."""
        shape = self.input_shape()
        rng = np.random.default_rng([seed, 0])
        return rng.standard_normal(
            (self.pool_size,) + tuple(shape[1:])).astype(np.float32)

    def schedule(self, seed: int, episode: int, seconds: float
                 ) -> Tuple[List[float], np.ndarray]:
        """(arrival offsets in seconds, input index per request) for one
        episode.  Closed loops get no offsets, only an index stream."""
        rng = np.random.default_rng([seed, 1, episode])
        if self.loop == "open":
            from repro.serving.bench import make_trace

            trace_seed = int(rng.integers(0, 2 ** 31))
            arrivals = make_trace(self.arrivals, self.rate_rps, seconds,
                                  seed=trace_seed)
            count = len(arrivals)
        else:
            arrivals = []
            count = 1 << 16
        return arrivals, rng.integers(0, self.pool_size, count)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload(
            name="yolo-camera",
            why="batch-1 edge-camera latency on float tiny_yolo: executor "
                "steps and pooling kernels dominate, batching and data "
                "plane are idle",
            model="tiny_yolo", model_kwargs={"image_size": 96},
            backend="engine",
            engine_kwargs={"workers": 1, "max_batch": 1},
            loop="closed", arrivals=None, rate_rps=0.0,
            # One frame at 30 fps: the camera's own deadline.
            limit_ms=33.3,
            episode_s=15.0, pool_size=32, trace_rate=1.0),
        Workload(
            name="sensor-burst",
            why="bursty 1000 rps motor_net stream on the adaptive engine: "
                "batcher, latency model and shed path dominate, kernels "
                "are cheap",
            model="motor_net", model_kwargs={},
            backend="engine",
            engine_kwargs={"max_batch": 8, "adaptive": True,
                           # The trace-replay default: a quarter of
                           # the SLO as scheduling slack.
                           "headroom_ms": 6.25},
            loop="open", arrivals="bursty", rate_rps=1000.0,
            limit_ms=25.0,
            episode_s=2.5, pool_size=512, trace_rate=0.2),
        Workload(
            name="convnet-tier",
            why="Poisson 250 rps tiny_convnet on two replica processes: "
                "the only path crossing processes, with slot wait, copies "
                "and IPC next to replica-side kernels",
            model="tiny_convnet", model_kwargs={"image_size": 64},
            backend="tier",
            engine_kwargs={"replicas": 2, "max_batch": 8},
            loop="open", arrivals="poisson", rate_rps=250.0,
            limit_ms=50.0,
            episode_s=15.0, pool_size=64, trace_rate=0.2,
            sweep_sizes=True),
    )
}
