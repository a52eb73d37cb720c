"""Serving layer: one front end (admission, shedding, completion,
telemetry) over two backends — dynamic micro-batching over pooled
execution plans in process, and the multi-process replica tier for
multi-core scale."""

from .batcher import (
    BatchQueue,
    InferenceRequest,
    QueueClosedError,
    RequestShedError,
)
from .bench import (
    BenchResult,
    ReplicaBenchResult,
    TraceReplayResult,
    make_trace,
    render,
    render_replicas,
    render_trace_replay,
    run_bench,
    run_replica_bench,
    run_trace_replay,
    sample_feeds,
)
from .engine import InferenceEngine
from .frontend import EngineClosedError, ShedPolicy, check_sample
from .latency_model import BatchLatencyModel
from .metrics import MetricsRecorder, MetricsSnapshot, percentile
from .replicas import (
    ReplicaCrashError,
    ReplicaEngine,
    ReplicaError,
    ReplicaStats,
    TierSaturatedError,
)

__all__ = [
    "BatchQueue", "InferenceRequest", "QueueClosedError",
    "RequestShedError",
    "BenchResult", "ReplicaBenchResult", "TraceReplayResult",
    "make_trace", "render", "render_replicas", "render_trace_replay",
    "run_bench", "run_replica_bench", "run_trace_replay", "sample_feeds",
    "EngineClosedError", "InferenceEngine", "ShedPolicy",
    "check_sample", "BatchLatencyModel",
    "MetricsRecorder", "MetricsSnapshot", "percentile",
    "ReplicaCrashError", "ReplicaEngine", "ReplicaError",
    "ReplicaStats", "TierSaturatedError",
]
