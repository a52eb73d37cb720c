"""The serving front end both backends share.

One application interface whatever runs the batches (the paper's
modular platform, applied to serving): :class:`Frontend` owns everything
between a client's ``infer()`` call and the moment a batch is handed to
a backend, and everything after the backend hands results back.

* **Admission.**  :func:`check_sample` validates and takes ownership of
  the feeds, the request's deadline is stamped from ``slo_ms`` (or the
  frontend's ``default_slo_ms``), the :class:`ShedPolicy` miss-rate
  breaker may shed it on arrival, sampled requests get a trace of the
  backend's trace class, and the request enters the
  :class:`~repro.serving.batcher.BatchQueue`.
* **Shedding, one semantics.**  Every shed request's future fails with
  :class:`~repro.serving.batcher.RequestShedError`, for one of three
  reasons: ``queue_full`` (the queue bound, enforced atomically inside
  ``BatchQueue.submit`` with priority eviction), ``slo`` (the adaptive
  assembly predicted the deadline unmeetable) or ``breaker``.
* **Outcomes and telemetry.**  :meth:`Frontend._complete`,
  :meth:`Frontend._fail` and :meth:`Frontend._shed` are the only places
  futures resolve: they feed the :class:`MetricsRecorder`, the latency
  model, the tracer, the slow-request log and the flight recorder
  (``admit``, ``shed``, ``breaker_trip`` with one dump per trip,
  ``slo_miss``).  A future the client already cancelled is skipped, so
  it never strands the rest of its batch.
* **Lifecycle.**  The adaptive latency model is loaded from a path the
  backend supplies and persisted on close; ``close()`` stops admission,
  joins the backend's dispatchers and fails whatever is still queued
  with :class:`EngineClosedError`.

A backend supplies the batch-1 template, a dispatch loop that pulls
batches through :meth:`Frontend._next_batch`, and three hooks:
``_join_dispatchers``, ``_shutdown`` and ``_snapshot_detail``.
"""

from __future__ import annotations

import logging
import threading
import time
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..ir.graph import Graph
from ..telemetry import collectors as _telemetry
from ..telemetry.flightrec import FlightRecorder, get_flight_recorder
from ..telemetry.tracing import RequestTrace, Tracer
from .batcher import (
    BatchQueue,
    InferenceRequest,
    QueueClosedError,
    RequestShedError,
)
from .latency_model import BatchLatencyModel
from .metrics import MetricsRecorder, MetricsSnapshot

logger = logging.getLogger("repro.serving")

# The miss-rate breaker judges only outcomes from the last this many
# seconds, so it closes again once the misses that opened it age out.
BREAKER_WINDOW_S = 10.0


class EngineClosedError(RuntimeError):
    """Raised when submitting to a serving front end that has been shut
    down, and on the futures of requests a close drained unserved."""


@dataclass(frozen=True)
class ShedPolicy:
    """When and what the front end sheds instead of queueing.

    ``queue_limit`` bounds the batch queue: an arrival past it evicts
    the youngest lowest-priority queued request if the arrival outranks
    it, else the arrival itself is shed.  ``miss_rate_threshold`` arms a
    windowed circuit breaker: once the miss rate (failures + sheds +
    deadline misses over the last ``BREAKER_WINDOW_S`` seconds, not
    counting the breaker's own sheds) reaches it, arriving requests
    with ``priority <= shed_priority`` are shed at admission — the
    lowest classes brown out first while higher classes keep their SLO.
    The breaker only arms with ``min_events`` requests in the window so
    a cold front end is never judged on two data points.  Every shed
    fails the request's future with :class:`RequestShedError`.
    """

    queue_limit: Optional[int] = None
    miss_rate_threshold: Optional[float] = None
    shed_priority: int = 0
    min_events: int = 32


def check_sample(input_specs: Mapping[str, "object"],
                 feeds: Mapping[str, np.ndarray]
                 ) -> Dict[str, np.ndarray]:
    """Validate one single-sample feed dict against ``input_specs``
    (name -> :class:`repro.ir.tensor.TensorSpec`) and return arrays the
    serving pipeline *owns*.

    ``astype(..., copy=False)`` aliases the caller's buffer whenever no
    dtype conversion is needed, so a caller mutating its array after
    ``infer()`` returns would corrupt the in-flight batch; any feed that
    still shares memory with the caller's array is copied here.
    """
    sample: Dict[str, np.ndarray] = {}
    for name, spec in input_specs.items():
        if name not in feeds:
            raise ValueError(f"missing feed for graph input {name!r}")
        raw = feeds[name]
        value = np.asarray(raw)
        if tuple(value.shape) != spec.shape:
            raise ValueError(
                f"feed {name!r} has shape {value.shape}, expected the "
                f"single-sample shape {spec.shape}")
        converted = value.astype(spec.dtype.to_numpy(), copy=False)
        if isinstance(raw, np.ndarray) and \
                np.shares_memory(converted, raw):
            converted = converted.copy()
        sample[name] = converted
    extra = set(feeds) - set(sample)
    if extra:
        raise ValueError(f"unknown feed tensors: {sorted(extra)}")
    return sample


def _settle(future: Future, result=None,
            exc: Optional[BaseException] = None) -> None:
    """Resolve ``future`` unless it is already done — in practice,
    cancelled by its client, possibly between any check and the set."""
    try:
        if exc is None:
            future.set_result(result)
        else:
            future.set_exception(exc)
    except InvalidStateError:
        pass


class Frontend:
    """Admission, shedding, completion and telemetry for one backend.

    Parameters (shared by both backends)
    ------------------------------------
    template
        The served graph at batch 1.
    max_batch / max_latency_ms
        The queue's fixed knobs: batch-size cap and the oldest-request
        timer.
    tracer
        Optional :class:`repro.telemetry.tracing.Tracer`; sampled
        requests carry a ``_trace_class`` trace through the pipeline.
    slow_request_ms
        Log (with the phase breakdown when traced) and count every
        request whose end-to-end latency reaches this many ms.
    adaptive
        SLO-aware assembly: the queue forms the largest batch the
        latency model predicts will meet the tightest queued deadline
        and sheds requests predicted to miss even alone.
    default_slo_ms
        Deadline for requests that pass no ``slo_ms`` (None: best
        effort, never a miss).
    shed_policy
        A :class:`ShedPolicy`; its ``queue_limit`` overrides the
        backend's default ``queue_limit``.
    latency_model
        Inject a shared :class:`BatchLatencyModel`.  It is fed with
        every completed batch, but only an adaptive front end consults
        it.  Without one, an adaptive front end loads the model from
        ``latency_model_path`` (or starts cold) and saves it there on
        close.
    headroom_ms
        Scheduling slack the adaptive assembly reserves on every
        deadline comparison.
    flight_recorder
        The event ring to record into (default: the process-wide one).
    """

    _trace_class = RequestTrace
    # How the backend names itself in errors and log lines.
    _name = "engine"

    def __init__(self, template: Graph, *, max_batch: int,
                 max_latency_ms: float,
                 tracer: Optional[Tracer],
                 slow_request_ms: Optional[float],
                 adaptive: bool,
                 default_slo_ms: Optional[float],
                 shed_policy: Optional[ShedPolicy],
                 latency_model: Optional[BatchLatencyModel],
                 headroom_ms: float,
                 latency_model_path=None,
                 queue_limit: Optional[int] = None,
                 flight_recorder: Optional[FlightRecorder] = None
                 ) -> None:
        self.template = template
        self.max_batch = int(max_batch)
        self._input_specs = {spec.name: spec for spec in template.inputs}
        self.adaptive = bool(adaptive)
        self.default_slo_ms = (float(default_slo_ms)
                               if default_slo_ms is not None else None)
        self.shed_policy = shed_policy
        self.latency_model = latency_model
        self._latency_model_path = None
        if self.adaptive and latency_model is None:
            self._latency_model_path = latency_model_path
            if latency_model_path is not None:
                self.latency_model = BatchLatencyModel.load(
                    latency_model_path)
            if self.latency_model is None:
                self.latency_model = BatchLatencyModel()
        if shed_policy is not None and shed_policy.queue_limit is not None:
            queue_limit = shed_policy.queue_limit
        self.queue = BatchQueue(
            max_batch=max_batch,
            max_latency_s=max_latency_ms / 1e3,
            cost_model=(self.latency_model.predict
                        if self.adaptive else None),
            on_shed=self._shed,
            queue_limit=queue_limit,
            headroom_s=headroom_ms / 1e3)
        self.recorder = MetricsRecorder()
        self.tracer = tracer if tracer is not None and tracer.enabled \
            else None
        self.slow_request_ms = (float(slow_request_ms)
                                if slow_request_ms is not None else None)
        self.slow_requests = 0
        self.flightrec = flight_recorder if flight_recorder is not None \
            else get_flight_recorder()
        self._lock = threading.Lock()
        self._closed = False
        self._breaker_open = False
        # Test seam: clearing the gate holds every dispatcher before it
        # forms its next batch, making queue-drain and shed behaviour
        # deterministic.  close() leaves it alone, so a close under a
        # held gate drains the queue unserved.
        self._dispatch_gate = threading.Event()
        self._dispatch_gate.set()
        # The repro_serving_* series: one registry view of every front
        # end, whichever backend serves it.
        _telemetry.track_frontend(self)

    # -- public API ----------------------------------------------------------

    def infer(self, feeds: Mapping[str, np.ndarray],
              slo_ms: Optional[float] = None,
              priority: int = 0) -> Future:
        """Submit one sample (leading batch axis 1); returns a Future
        resolving to a dict of output name -> array.

        ``slo_ms`` attaches a completion deadline this many ms from now
        (default: ``default_slo_ms``).  ``priority`` orders service and
        shedding (higher serves first, sheds last).  The future fails
        with :class:`RequestShedError` when the request is shed; this
        call raises :class:`EngineClosedError` after close.
        """
        if self._closed:
            raise EngineClosedError(f"{self._name} is closed")
        request = InferenceRequest(
            feeds=check_sample(self._input_specs, feeds),
            priority=int(priority))
        if slo_ms is None:
            slo_ms = self.default_slo_ms
        if slo_ms is not None:
            request.deadline_s = request.enqueued_at + slo_ms / 1e3
        if self._breaker_sheds(request):
            return request.future
        if self.tracer is not None and self.tracer.sample():
            request.trace = self._trace_class(
                self.template.name or "request")
            request.trace.mark("enqueued")
        self.flightrec.record("admit", priority=request.priority,
                              slo_ms=slo_ms)
        try:
            self.queue.submit(request)
        except QueueClosedError:
            # close() won the race between the _closed check and the
            # submit; surface the same typed error as the check.
            raise EngineClosedError(f"{self._name} is closed") from None
        return request.future

    def infer_sync(self, feeds: Mapping[str, np.ndarray],
                   timeout: Optional[float] = None,
                   slo_ms: Optional[float] = None,
                   priority: int = 0) -> Dict[str, np.ndarray]:
        return self.infer(feeds, slo_ms=slo_ms,
                          priority=priority).result(timeout=timeout)

    def infer_many(self, samples: Sequence[Mapping[str, np.ndarray]],
                   timeout: Optional[float] = None,
                   slo_ms: Optional[float] = None,
                   priority: int = 0) -> List[Dict[str, np.ndarray]]:
        """Submit a burst of samples and wait for all results in order."""
        futures = [self.infer(sample, slo_ms=slo_ms, priority=priority)
                   for sample in samples]
        return [future.result(timeout=timeout) for future in futures]

    def metrics(self) -> MetricsSnapshot:
        """A consistent snapshot of throughput, latency, batching, sheds
        and the backend's own detail (arena, plan cache)."""
        return self.recorder.snapshot(queue_depth=self.queue.depth(),
                                      **self._snapshot_detail())

    def close(self, timeout: Optional[float] = None) -> None:
        """Stop admission, let the dispatchers finish, fail whatever is
        still queued with :class:`EngineClosedError`, shut the backend
        down and persist the latency model.  ``timeout`` bounds the
        whole wait."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.queue.close()
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        self._join_dispatchers(deadline)
        drained = self.queue.drain()
        if drained:
            self._fail(drained, EngineClosedError(
                f"{self._name} closed before execution"))
        self._shutdown(deadline)
        if self._latency_model_path is not None and \
                self.latency_model.observations > 0:
            # The next front end on this model starts calibrated.
            try:
                self.latency_model.save(self._latency_model_path)
            except OSError as exc:
                logger.warning("could not persist latency model to %s: "
                               "%s", self._latency_model_path, exc)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- backend hooks -------------------------------------------------------

    def _join_dispatchers(self, deadline: Optional[float]) -> None:
        """Wait (until ``deadline``) for the dispatch threads to exit."""
        raise NotImplementedError

    def _shutdown(self, deadline: Optional[float]) -> None:
        """Release backend resources once no batch can be dispatched."""

    def _snapshot_detail(self) -> Dict[str, object]:
        """Extra :meth:`MetricsRecorder.snapshot` keyword arguments."""
        return {}

    # -- dispatch ------------------------------------------------------------

    def _next_batch(self) -> Optional[List[InferenceRequest]]:
        """The next batch for a dispatcher (None once closed and empty)."""
        self._dispatch_gate.wait()
        batch = self.queue.next_batch()
        if batch is not None and self.tracer is not None:
            dequeued = time.perf_counter()
            for request in batch:
                if request.trace is not None:
                    request.trace.mark("dequeued", at=dequeued)
        return batch

    @staticmethod
    def _join(threads: Sequence[threading.Thread],
              deadline: Optional[float], cap: Optional[float] = None
              ) -> None:
        """Join ``threads`` until ``deadline`` (each wait at most
        ``cap`` s), skipping the calling thread — close() may run from a
        future's done-callback on a backend thread."""
        current = threading.current_thread()
        for thread in threads:
            if thread is current:
                continue
            wait = None if deadline is None \
                else max(0.0, deadline - time.monotonic())
            if cap is not None:
                wait = cap if wait is None else min(wait, cap)
            thread.join(timeout=wait)

    # -- outcomes ------------------------------------------------------------

    def _breaker_sheds(self, request: InferenceRequest) -> bool:
        """Evaluate the miss-rate breaker; shed ``request`` and return
        True when it is open for the request's priority class."""
        policy = self.shed_policy
        if policy is None or policy.miss_rate_threshold is None:
            return False
        events, miss_rate = self.recorder.recent_outcomes(BREAKER_WINDOW_S)
        is_open = events >= policy.min_events and \
            miss_rate >= policy.miss_rate_threshold
        with self._lock:
            tripped = is_open and not self._breaker_open
            self._breaker_open = is_open
        if tripped:
            # One event and one dump per trip, not one per shed while
            # the breaker stays open.
            self.flightrec.record("breaker_trip", miss_rate=miss_rate,
                                  threshold=policy.miss_rate_threshold)
            self.flightrec.try_dump("breaker-trip")
        if is_open and request.priority <= policy.shed_priority:
            self._shed(request, "breaker")
            return True
        return False

    def _shed(self, request: InferenceRequest, reason: str) -> None:
        """Fail one request with the typed shed error and record it
        (the queue's ``on_shed`` callback and the breaker)."""
        self.recorder.record_shed(1, breaker=(reason == "breaker"))
        self.flightrec.record("shed", reason=reason,
                              priority=request.priority)
        deadline_note = ""
        if request.deadline_s is not None:
            remaining_ms = (request.deadline_s - time.monotonic()) * 1e3
            deadline_note = f", {remaining_ms:.1f} ms of SLO budget left"
        _settle(request.future, exc=RequestShedError(
            f"request shed by the {self._name}'s admission control "
            f"({reason}{deadline_note}); retry with backoff or lower "
            f"load"))
        self._finish_traces([request])

    def _fail(self, requests: Sequence[InferenceRequest],
              exc: BaseException) -> None:
        """Record and propagate the failure of ``requests``.  Failure
        latencies join the same percentile window as successes, so p99
        reflects the worst outcomes."""
        failed_at = time.monotonic()
        self.recorder.record_failure(
            len(requests), [failed_at - request.enqueued_at
                            for request in requests])
        for request in requests:
            _settle(request.future, exc=exc)
        self._finish_traces(requests)

    def _complete(self, requests: Sequence[InferenceRequest],
                  results: Sequence[Dict[str, np.ndarray]],
                  observed_s: float) -> None:
        """Resolve a finished batch.  ``observed_s`` is the batch's
        latency-model observation: the interval the adaptive assembly
        adds to "now" when it asks whether a batch of this size makes a
        deadline."""
        size = len(requests)
        if self.latency_model is not None:
            self.latency_model.observe(size, observed_s)
        completed = time.monotonic()
        latencies = [completed - request.enqueued_at
                     for request in requests]
        slo_misses = sum(1 for request in requests
                         if request.deadline_s is not None
                         and completed > request.deadline_s)
        self.recorder.record_batch(size, latencies, slo_misses=slo_misses)
        if slo_misses:
            self.flightrec.record("slo_miss", count=slo_misses, size=size)
        for request, result in zip(requests, results):
            _settle(request.future, result)
        self._finish_traces(requests)
        if self.slow_request_ms is not None:
            self._log_slow(requests, latencies)

    def _finish_traces(self, requests: Sequence[InferenceRequest]
                       ) -> None:
        """Close out the sampled requests' traces, however far they got,
        so partial span trees still export."""
        if self.tracer is None:
            return
        completed = time.perf_counter()
        for request in requests:
            if request.trace is not None:
                request.trace.mark("completed", at=completed)
                self.tracer.finish(request.trace)

    def _log_slow(self, requests: Sequence[InferenceRequest],
                  latencies: List[float]) -> None:
        threshold_s = self.slow_request_ms / 1e3
        slow = [(request, latency) for request, latency
                in zip(requests, latencies) if latency >= threshold_s]
        if not slow:
            return
        with self._lock:
            self.slow_requests += len(slow)
        for request, latency in slow:
            trace = request.trace
            if trace is not None:
                detail = ", ".join(
                    f"{name} {value:.2f} ms" for name, value
                    in trace.phase_durations_ms().items())
                logger.warning(
                    "slow request on the %s (trace %d, batch %d): "
                    "%.2f ms >= %.2f ms (%s)", self._name, trace.trace_id,
                    len(requests), latency * 1e3, self.slow_request_ms,
                    detail)
            else:
                logger.warning(
                    "slow request on the %s (batch %d): %.2f ms >= "
                    "%.2f ms (enable tracing for a phase breakdown)",
                    self._name, len(requests), latency * 1e3,
                    self.slow_request_ms)
