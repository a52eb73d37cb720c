"""Conformance suite of the serving front end, run once per backend.

Both backends — the in-process :class:`InferenceEngine` and the
multi-process :class:`ReplicaEngine` — serve through one
:class:`repro.serving.frontend.Frontend`, so every admission, shedding,
completion and telemetry behaviour is checked here against both, with
identical scripts and identical expected counts.
"""

import logging
import sys
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeout
from contextlib import contextmanager

import numpy as np
import pytest

from repro.ir import build_model
from repro.runtime import Executor
from repro.runtime.plan_cache import PlanCache
from repro.serving import (
    EngineClosedError,
    InferenceEngine,
    MetricsRecorder,
    ReplicaEngine,
    RequestShedError,
    ShedPolicy,
    frontend as frontend_module,
    sample_feeds,
)
from repro.telemetry import MetricsRegistry, registry_to_json
from repro.telemetry.collectors import install_runtime_collectors


@pytest.fixture(scope="module")
def mlp_graph():
    return build_model("mlp")


@pytest.fixture(scope="module")
def mlp_feeds(mlp_graph):
    return sample_feeds(mlp_graph, seed=3)


@pytest.fixture(params=["engine", "tier"])
def serve(request, mlp_graph, tmp_path):
    """Factory opening a front end on the parametrized backend; every
    front end it opened is closed at teardown."""
    opened = []

    def open_frontend(**options):
        if request.param == "engine":
            frontend = InferenceEngine(mlp_graph, workers=1,
                                       plan_cache=PlanCache(tmp_path),
                                       **options)
        else:
            frontend = ReplicaEngine(mlp_graph, replicas=1,
                                     cache_dir=tmp_path, **options)
        opened.append(frontend)
        return frontend

    yield open_frontend
    for frontend in opened:
        frontend._dispatch_gate.set()
        frontend.close(timeout=30)


@contextmanager
def held(frontend, feeds):
    """Park the dispatcher at the cleared gate with an empty queue.

    A plug request is served first; once it resolves, the dispatcher
    can only be waiting at the gate, so everything submitted inside the
    block stays queued until the block exits.
    """
    while True:
        frontend._dispatch_gate.clear()
        plug = frontend.infer(feeds)
        try:
            plug.result(timeout=2.0)
            break
        except FutureTimeout:
            # The dispatcher was already parked: let the plug through
            # and park it again behind the next one.
            frontend._dispatch_gate.set()
            plug.result(timeout=60)
    try:
        yield
    finally:
        frontend._dispatch_gate.set()


def outcome(future):
    try:
        future.result(timeout=60)
    except RequestShedError:
        return "shed"
    return "ok"


def shed_reasons(frontend):
    return [event["reason"] for event in frontend.flightrec.events()
            if event["kind"] == "shed"]


class TestFrontend:
    def test_outputs_bitwise_match_direct_executor(self, serve, mlp_graph):
        # Held submissions coalesce into known batches of max_batch, so
        # each result must equal a direct run of the same batch bit for
        # bit (BLAS may round differently at other batch shapes).
        samples = [sample_feeds(mlp_graph, seed=seed) for seed in range(4)]
        frontend = serve(max_batch=2, max_latency_ms=50.0)
        with held(frontend, samples[0]):
            futures = [frontend.infer(sample) for sample in samples]
        results = [future.result(timeout=60) for future in futures]
        direct = Executor(mlp_graph.with_batch(2))
        for start in (0, 2):
            reference = direct.run({
                name: np.concatenate([samples[start][name],
                                      samples[start + 1][name]])
                for name in samples[0]})
            for row in (0, 1):
                result = results[start + row]
                assert set(result) == set(reference)
                for name in reference:
                    assert result[name].dtype == reference[name].dtype
                    assert result[name].tobytes() == \
                        reference[name][row:row + 1].tobytes()

    def test_cancelled_future_does_not_strand_its_batch(self, serve,
                                                        mlp_graph):
        # The client cancels the first request while it waits for a
        # batch partner; the batch still runs with both rows, and the
        # second request must resolve with its own row.
        first_feeds = sample_feeds(mlp_graph, seed=1)
        second_feeds = sample_feeds(mlp_graph, seed=2)
        frontend = serve(max_batch=2, max_latency_ms=200.0)
        first = frontend.infer(first_feeds)
        assert first.cancel()
        second = frontend.infer(second_feeds)
        result = second.result(timeout=30)
        reference = Executor(mlp_graph.with_batch(2)).run({
            name: np.concatenate([first_feeds[name], second_feeds[name]])
            for name in first_feeds})
        for name in reference:
            assert result[name].tobytes() == reference[name][1:2].tobytes()
        assert frontend.metrics().failures == 0

    def test_queue_full_evicts_youngest_lowest_priority(self, serve,
                                                        mlp_feeds):
        frontend = serve(max_batch=1,
                         shed_policy=ShedPolicy(queue_limit=2))
        with held(frontend, mlp_feeds):
            frontend.flightrec.clear()
            old_low = frontend.infer(mlp_feeds, priority=0)
            young_low = frontend.infer(mlp_feeds, priority=0)
            assert frontend.queue.depth() == 2
            high = frontend.infer(mlp_feeds, priority=3)
            late_low = frontend.infer(mlp_feeds, priority=0)
            assert frontend.queue.depth() == 2
        assert [outcome(future) for future in
                (old_low, young_low, high, late_low)] == \
            ["ok", "shed", "ok", "shed"]
        assert frontend.metrics().shed == 2
        assert shed_reasons(frontend) == ["queue_full", "queue_full"]

    def test_queue_bound_holds_under_concurrent_submitters(self, serve,
                                                           mlp_feeds):
        limit, threads, per_thread = 8, 8, 16
        frontend = serve(max_batch=1,
                         shed_policy=ShedPolicy(queue_limit=limit))
        peak = [0]
        submitting = threading.Event()
        futures = []
        futures_lock = threading.Lock()

        def submitter():
            mine = [frontend.infer(mlp_feeds) for _ in range(per_thread)]
            with futures_lock:
                futures.extend(mine)

        def monitor():
            while submitting.is_set():
                peak[0] = max(peak[0], frontend.queue.depth())

        interval = sys.getswitchinterval()
        with held(frontend, mlp_feeds):
            shed_before = frontend.metrics().shed
            sys.setswitchinterval(1e-6)
            try:
                submitting.set()
                watcher = threading.Thread(target=monitor)
                watcher.start()
                workers = [threading.Thread(target=submitter)
                           for _ in range(threads)]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=60)
                    assert not worker.is_alive()
            finally:
                submitting.clear()
                sys.setswitchinterval(interval)
            watcher.join(timeout=10)
            assert not watcher.is_alive()
            queued = frontend.queue.depth()
            shed = frontend.metrics().shed - shed_before
        assert peak[0] <= limit
        assert queued == limit
        assert shed + queued == threads * per_thread
        outcomes = [outcome(future) for future in futures]
        assert outcomes.count("ok") == limit

    def test_breaker_trip_sheds_and_dumps_once(self, serve, mlp_feeds,
                                               tmp_path, monkeypatch):
        # An impossible SLO makes every completion a miss; once the
        # windowed miss rate trips the breaker, priority-0 arrivals are
        # shed at admission while priority-1 traffic is still served.
        # The warm-up burst runs at priority 1: the breaker may trip
        # mid-burst, and it must never touch traffic above
        # shed_priority.
        dumps = tmp_path / "dumps"
        monkeypatch.setenv("REPRO_FLIGHTREC_DIR", str(dumps))
        policy = ShedPolicy(miss_rate_threshold=0.5, shed_priority=0,
                            min_events=4)
        frontend = serve(max_batch=4, max_latency_ms=1.0,
                         default_slo_ms=1e-6, shed_policy=policy)
        frontend.flightrec.clear()
        frontend.infer_many([mlp_feeds] * 8, timeout=60, priority=1)
        assert frontend.metrics().slo_misses == 8
        for _ in range(2):
            with pytest.raises(RequestShedError):
                frontend.infer_sync(mlp_feeds, timeout=60)
        # Higher classes ride out the brownout.
        assert frontend.infer_sync(mlp_feeds, timeout=60, priority=1)
        assert frontend.metrics().shed == 2
        assert shed_reasons(frontend) == ["breaker", "breaker"]
        kinds = [event["kind"] for event in frontend.flightrec.events()]
        assert kinds.count("breaker_trip") == 1
        assert "slo_miss" in kinds and "admit" in kinds
        written = [path for path in dumps.glob("flightrec-*.json")
                   if not path.name.endswith(".trace.json")]
        assert len(written) == 1 and "breaker-trip" in written[0].name

    def test_breaker_closes_once_its_misses_age_out(self, serve,
                                                   mlp_feeds):
        # The breaker judges outcomes from a fixed time window and never
        # counts its own sheds: once the misses that opened it are older
        # than the window, priority-0 traffic is served again, however
        # much the breaker shed meanwhile.  A fake recorder clock moves
        # time; the warm-up runs at priority 1 so a mid-burst trip
        # cannot shed it.
        window_s = frontend_module.BREAKER_WINDOW_S
        now = [0.0]
        policy = ShedPolicy(miss_rate_threshold=0.5, min_events=4)
        frontend = serve(max_batch=4, max_latency_ms=1.0,
                         shed_policy=policy)
        frontend.recorder = MetricsRecorder(clock=lambda: now[0])
        frontend.flightrec.clear()
        frontend.infer_many([mlp_feeds] * 8, timeout=60, slo_ms=1e-6,
                            priority=1)
        assert frontend.metrics().slo_misses == 8
        now[0] += window_s - 1.0          # the misses are still recent
        for _ in range(8):
            with pytest.raises(RequestShedError):
                frontend.infer_sync(mlp_feeds, timeout=60, slo_ms=10000)
        now[0] += 2.0                     # ... and now they are not
        for _ in range(8):
            assert frontend.infer_sync(mlp_feeds, timeout=60,
                                       slo_ms=10000)
        # The breaker's sheds still count everywhere else.
        assert frontend.metrics().shed == 8
        assert shed_reasons(frontend) == ["breaker"] * 8

    def test_adaptive_sheds_doomed_requests(self, serve, mlp_feeds):
        # A request whose deadline passes while queued is shed by the
        # assembly, typed, while fresh traffic keeps flowing.
        frontend = serve(max_batch=2, max_latency_ms=1.0, adaptive=True,
                         headroom_ms=0.0)
        # Warm the latency model past min_samples (a cold model never
        # sheds).
        frontend.infer_many([mlp_feeds] * 16, timeout=60)
        with held(frontend, mlp_feeds):
            frontend.flightrec.clear()
            doomed = frontend.infer(mlp_feeds, slo_ms=0.01)
            time.sleep(0.05)                # the deadline passes queued
        with pytest.raises(RequestShedError):
            doomed.result(timeout=30)
        assert frontend.metrics().shed == 1
        assert shed_reasons(frontend) == ["slo"]
        assert frontend.infer_sync(mlp_feeds, timeout=60)

    def test_close_fails_drained_requests(self, serve, mlp_feeds):
        frontend = serve(max_batch=1)
        with held(frontend, mlp_feeds):
            queued = [frontend.infer(mlp_feeds) for _ in range(3)]
            frontend.close(timeout=0.5)
            for future in queued:
                with pytest.raises(EngineClosedError):
                    future.result(timeout=10)
            with pytest.raises(EngineClosedError):
                frontend.infer(mlp_feeds)
        snapshot = frontend.metrics()
        assert snapshot.failures == 3
        assert snapshot.requests == 1               # the plug
        frontend.close(timeout=10)                  # idempotent

    def test_metrics_counts_and_registry_series(self, serve, mlp_feeds):
        frontend = serve(max_batch=2, max_latency_ms=20.0,
                         default_slo_ms=60_000.0,
                         shed_policy=ShedPolicy(queue_limit=4))
        with held(frontend, mlp_feeds):
            futures = [frontend.infer(mlp_feeds) for _ in range(6)]
        assert sorted(outcome(future) for future in futures) == \
            ["ok"] * 4 + ["shed"] * 2
        frontend.infer_many([mlp_feeds] * 4, timeout=60)
        snapshot = frontend.metrics()
        assert (snapshot.requests, snapshot.failures, snapshot.shed,
                snapshot.slo_misses, snapshot.queue_depth) == \
            (9, 0, 2, 0, 0)
        # One repro_serving_* view, whichever backend serves.
        registry = MetricsRegistry()
        install_runtime_collectors(registry)
        families = {family["name"]: family for family in
                    registry_to_json(registry)["families"]}

        def total(name):
            return sum(sample["value"]
                       for sample in families[name]["samples"])

        assert total("repro_serving_requests_total") >= 9
        assert total("repro_serving_shed_total") >= 2

    def test_slow_request_log_counts(self, serve, mlp_feeds, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.serving"):
            frontend = serve(max_batch=2, slow_request_ms=0.0)
            frontend.infer_many([mlp_feeds] * 4, timeout=60)
            frontend.close(timeout=30)
        assert frontend.slow_requests == 4
        lines = [record.message for record in caplog.records
                 if "slow request" in record.message]
        assert len(lines) == 4

    def test_trace_phases_sum_to_latency(self, serve, mlp_feeds):
        from repro.telemetry import Tracer

        tracer = Tracer(sample_rate=1.0, capacity=64)
        frontend = serve(max_batch=2, tracer=tracer)
        frontend.infer_many([mlp_feeds] * 4, timeout=60)
        frontend.close(timeout=30)
        traces = tracer.traces()
        assert len(traces) == 4
        expected = [phase[0] for phase in frontend._trace_class._PHASES]
        for trace in traces:
            durations = trace.phase_durations_ms()
            total = durations.pop("total")
            assert list(durations) == expected
            assert all(value >= 0.0 for value in durations.values())
            assert sum(durations.values()) == pytest.approx(total,
                                                            abs=1e-6)

    def test_latency_model_persists_and_reloads(self, serve, mlp_feeds):
        first = serve(max_batch=2, adaptive=True)
        first.infer_many([mlp_feeds] * 8, timeout=60)
        first.close(timeout=30)
        trained = first.latency_model.observations
        assert trained > 0
        assert first._latency_model_path.exists()
        # Warm start: the calibration came back from disk.
        second = serve(max_batch=2, adaptive=True)
        assert second.latency_model.observations == trained
