"""Tests for repro.serving: micro-batching queue, engine, metrics, bench."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.ir import build_model
from repro.runtime import Executor
from repro.serving import (
    BatchQueue,
    EngineClosedError,
    InferenceEngine,
    InferenceRequest,
    MetricsRecorder,
    QueueClosedError,
    check_sample,
    percentile,
    run_bench,
    sample_feeds,
)
from repro.serving.bench import render


def make_request(value=0.0, shape=(1, 4)):
    return InferenceRequest(feeds={"input": np.full(shape, value,
                                                    dtype=np.float32)})


class TestBatchQueue:
    def test_coalesces_up_to_max_batch(self):
        queue = BatchQueue(max_batch=4, max_latency_s=10.0)
        for i in range(6):
            queue.submit(make_request(i))
        first = queue.next_batch()
        second = queue.next_batch()
        assert len(first) == 4 and len(second) == 2
        assert queue.depth() == 0

    def test_deadline_dispatches_partial_batch(self):
        queue = BatchQueue(max_batch=8, max_latency_s=0.02)
        queue.submit(make_request())
        start = time.monotonic()
        batch = queue.next_batch()
        waited = time.monotonic() - start
        assert len(batch) == 1
        assert waited >= 0.015

    def test_batch_one_skips_deadline_wait(self):
        queue = BatchQueue(max_batch=1, max_latency_s=10.0)
        queue.submit(make_request())
        start = time.monotonic()
        assert len(queue.next_batch()) == 1
        assert time.monotonic() - start < 1.0

    def test_submit_after_close_raises(self):
        queue = BatchQueue()
        queue.close()
        with pytest.raises(RuntimeError):
            queue.submit(make_request())

    def test_next_batch_returns_none_when_closed_and_empty(self):
        queue = BatchQueue()
        results = []

        def consumer():
            results.append(queue.next_batch())

        thread = threading.Thread(target=consumer)
        thread.start()
        time.sleep(0.05)
        queue.close()
        thread.join(timeout=5)
        assert results == [None]

    def test_close_releases_blocked_deadline_wait(self):
        queue = BatchQueue(max_batch=8, max_latency_s=30.0)
        queue.submit(make_request())
        results = []

        def consumer():
            results.append(queue.next_batch())

        thread = threading.Thread(target=consumer)
        thread.start()
        time.sleep(0.05)
        queue.close()
        thread.join(timeout=5)
        assert len(results) == 1 and len(results[0]) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchQueue(max_batch=0)
        with pytest.raises(ValueError):
            BatchQueue(max_latency_s=-1.0)
        with pytest.raises(ValueError):
            BatchQueue(queue_limit=0, on_shed=lambda request, reason: None)
        with pytest.raises(ValueError):
            BatchQueue(queue_limit=4)       # queue_limit needs on_shed


class TestBatchQueueDeadlineEdges:
    def test_max_latency_zero_dispatches_immediately(self):
        # The fast path: no timer, whatever is queued goes at once.
        queue = BatchQueue(max_batch=8, max_latency_s=0.0)
        for i in range(3):
            queue.submit(make_request(i))
        start = time.monotonic()
        batch = queue.next_batch()
        assert len(batch) == 3
        assert time.monotonic() - start < 0.5

    def test_submit_after_close_raises_typed_error(self):
        queue = BatchQueue()
        queue.close()
        with pytest.raises(QueueClosedError):
            queue.submit(make_request())

    def test_burst_arriving_at_deadline_expiry_is_not_lost(self):
        # Requests landing exactly as the oldest request's timer fires
        # must end up in this dispatch or the next one — never dropped.
        queue = BatchQueue(max_batch=8, max_latency_s=0.05)
        served = []
        done = threading.Event()

        def consumer():
            while True:
                batch = queue.next_batch()
                if batch is None:
                    return
                served.extend(batch)
                if len(served) >= 8:
                    done.set()
                    queue.close()

        thread = threading.Thread(target=consumer)
        queue.submit(make_request())
        thread.start()
        time.sleep(0.05)                     # the oldest's deadline
        for i in range(7):
            queue.submit(make_request(i))
        assert done.wait(timeout=5)
        thread.join(timeout=5)
        assert len(served) == 8
        assert queue.depth() == 0

    def test_close_during_adaptive_deadline_wait_flushes_request(self):
        # A request parked in the adaptive wait-for-more-arrivals state
        # must be dispatched (not stranded) when the queue closes.
        shed = []
        queue = BatchQueue(max_batch=8, max_latency_s=30.0,
                           cost_model=lambda n: 1e-4,
                           on_shed=lambda request, reason:
                           shed.append(request))
        request = make_request()
        request.deadline_s = time.monotonic() + 10.0
        queue.submit(request)
        results = []

        def consumer():
            results.append(queue.next_batch())

        thread = threading.Thread(target=consumer)
        thread.start()
        time.sleep(0.05)
        queue.close()
        thread.join(timeout=5)
        assert len(results) == 1 and results[0] is not None
        assert len(results[0]) == 1
        assert shed == []


class TestMetrics:
    def test_percentile_nearest_rank(self):
        values = sorted([1.0, 2.0, 3.0, 4.0])
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile([], 50) == 0.0

    def test_recorder_snapshot(self):
        recorder = MetricsRecorder()
        recorder.record_batch(4, [0.001, 0.002, 0.003, 0.004])
        recorder.record_batch(1, [0.010])
        recorder.record_failure(2)
        snapshot = recorder.snapshot(queue_depth=3)
        assert snapshot.requests == 5
        assert snapshot.batches == 2
        assert snapshot.failures == 2
        assert snapshot.queue_depth == 3
        assert snapshot.batch_histogram == {4: 1, 1: 1}
        assert snapshot.mean_batch == pytest.approx(2.5)
        assert snapshot.p99_ms == pytest.approx(10.0)
        assert "requests 5" in snapshot.report()


@pytest.fixture(scope="module")
def mlp_graph():
    return build_model("mlp")


@pytest.fixture(scope="module")
def mlp_feeds(mlp_graph):
    return sample_feeds(mlp_graph, seed=3)


class TestInferenceEngine:
    def test_single_request_matches_direct_executor(self, mlp_graph,
                                                    mlp_feeds):
        reference = Executor(mlp_graph.with_batch(1)).run(mlp_feeds)
        with InferenceEngine(mlp_graph, workers=1, max_batch=1) as engine:
            got = engine.infer_sync(mlp_feeds, timeout=10)
        assert set(got) == set(reference)
        for name in reference:
            assert got[name].dtype == reference[name].dtype
            np.testing.assert_allclose(got[name], reference[name],
                                       rtol=1e-5, atol=1e-6)

    def test_burst_is_batched_and_results_match(self, mlp_graph, mlp_feeds):
        reference = Executor(mlp_graph.with_batch(1)).run(mlp_feeds)
        with InferenceEngine(mlp_graph, workers=1, max_batch=8,
                             max_latency_ms=50.0) as engine:
            results = engine.infer_many([mlp_feeds] * 16, timeout=10)
            snapshot = engine.metrics()
        assert len(results) == 16
        for result in results:
            for name in reference:
                np.testing.assert_allclose(result[name], reference[name],
                                           rtol=1e-5, atol=1e-6)
        assert snapshot.requests == 16
        assert snapshot.mean_batch > 1.0          # coalescing happened
        assert max(snapshot.batch_histogram) > 1

    def test_adaptive_path_is_bitwise_identical_to_fixed(self, mlp_graph,
                                                         mlp_feeds):
        # The semantics bar extended to SLO-aware batching: for the same
        # batch composition, an admitted request's outputs must be
        # bit-for-bit what the fixed-knob engine produces.  Both engines
        # are forced into one deterministic batch of 4 (huge timer, 4
        # submissions, generous deadline; the adaptive model is
        # pre-warmed so the deadline-aware policy — not the cold-model
        # fallback — does the assembly).
        from repro.serving import BatchLatencyModel

        def run(adaptive):
            model = None
            if adaptive:
                model = BatchLatencyModel(min_samples=1)
                for size in (1, 2, 4):
                    for _ in range(8):
                        model.observe(size, 1e-5 * size)
            with InferenceEngine(mlp_graph, workers=1, max_batch=4,
                                 max_latency_ms=5000.0,
                                 adaptive=adaptive,
                                 latency_model=model) as engine:
                futures = [engine.infer(mlp_feeds, slo_ms=60_000.0)
                           for _ in range(4)]
                results = [future.result(timeout=30) for future in futures]
                histogram = engine.metrics().batch_histogram
            return results, histogram

        fixed_results, fixed_hist = run(adaptive=False)
        adaptive_results, adaptive_hist = run(adaptive=True)
        # Same composition (one batch of 4) on both paths...
        assert fixed_hist == {4: 1}
        assert adaptive_hist == {4: 1}
        # ...therefore bitwise-identical outputs.
        for fixed, got in zip(fixed_results, adaptive_results):
            assert set(fixed) == set(got)
            for name in fixed:
                assert fixed[name].dtype == got[name].dtype
                np.testing.assert_array_equal(fixed[name], got[name])

    def test_light_load_degrades_to_batch_one(self, mlp_graph, mlp_feeds):
        with InferenceEngine(mlp_graph, workers=1, max_batch=8,
                             max_latency_ms=1.0) as engine:
            for _ in range(3):
                engine.infer_sync(mlp_feeds, timeout=10)
                time.sleep(0.01)
            snapshot = engine.metrics()
        assert snapshot.batch_histogram.get(1, 0) >= 3

    def test_steady_state_is_allocation_free(self, mlp_graph, mlp_feeds):
        with InferenceEngine(mlp_graph, workers=1, max_batch=4,
                             max_latency_ms=20.0) as engine:
            engine.infer_many([mlp_feeds] * 8, timeout=10)   # warmup
            before = engine.metrics()
            engine.infer_many([mlp_feeds] * 8, timeout=10)
            after = engine.metrics()
        assert after.arena_allocations == before.arena_allocations
        assert after.arena_large_allocations == before.arena_large_allocations
        assert after.arena_reuses > before.arena_reuses

    def test_shape_and_name_validation(self, mlp_graph, mlp_feeds):
        with InferenceEngine(mlp_graph, workers=1, max_batch=1) as engine:
            with pytest.raises(ValueError, match="missing feed"):
                engine.infer({})
            bad = {name: np.concatenate([arr, arr], axis=0)
                   for name, arr in mlp_feeds.items()}
            with pytest.raises(ValueError, match="shape"):
                engine.infer(bad)
            with pytest.raises(ValueError, match="unknown feed"):
                engine.infer({**mlp_feeds, "bogus": np.zeros(3)})

    def test_submit_after_close_raises(self, mlp_graph, mlp_feeds):
        engine = InferenceEngine(mlp_graph, workers=1, max_batch=1)
        engine.close()
        with pytest.raises(EngineClosedError):
            engine.infer(mlp_feeds)
        engine.close()                            # idempotent

    def test_execution_error_propagates_to_futures(self, mlp_graph,
                                                   mlp_feeds,
                                                   monkeypatch):
        engine = InferenceEngine(mlp_graph, workers=1, max_batch=2,
                                 max_latency_ms=20.0)
        try:
            def explode(self, feeds):
                raise RuntimeError("kernel exploded")

            monkeypatch.setattr(Executor, "run", explode)
            futures = [engine.infer(mlp_feeds) for _ in range(2)]
            for future in futures:
                with pytest.raises(RuntimeError, match="kernel exploded"):
                    future.result(timeout=10)
            assert engine.metrics().failures == 2
        finally:
            monkeypatch.undo()
            engine.close()

    def test_worker_pool_serves_concurrent_clients(self, mlp_graph,
                                                   mlp_feeds):
        with InferenceEngine(mlp_graph, workers=2, max_batch=2,
                             max_latency_ms=1.0) as engine:
            errors = []

            def client():
                try:
                    for _ in range(5):
                        engine.infer_sync(mlp_feeds, timeout=10)
                except BaseException as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=client) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            snapshot = engine.metrics()
        assert not errors
        assert snapshot.requests == 20
        assert snapshot.failures == 0


class TestEngineShutdownRaces:
    def test_queue_closed_race_surfaces_typed_error(self, mlp_graph,
                                                    mlp_feeds):
        # Deterministic replay of the submit-vs-close race window: the
        # engine's _closed flag is still False but the queue is already
        # closed.  Submitting must surface EngineClosedError, never the
        # queue's internal QueueClosedError (or a bare RuntimeError).
        engine = InferenceEngine(mlp_graph, workers=1, max_batch=1)
        try:
            engine.queue.close()
            with pytest.raises(EngineClosedError):
                engine.infer(mlp_feeds)
        finally:
            engine.close()

    def test_queue_submit_raises_typed_error(self):
        queue = BatchQueue()
        queue.close()
        with pytest.raises(QueueClosedError):
            queue.submit(make_request())
        assert issubclass(QueueClosedError, RuntimeError)

    def test_submit_vs_close_stress_every_future_resolves(self, mlp_graph,
                                                          mlp_feeds):
        # 100 consecutive engine lifetimes with a client submitting
        # concurrently with close(): every accepted future must resolve
        # (result or EngineClosedError) — nothing hangs, nothing leaks a
        # bare RuntimeError.
        for _ in range(100):
            engine = InferenceEngine(mlp_graph, workers=1, max_batch=2,
                                     max_latency_ms=0.5)
            futures = []
            started = threading.Barrier(2)

            def client():
                started.wait()
                for _ in range(8):
                    try:
                        futures.append(engine.infer(mlp_feeds))
                    except EngineClosedError:
                        return

            thread = threading.Thread(target=client)
            thread.start()
            started.wait()
            engine.close(timeout=10)
            thread.join(timeout=10)
            assert not thread.is_alive()
            for future in futures:
                try:
                    result = future.result(timeout=10)
                except EngineClosedError:
                    continue
                assert set(result) == {
                    name for name in mlp_graph.output_names}

    def test_close_counts_drained_requests_as_failures(self, mlp_graph,
                                                       mlp_feeds):
        engine = InferenceEngine(mlp_graph, workers=1, max_batch=1,
                                 max_latency_ms=1.0)
        running, release = threading.Event(), threading.Event()
        checkout = engine._checkout

        def gated_checkout(batch):
            running.set()
            assert release.wait(30)
            return checkout(batch)

        # The only dispatch thread blocks inside its first batch, so
        # every later request is stuck in the queue: close() must drain
        # those as *counted* failures.
        engine._checkout = gated_checkout
        blocker = engine.infer(mlp_feeds)
        assert running.wait(5)
        queued = [engine.infer(mlp_feeds) for _ in range(3)]
        engine.close(timeout=0.5)
        for future in queued:
            with pytest.raises(EngineClosedError):
                future.result(timeout=10)
        snapshot = engine.metrics()
        assert snapshot.failures == 3
        assert snapshot.failure_rate > 0.0
        # Let the stranded batch finish: its request completes normally
        # (close never abandoned it) and the thread then exits.
        release.set()
        assert blocker.result(timeout=10)
        for thread in engine._dispatchers:
            thread.join(timeout=10)
            assert not thread.is_alive()


def dispatch_threads():
    return [thread for thread in threading.enumerate()
            if thread.name.startswith("repro-serve-dispatch")]


class TestEngineDispatchThreads:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_close_joins_every_dispatch_thread(self, mlp_graph, mlp_feeds,
                                               workers):
        engine = InferenceEngine(mlp_graph, workers=workers, max_batch=2,
                                 max_latency_ms=0.5)
        try:
            assert len(dispatch_threads()) == workers
            results = engine.infer_many([mlp_feeds] * 8, timeout=30)
            assert len(results) == 8
        finally:
            engine.close(timeout=10)
        assert dispatch_threads() == []

    def test_stress_more_threads_than_cores(self, mlp_graph, mlp_feeds):
        # Four dispatch threads on a fast switch interval share the
        # queue, the executor free lists and the recorder.  A batch that
        # ran on another batch's executor would trip the arena's
        # single-owner guard or corrupt a result; a lost update would
        # show in the request count.
        reference = Executor(mlp_graph.with_batch(1)).run(mlp_feeds)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with InferenceEngine(mlp_graph, workers=4, max_batch=2,
                                 max_latency_ms=0.2) as engine:
                results = engine.infer_many([mlp_feeds] * 96, timeout=60)
                snapshot = engine.metrics()
        finally:
            sys.setswitchinterval(interval)
        assert snapshot.requests == 96
        assert snapshot.failures == 0
        for result in results:
            for name in reference:
                np.testing.assert_allclose(result[name], reference[name],
                                           rtol=1e-5, atol=1e-6)

    def test_cancelled_future_does_not_kill_the_dispatch_thread(
            self, mlp_graph, mlp_feeds):
        engine = InferenceEngine(mlp_graph, workers=1, max_batch=1)
        running, release = threading.Event(), threading.Event()
        checkout = engine._checkout

        def gated_checkout(batch):
            running.set()
            assert release.wait(30)
            return checkout(batch)

        engine._checkout = gated_checkout
        try:
            doomed = engine.infer(mlp_feeds)
            assert running.wait(5)
            assert doomed.cancel()      # the client gives up mid-batch
            release.set()
            # The cancelled future is skipped at completion; the only
            # dispatch thread serves the next request.
            assert engine.infer(mlp_feeds).result(timeout=10)
        finally:
            release.set()
            engine.close(timeout=10)

    def test_close_from_a_result_callback(self, mlp_graph, mlp_feeds):
        engine = InferenceEngine(mlp_graph, workers=2, max_batch=1)
        closed = threading.Event()

        def close_engine(_future):
            engine.close(timeout=10)
            closed.set()

        # Done-callbacks run on the dispatch thread that set the result,
        # so close() must not try to join the thread it runs on.
        engine.infer(mlp_feeds).add_done_callback(close_engine)
        assert closed.wait(10)
        for thread in engine._dispatchers:
            thread.join(timeout=10)
        assert dispatch_threads() == []

    def test_workers_bound_batches_in_flight(self, mlp_graph, mlp_feeds):
        engine = InferenceEngine(mlp_graph, workers=3, max_batch=1)
        lock = threading.Lock()
        state = {"inflight": 0, "peak": 0}
        full, release = threading.Event(), threading.Event()
        checkout = engine._checkout

        def gated_checkout(batch):
            with lock:
                state["inflight"] += 1
                state["peak"] = max(state["peak"], state["inflight"])
                if state["inflight"] == 3:
                    full.set()
            assert release.wait(30)
            with lock:
                state["inflight"] -= 1
            return checkout(batch)

        engine._checkout = gated_checkout
        try:
            futures = [engine.infer(mlp_feeds) for _ in range(4)]
            assert full.wait(5)
            time.sleep(0.2)
            # Three batches run; the fourth request waits in the queue
            # because no dispatch thread is free to form its batch.
            assert state["inflight"] == 3
            assert engine.queue.depth() == 1
            release.set()
            for future in futures:
                assert future.result(timeout=10)
            assert state["peak"] == 3
        finally:
            release.set()
            engine.close(timeout=10)


class TestFeedAliasing:
    def test_check_sample_never_aliases_caller_arrays(self, mlp_graph,
                                                      mlp_feeds):
        specs = {spec.name: spec
                 for spec in mlp_graph.with_batch(1).inputs}
        owned = check_sample(specs, mlp_feeds)
        for name, raw in mlp_feeds.items():
            # Same dtype means astype(copy=False) would alias; the
            # pipeline must own its inputs regardless.
            assert not np.shares_memory(owned[name], raw)
        # Conversion path still converts.
        as_f64 = {name: array.astype(np.float64)
                  for name, array in mlp_feeds.items()}
        converted = check_sample(specs, as_f64)
        for name, spec in specs.items():
            assert converted[name].dtype == spec.dtype.to_numpy()

    def test_mutating_feed_after_infer_keeps_batch_intact(self, mlp_graph,
                                                          mlp_feeds):
        reference = Executor(mlp_graph.with_batch(1)).run(mlp_feeds)
        with InferenceEngine(mlp_graph, workers=1, max_batch=2,
                             max_latency_ms=500.0) as engine:
            victim = {name: array.copy()
                      for name, array in mlp_feeds.items()}
            first = engine.infer(victim)
            # The request now waits for its batch to fill; a caller
            # reusing its buffer must not corrupt it.
            for array in victim.values():
                array.fill(1e6)
            second = engine.infer(mlp_feeds)
            for result in (first.result(timeout=10),
                           second.result(timeout=10)):
                for name in reference:
                    np.testing.assert_allclose(
                        result[name], reference[name],
                        rtol=1e-5, atol=1e-6)


class TestBench:
    def test_run_bench_and_render(self, mlp_graph):
        rows = run_bench(mlp_graph, configs=[(1, 1), (1, 4)], requests=8,
                         warmup=2)
        assert len(rows) == 2
        assert all(row.requests == 8 for row in rows)
        assert all(row.throughput_rps > 0 for row in rows)
        table = render(rows, name="mlp")
        assert "serve-bench: mlp" in table
        assert "req/s" in table
