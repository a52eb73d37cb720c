"""Tests for SLO-aware adaptive batching: the online latency model,
deadline-driven assembly, priority queues, load shedding, and the
open-loop trace-replay benchmark."""

import json
import time

import numpy as np
import pytest

from repro.ir import build_model
from repro.serving import (
    BatchLatencyModel,
    BatchQueue,
    InferenceEngine,
    InferenceRequest,
    RequestShedError,
    ShedPolicy,
    make_trace,
    render_trace_replay,
    run_trace_replay,
    sample_feeds,
)
from repro.serving.latency_model import model_path


def make_request(value=0.0, deadline_s=None, priority=0):
    request = InferenceRequest(
        feeds={"input": np.full((1, 4), value, dtype=np.float32)},
        priority=priority)
    request.deadline_s = deadline_s
    return request


def warm_model(slope=1e-3, intercept=1e-4, sizes=(1, 2, 4, 8),
               samples=8, **kwargs):
    """A model fitted on exact ``intercept + slope * n`` timings."""
    kwargs.setdefault("min_samples", 1)
    model = BatchLatencyModel(**kwargs)
    for size in sizes:
        for _ in range(samples):
            model.observe(size, intercept + slope * size)
    return model


class TestBatchLatencyModel:
    def test_cold_model_predicts_none(self):
        model = BatchLatencyModel()
        assert model.predict(1) is None
        assert not model.warm()

    def test_fits_linear_timings(self):
        model = warm_model(slope=2e-3, intercept=5e-4, margin=1.0)
        assert model.warm()
        intercept, slope = model.coefficients()
        # Log buckets quantize the observations; the fit must still
        # recover the line to within bucket resolution (x1.41 steps).
        assert slope == pytest.approx(2e-3, rel=0.5)
        predicted = model.predict(4)
        assert predicted == pytest.approx(5e-4 + 2e-3 * 4, rel=0.5)
        # Latency must be non-decreasing in batch size.
        assert model.predict(8) >= model.predict(1)

    def test_margin_inflates_predictions(self):
        tight = warm_model(margin=1.0)
        inflated = warm_model(margin=1.5)
        assert inflated.predict(4) == pytest.approx(
            tight.predict(4) * 1.5)

    def test_single_size_scales_proportionally(self):
        model = warm_model(sizes=(4,), slope=1e-3, intercept=0.0,
                           margin=1.0)
        # Only batch 4 calibrated: predictions scale linearly through
        # the origin (no evidence batching amortizes anything).
        assert model.predict(8) == pytest.approx(model.predict(4) * 2,
                                                 rel=1e-6)

    def test_outlier_does_not_steer_fit(self):
        model = warm_model(slope=1e-3, intercept=0.0, margin=1.0,
                           samples=20)
        clean = model.predict(8)
        model.observe(2, 5.0)              # one GC-mangled timing
        dirty = model.predict(8)
        assert dirty <= clean * 2.0

    def test_garbage_observations_ignored(self):
        model = BatchLatencyModel()
        model.observe(0, 1.0)
        model.observe(1, -1.0)
        model.observe(1, float("nan"))
        assert model.observations == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchLatencyModel(quantile=0.0)
        with pytest.raises(ValueError):
            BatchLatencyModel(margin=0.9)
        with pytest.raises(ValueError):
            BatchLatencyModel(min_samples=0)
        with pytest.raises(ValueError):
            BatchLatencyModel().predict(0)

    def test_snapshot_reports_per_size_stats(self):
        model = warm_model(sizes=(1, 4))
        snapshot = model.snapshot()
        assert snapshot["observations"] == 16
        assert set(snapshot["sizes"]) == {1, 4}
        assert snapshot["intercept_ms"] is not None

    def test_persistence_round_trip(self, tmp_path):
        model = warm_model(slope=2e-3, intercept=1e-4, margin=1.3)
        path = tmp_path / "latency" / "key.json"
        model.save(path)
        loaded = BatchLatencyModel.load(path)
        assert loaded is not None
        assert loaded.observations == model.observations
        assert loaded.margin == model.margin
        assert loaded.predict(4) == pytest.approx(model.predict(4))

    def test_load_missing_or_corrupt_returns_none(self, tmp_path):
        assert BatchLatencyModel.load(tmp_path / "absent.json") is None
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert BatchLatencyModel.load(bad) is None
        wrong_version = tmp_path / "version.json"
        wrong_version.write_text(json.dumps({"version": 999}))
        assert BatchLatencyModel.load(wrong_version) is None
        # Valid JSON, mangled counts.
        payload = warm_model().to_dict()
        payload["sizes"]["1"]["counts"] = [1, 2, 3]
        mangled = tmp_path / "mangled.json"
        mangled.write_text(json.dumps(payload))
        assert BatchLatencyModel.load(mangled) is None

    def test_model_path_layout(self, tmp_path):
        path = model_path(tmp_path, "abc123")
        assert path == tmp_path / "latency" / "abc123.json"


class TestAdaptiveAssembly:
    def test_deadline_caps_batch_size(self):
        # cost(n) = 10ms * n; a 25ms deadline admits 2, not 4.
        shed = []
        queue = BatchQueue(max_batch=4, max_latency_s=10.0,
                           cost_model=lambda n: 0.010 * n,
                           on_shed=lambda request, reason:
                           shed.append((request, reason)),
                           headroom_s=0.0)
        deadline = time.monotonic() + 0.025
        for i in range(4):
            queue.submit(make_request(i, deadline_s=deadline))
        batch = queue.next_batch()
        assert len(batch) == 2
        assert shed == []

    def test_no_deadlines_fills_to_max_batch(self):
        queue = BatchQueue(max_batch=4, max_latency_s=10.0,
                           cost_model=lambda n: 1e-4,
                           on_shed=lambda request, reason: None)
        for i in range(4):
            queue.submit(make_request(i))
        assert len(queue.next_batch()) == 4

    def test_doomed_requests_are_shed_not_executed(self):
        shed = []
        queue = BatchQueue(max_batch=4, max_latency_s=0.05,
                           cost_model=lambda n: 0.050,
                           on_shed=lambda request, reason:
                           shed.append((request, reason)),
                           headroom_s=0.0)
        doomed = make_request(0, deadline_s=time.monotonic() + 0.001)
        viable = make_request(1, deadline_s=time.monotonic() + 10.0)
        queue.submit(doomed)
        queue.submit(viable)
        batch = queue.next_batch()
        assert batch == [viable]
        assert shed == [(doomed, "slo")]

    def test_cold_model_falls_back_to_fixed_policy(self):
        queue = BatchQueue(max_batch=4, max_latency_s=0.02,
                           cost_model=lambda n: None,
                           on_shed=lambda request, reason: None)
        queue.submit(make_request())
        start = time.monotonic()
        batch = queue.next_batch()
        waited = time.monotonic() - start
        assert len(batch) == 1
        assert waited >= 0.015               # the fixed-knob timer ran

    def test_backlog_dispatches_without_waiting(self):
        # More queued work than one deadline-meeting batch can carry:
        # the full batch must not sit on the arrival timer (the final
        # partial batch still may, bounded by max_latency_s).
        queue = BatchQueue(max_batch=4, max_latency_s=0.05,
                           cost_model=lambda n: 1e-4,
                           on_shed=lambda request, reason: None)
        for i in range(6):
            queue.submit(make_request(i))
        start = time.monotonic()
        first = queue.next_batch()
        full_batch_latency = time.monotonic() - start
        second = queue.next_batch()
        assert full_batch_latency < 0.04     # no timer wait for a full batch
        assert len(first) == 4 and len(second) == 2


class TestPriorities:
    def test_higher_priority_dispatches_first(self):
        queue = BatchQueue(max_batch=2, max_latency_s=0.0)
        low = make_request(0, priority=0)
        high = make_request(1, priority=5)
        queue.submit(low)
        queue.submit(high)
        batch = queue.next_batch()
        assert batch[0] is high and batch[1] is low

    def test_fifo_within_a_priority_class(self):
        queue = BatchQueue(max_batch=4, max_latency_s=0.0)
        requests = [make_request(i, priority=1) for i in range(3)]
        for request in requests:
            queue.submit(request)
        assert queue.next_batch() == requests

    def test_queue_limit_evicts_youngest_lowest_priority(self):
        shed = []
        queue = BatchQueue(max_batch=8, max_latency_s=10.0,
                           queue_limit=2,
                           on_shed=lambda request, reason:
                           shed.append((request, reason)))
        old_low = make_request(0, priority=0)
        young_low = make_request(1, priority=0)
        queue.submit(old_low)
        queue.submit(young_low)
        high = make_request(2, priority=3)
        queue.submit(high)                   # over the limit: evict
        # The youngest of the lowest class goes.
        assert shed == [(young_low, "queue_full")]
        assert queue.depth() == 2

    def test_queue_limit_sheds_arrival_when_nothing_outranked(self):
        shed = []
        queue = BatchQueue(max_batch=8, max_latency_s=10.0,
                           queue_limit=1,
                           on_shed=lambda request, reason:
                           shed.append((request, reason)))
        queued = make_request(0, priority=5)
        queue.submit(queued)
        arrival = make_request(1, priority=0)
        queue.submit(arrival)
        assert shed == [(arrival, "queue_full")]
        assert queue.depth() == 1


@pytest.fixture(scope="module")
def mlp_graph():
    return build_model("mlp")


@pytest.fixture(scope="module")
def mlp_feeds(mlp_graph):
    return sample_feeds(mlp_graph, seed=3)


class TestEngineShedding:
    def test_shed_error_is_typed_and_recorded(self, mlp_graph, mlp_feeds):
        policy = ShedPolicy(queue_limit=1)
        with InferenceEngine(mlp_graph, workers=1, max_batch=1,
                             shed_policy=policy) as engine:
            futures = [engine.infer(mlp_feeds) for _ in range(24)]
            outcomes = []
            for future in futures:
                try:
                    future.result(timeout=30)
                    outcomes.append("ok")
                except RequestShedError:
                    outcomes.append("shed")
            snapshot = engine.metrics()
        assert outcomes.count("shed") >= 1
        assert snapshot.shed == outcomes.count("shed")
        assert snapshot.shed + snapshot.requests == 24

    def test_plan_compile_time_stays_out_of_the_latency_model(
            self, mlp_graph, mlp_feeds, monkeypatch):
        # The first batch of a size compiles its plan.  Were that time
        # observed, predict(1) would sit far above any tight SLO, every
        # later request would be shed as doomed, and with no further
        # observations the model would never recover.
        import repro.serving.engine as engine_module

        compile_plan = engine_module.compile_plan

        def slow_compile(graph):
            time.sleep(0.3)
            return compile_plan(graph)

        monkeypatch.setattr(engine_module, "compile_plan", slow_compile)
        with InferenceEngine(mlp_graph, workers=1, max_batch=1,
                             adaptive=True) as engine:
            # Enough sequential batches to warm the model; only the
            # first compiles.
            for _ in range(engine.latency_model.min_samples):
                engine.infer_sync(mlp_feeds, timeout=30)
            predicted = engine.latency_model.predict(1)
        assert predicted is not None
        assert predicted < 0.1

    def test_adaptive_results_match_reference(self, mlp_graph, mlp_feeds):
        from repro.runtime import Executor

        reference = Executor(mlp_graph.with_batch(1)).run(mlp_feeds)
        with InferenceEngine(mlp_graph, workers=1, max_batch=8,
                             adaptive=True,
                             default_slo_ms=60_000.0) as engine:
            results = engine.infer_many([mlp_feeds] * 16, timeout=30)
            snapshot = engine.metrics()
        assert snapshot.shed == 0
        assert snapshot.slo_misses == 0
        for result in results:
            for name in reference:
                np.testing.assert_allclose(result[name], reference[name],
                                           rtol=1e-5, atol=1e-6)


class TestTraceReplay:
    def test_make_trace_kinds_and_determinism(self):
        for kind in ("poisson", "bursty", "diurnal"):
            first = make_trace(kind, rate_rps=500, duration_s=1.0, seed=3)
            again = make_trace(kind, rate_rps=500, duration_s=1.0, seed=3)
            assert first == again
            assert all(0 <= t < 1.0 for t in first)
            assert first == sorted(first)
            # Mean-rate normalization: each kind offers roughly the
            # requested load.
            assert 250 <= len(first) <= 1000
        assert make_trace("poisson", 500, 1.0, seed=1) != \
            make_trace("poisson", 500, 1.0, seed=2)

    def test_make_trace_validation(self):
        with pytest.raises(ValueError):
            make_trace("square-wave", 100, 1.0)
        with pytest.raises(ValueError):
            make_trace("poisson", 0, 1.0)
        with pytest.raises(ValueError):
            make_trace("poisson", 100, 0)

    def test_replay_accounts_for_every_request(self, mlp_graph):
        arrivals = make_trace("bursty", rate_rps=400, duration_s=0.5,
                              seed=5)
        result = run_trace_replay(mlp_graph, arrivals, slo_ms=50.0,
                                  trace_name="bursty", adaptive=True,
                                  max_batch=4, warmup=8)
        assert result.offered == len(arrivals)
        assert result.completed + result.shed + result.failed == \
            result.offered
        assert result.slo_met <= result.completed
        assert result.failed == 0
        assert result.mode == "adaptive"
        table = render_trace_replay([result], name="test")
        assert "adaptive" in table and "bursty" in table
