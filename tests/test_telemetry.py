"""Tests for repro.telemetry: registry, tracing, exporters, collectors."""

import json
import threading

import numpy as np
import pytest

from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    RequestTrace,
    Sample,
    Tracer,
    log_buckets,
    parse_prometheus,
    registry_to_json,
    render_prometheus,
    timeline_to_chrome,
    traces_to_chrome,
    validate_chrome_trace,
)
from repro.telemetry.collectors import install_runtime_collectors


class TestLogBuckets:
    def test_generates_geometric_bounds(self):
        assert log_buckets(1.0, 2.0, 4) == (1.0, 2.0, 4.0, 8.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            log_buckets(0.0, 2.0, 4)
        with pytest.raises(ValueError):
            log_buckets(1.0, 1.0, 4)
        with pytest.raises(ValueError):
            log_buckets(1.0, 2.0, 0)


class TestCounterGauge:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("test_events_total", "events")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("test_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("test_depth")
        gauge.set(10)
        gauge.dec(3)
        gauge.inc(1)
        assert gauge.value == 8

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a_total") is registry.counter("a_total")

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("dual")
        with pytest.raises(ValueError):
            registry.gauge("dual")

    def test_labels(self):
        registry = MetricsRegistry()
        counter = registry.counter("by_kind_total",
                                   labelnames=("kind",))
        counter.labels(kind="a").inc()
        counter.labels("a").inc()
        counter.labels(kind="b").inc(3)
        family = counter.collect()
        values = {sample.labels: sample.value
                  for sample in family.samples}
        assert values[(("kind", "a"),)] == 2
        assert values[(("kind", "b"),)] == 3

    def test_unlabeled_use_of_labeled_family_rejected(self):
        counter = MetricsRegistry().counter("l_total",
                                            labelnames=("kind",))
        with pytest.raises(ValueError):
            counter.inc()
        with pytest.raises(ValueError):
            counter.labels("a", "b")

    def test_concurrent_increments_are_exact(self):
        counter = MetricsRegistry().counter("race_total")

        def bump():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8000


class TestHistogram:
    def test_bucket_boundaries_are_le_inclusive(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0, 2.0, 4.0))
        # Values exactly on a bound land in that bound's bucket.
        for value in (0.5, 1.0, 2.0, 4.0, 5.0):
            hist.observe(value)
        assert hist.bucket_counts() == [2, 1, 1, 1]
        assert hist.count == 5
        assert hist.sum == pytest.approx(12.5)

    def test_cumulative_samples_and_inf(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 3.0):
            hist.observe(value)
        samples = {(s.name, s.labels): s.value
                   for s in hist.collect().samples}
        assert samples[("h_bucket", (("le", "1"),))] == 1
        assert samples[("h_bucket", (("le", "2"),))] == 2
        assert samples[("h_bucket", (("le", "+Inf"),))] == 3
        assert samples[("h_count", ())] == 3
        assert samples[("h_sum", ())] == pytest.approx(5.0)

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=(2.0, 1.0))

    def test_concurrent_observations_are_exact(self):
        hist = MetricsRegistry().histogram("h", buckets=(0.5, 1.0, 2.0))

        def observe():
            for i in range(500):
                hist.observe((i % 4) * 0.6)

        threads = [threading.Thread(target=observe) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert hist.count == 2000


class TestQuantileEstimator:
    def test_interpolates_within_buckets(self):
        from repro.telemetry import quantile_from_buckets

        # 10 observations spread uniformly in the (1, 2] bucket: the
        # median interpolates to the bucket midpoint-ish rank.
        bounds = (1.0, 2.0, 4.0)
        counts = [0, 10, 0, 0]
        assert quantile_from_buckets(bounds, counts, 0.5) == \
            pytest.approx(1.5)
        assert quantile_from_buckets(bounds, counts, 0.0) == \
            pytest.approx(1.0)
        assert quantile_from_buckets(bounds, counts, 1.0) == \
            pytest.approx(2.0)

    def test_first_bucket_interpolates_from_zero(self):
        from repro.telemetry import quantile_from_buckets

        assert quantile_from_buckets((2.0,), [4, 0], 0.5) == \
            pytest.approx(1.0)

    def test_inf_bucket_clamps_to_last_bound(self):
        from repro.telemetry import quantile_from_buckets

        assert quantile_from_buckets((1.0, 2.0), [0, 0, 5], 0.99) == 2.0

    def test_empty_and_bad_inputs(self):
        from repro.telemetry import quantile_from_buckets

        assert quantile_from_buckets((1.0, 2.0), [0, 0, 0], 0.5) == 0.0
        with pytest.raises(ValueError):
            quantile_from_buckets((1.0,), [1, 1], 1.5)
        with pytest.raises(ValueError):
            quantile_from_buckets((1.0, 2.0), [1, 1], 0.5)

    def test_histogram_quantile_tracks_observations(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=tuple(
            log_buckets(0.001, 2.0, 16)))
        rng = np.random.default_rng(0)
        values = rng.uniform(0.002, 0.1, size=500)
        for value in values:
            hist.observe(float(value))
        # Log buckets are coarse: the estimate must land within one
        # bucket ratio of the true percentile.
        true_p95 = float(np.percentile(values, 95))
        estimate = hist.quantile(0.95)
        assert true_p95 / 2.0 <= estimate <= true_p95 * 2.0

    def test_render_summary_has_quantile_columns(self):
        from repro.telemetry import render_summary

        registry = MetricsRegistry()
        registry.counter("c_total", "a counter").inc(3)
        hist = registry.histogram("h_seconds", "a histogram",
                                  buckets=(1.0, 2.0))
        hist.observe(1.5)
        text = render_summary(registry)
        assert "c_total" in text
        assert "p50" in text and "p95" in text and "p99" in text
        assert "h_seconds" in text


class TestCollectorsAndMerge:
    def test_collector_families_merge_and_sum(self):
        registry = MetricsRegistry()

        def collector():
            yield MetricFamily("x_total", "counter", "",
                               [Sample("x_total", (), 2.0)])

        registry.register_collector(collector)
        registry.register_collector(collector)
        values = {family.name: family.samples
                  for family in registry.collect()}
        # Same (name, labels) from two sources sums into one sample.
        assert values["x_total"][0].value == 4.0
        assert len(values["x_total"]) == 1

    def test_unregister(self):
        registry = MetricsRegistry()

        def collector():
            yield MetricFamily("y_total", "counter", "",
                               [Sample("y_total", (), 1.0)])

        unregister = registry.register_collector(collector)
        unregister()
        assert all(family.name != "y_total"
                   for family in registry.collect())

    def test_runtime_collectors_see_live_subsystems(self):
        from repro.runtime.arena import ScratchArena

        registry = MetricsRegistry()
        install_runtime_collectors(registry)
        arena = ScratchArena()
        before = registry.sample_value("repro_arena_allocations_total")
        buf = arena.alloc((4, 4), np.float32)
        arena.release(buf)
        after = registry.sample_value("repro_arena_allocations_total")
        assert after == before + 1
        assert registry.sample_value("repro_arena_releases_total") >= 1

    def test_safety_pipeline_series(self):
        from repro.safety.input_quality import RangeMonitor
        from repro.safety.monitors import MonitorPipeline

        registry = MetricsRegistry()
        install_runtime_collectors(registry)
        pipeline = MonitorPipeline([RangeMonitor(low=0.0, high=1.0)])
        pipeline.process(np.full(8, 0.5, dtype=np.float32))
        assert registry.sample_value("repro_safety_observed_total") >= 1
        assert registry.sample_value("repro_safety_samples_total",
                                     {"action": "passed"}) >= 1


class TestPrometheusExposition:
    def build_registry(self):
        registry = MetricsRegistry()
        registry.counter("demo_events_total", "demo events").inc(3)
        registry.gauge("demo_depth", 'quoted "help"').set(2)
        hist = registry.histogram("demo_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05)
        labeled = registry.counter("demo_by_kind_total",
                                   labelnames=("kind",))
        labeled.labels(kind='we"ird\\la\nbel').inc()
        return registry

    def test_render_and_parse_roundtrip(self):
        registry = self.build_registry()
        text = render_prometheus(registry)
        families = parse_prometheus(text)
        assert families["demo_events_total"]["type"] == "counter"
        assert families["demo_events_total"]["samples"][
            ("demo_events_total", ())] == 3
        histogram = families["demo_seconds"]
        assert histogram["type"] == "histogram"
        assert histogram["samples"][
            ("demo_seconds_bucket", (("le", "+Inf"),))] == 1
        assert histogram["samples"][("demo_seconds_count", ())] == 1
        # The escaped label value survives the roundtrip.
        labeled = families["demo_by_kind_total"]["samples"]
        assert any(dict(labels).get("kind") == 'we"ird\\la\nbel'
                   for (_, labels) in labeled)

    def test_parser_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            parse_prometheus("metric_without_value\n")
        with pytest.raises(ValueError):
            parse_prometheus('bad{open="x\n')
        with pytest.raises(ValueError):
            parse_prometheus("# TYPE foo sometype\n")

    def test_json_snapshot(self):
        registry = self.build_registry()
        payload = registry_to_json(registry)
        assert payload["version"] == 1
        json.dumps(payload)   # serializable as-is
        names = {family["name"] for family in payload["families"]}
        assert {"demo_events_total", "demo_depth",
                "demo_seconds"} <= names


class TestTracer:
    def test_disabled_by_default(self):
        tracer = Tracer()
        assert not tracer.enabled
        assert not tracer.sample()

    def test_rate_one_samples_everything(self):
        tracer = Tracer(sample_rate=1.0)
        assert all(tracer.sample() for _ in range(10))

    def test_fractional_rate_is_deterministic(self):
        tracer = Tracer(sample_rate=0.25)
        decisions = [tracer.sample() for _ in range(8)]
        assert sum(decisions) == 2
        assert decisions == [False, False, False, True] * 2

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)

    def test_ring_buffer_bounded(self):
        tracer = Tracer(sample_rate=1.0, capacity=2)
        for index in range(5):
            trace = RequestTrace(f"r{index}")
            trace.mark("enqueued", 0.0)
            trace.mark("completed", 1.0)
            tracer.finish(trace)
        names = [trace.name for trace in tracer.traces()]
        assert names == ["r3", "r4"]


class TestRequestTrace:
    def build_trace(self):
        trace = RequestTrace("req")
        trace.batch_size = 4
        for key, at in (("enqueued", 1.0), ("dequeued", 1.01),
                        ("task_start", 1.02), ("assembled", 1.03),
                        ("execute_t0", 1.03), ("executed", 1.08),
                        ("completed", 1.09)):
            trace.mark(key, at)
        trace.attach_steps([
            {"name": "conv0", "op": "conv2d", "start": 0.0,
             "end": 0.02, "thread": 111},
            {"name": "dense1", "op": "dense", "start": 0.02,
             "end": 0.05, "thread": 222},
        ])
        return trace

    def test_span_tree_decomposition(self):
        root = self.build_trace().build_spans()
        assert root.name == "req"
        assert root.duration_s == pytest.approx(0.09)
        phases = {span.name: span for span in root.children}
        assert phases["queue_wait"].duration_s == pytest.approx(0.01)
        assert phases["dispatch_wait"].duration_s == pytest.approx(0.01)
        assert phases["batch_assembly"].duration_s == pytest.approx(0.01)
        assert phases["execute"].duration_s == pytest.approx(0.05)
        assert phases["finalize"].duration_s == pytest.approx(0.01)
        steps = phases["execute"].children
        assert [span.name for span in steps] == ["conv0", "dense1"]
        # Step spans sit on the global clock inside the execute span.
        assert steps[0].start_s == pytest.approx(1.03)
        assert steps[1].end_s == pytest.approx(1.08)

    def test_phase_durations_report(self):
        durations = self.build_trace().phase_durations_ms()
        assert durations["total"] == pytest.approx(90.0)
        assert durations["execute"] == pytest.approx(50.0)

    def test_incomplete_trace_yields_none(self):
        trace = RequestTrace("nope")
        trace.mark("enqueued")
        assert trace.build_spans() is None


class TestChromeExport:
    def test_timeline_events_validate(self):
        timeline = [
            {"name": "a", "op": "conv2d", "start": 0.0, "end": 0.01,
             "thread": 10},
            {"name": "b", "op": "dense", "start": 0.01, "end": 0.02,
             "thread": 20, "rows": (0, 8)},
        ]
        events = timeline_to_chrome([timeline, timeline])
        complete = validate_chrome_trace({"traceEvents": events})
        assert len(complete) == 4
        assert {event["tid"] for event in complete} == {0, 1}
        runs = {event["args"]["run"] for event in complete}
        assert runs == {0, 1}
        # Second run is offset past the first; ts stays consistent.
        assert all(event["dur"] >= 0 and event["ts"] >= 0
                   for event in complete)

    def test_trace_spans_render_on_worker_tracks(self):
        tracer = Tracer(sample_rate=1.0)
        trace = TestRequestTrace().build_trace()
        tracer.finish(trace)
        events = traces_to_chrome(tracer.traces())
        complete = validate_chrome_trace({"traceEvents": events})
        names = {event["name"] for event in complete}
        assert {"req", "queue_wait", "execute", "conv0",
                "dense1"} <= names
        step_tids = {event["tid"] for event in complete
                     if event["name"] in ("conv0", "dense1")}
        assert len(step_tids) == 2          # two worker tracks

    def test_validator_rejects_bad_payloads(self):
        with pytest.raises(ValueError):
            validate_chrome_trace("[]")
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [
                {"ph": "X", "name": "x", "pid": 1, "tid": 1,
                 "ts": -5.0, "dur": 1.0}]})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [
                {"ph": "X", "name": "x", "pid": 1, "tid": 1,
                 "ts": 0.0, "dur": -1.0}]})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": []})


class TestServingIntegration:
    def test_traced_engine_produces_span_trees(self):
        from repro.ir import build_model
        from repro.serving import InferenceEngine
        from repro.serving.bench import sample_feeds

        graph = build_model("mlp")
        feeds = sample_feeds(graph)
        tracer = Tracer(sample_rate=1.0)
        with InferenceEngine(graph, max_batch=4,
                             tracer=tracer) as engine:
            engine.infer_many([feeds] * 8, timeout=30.0)
        traces = tracer.traces()
        assert len(traces) == 8
        root = traces[0].build_spans()
        phases = {span.name for span in root.children}
        assert {"queue_wait", "execute"} <= phases
        execute = next(span for span in root.children
                       if span.name == "execute")
        assert execute.children          # per-step kernel spans
        events = traces_to_chrome(traces)
        validate_chrome_trace({"traceEvents": events})

    def test_untraced_engine_requests_carry_no_trace(self):
        from repro.ir import build_model
        from repro.serving import InferenceEngine
        from repro.serving.bench import sample_feeds

        graph = build_model("mlp")
        feeds = sample_feeds(graph)
        with InferenceEngine(graph, max_batch=2) as engine:
            engine.infer_many([feeds] * 4, timeout=30.0)
            assert engine.tracer is None

    def test_sequential_executor_timeline(self):
        from repro.ir import build_model
        from repro.runtime import Executor
        from repro.serving.bench import sample_feeds

        graph = build_model("mlp")
        executor = Executor(graph)
        executor.record_timeline = True
        executor.run(sample_feeds(graph))
        timeline = executor.last_timeline
        assert timeline and len(timeline) == len(executor.plan.steps)
        assert all(entry["end"] >= entry["start"] >= 0.0
                   for entry in timeline)
        # Disabled again: the next run leaves the old timeline alone.
        executor.record_timeline = False
        executor.run(sample_feeds(graph))
        assert executor.last_timeline is timeline
