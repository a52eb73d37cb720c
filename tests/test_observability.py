"""Tests for the cross-process observability stack (PR 10).

Covers clock alignment (min-RTT midpoint estimate), the flight
recorder (ring semantics, versioned dumps, Chrome siblings), SLO
burn-rate accounting, the span/trace-context wire trailers, and the
replica tier's merged fleet traces — including the crash-restart path
(spans in flight when a replica dies must still merge into a valid
trace, and the crash must auto-dump the recorder).
"""

import concurrent.futures
import json
import os
import signal
import time

import pytest

from repro.ir import build_model
from repro.serving import ReplicaEngine, ShedPolicy, sample_feeds
from repro.serving.metrics import (
    BURN_WINDOWS,
    DEFAULT_SLO_TARGET,
    MetricsRecorder,
)
from repro.serving.replicas import (
    TierRequestTrace,
    _pack_span_block,
    _unpack_span_block,
    _unpack_trace_ctx,
    _TRACE_CTX,
    _TRACE_CTX_MAGIC,
    encode_tensors,
)
from repro.telemetry import (
    ClockSync,
    FlightRecorder,
    Tracer,
    chrome_trace_processes,
    clock_handshake,
    load_flightrec_dump,
    traces_to_chrome,
    validate_chrome_trace,
)


# ---------------------------------------------------------------------------
# clock alignment


class TestClockSync:
    def test_midpoint_offset_math(self):
        sync = ClockSync()
        sample = sync.observe(t_send=10.0, t_child=1000.05, t_recv=10.2)
        assert sample.offset_s == pytest.approx(10.1 - 1000.05)
        assert sample.rtt_s == pytest.approx(0.2)
        assert sync.synced
        assert sync.offset_s == pytest.approx(sample.offset_s)
        assert sync.to_parent(1000.05) == pytest.approx(10.1)

    def test_min_rtt_probe_wins(self):
        sync = ClockSync()
        sync.observe(0.0, 500.0, 0.010)          # rtt 10 ms
        first = sync.offset_s
        sync.observe(1.0, 501.0, 1.002)          # rtt 2 ms -> replaces
        assert sync.rtt_s == pytest.approx(0.002)
        assert sync.offset_s != pytest.approx(first)
        better = sync.offset_s
        sync.observe(2.0, 502.0, 2.050)          # rtt 50 ms -> ignored
        assert sync.offset_s == pytest.approx(better)
        assert sync.rtt_s == pytest.approx(0.002)

    def test_aged_estimate_is_replaced_by_any_probe(self):
        sync = ClockSync(max_age_s=5.0)
        sync.observe(0.0, 500.0, 0.001)          # excellent rtt at t=0
        sync.observe(100.0, 600.0, 100.5)        # poor rtt, but 100 s later
        assert sync.rtt_s == pytest.approx(0.5)

    def test_unsynced_defaults(self):
        sync = ClockSync()
        assert not sync.synced
        assert sync.offset_s == 0.0
        assert sync.rtt_s == float("inf")
        assert sync.to_parent(42.0) == 42.0
        assert sync.stale()

    def test_staleness_schedule(self):
        sync = ClockSync()
        sync.observe(0.0, 0.0, 0.001)
        assert not sync.stale(now=0.001 + 29.0, resync_s=30.0)
        assert sync.stale(now=0.001 + 30.0, resync_s=30.0)

    def test_handshake_recovers_simulated_offset(self):
        # Child clock runs 123.456 s behind the parent's; each probe
        # takes ~0 wall time, so the recovered offset is near-exact.
        child_offset = -123.456

        def probe():
            return time.perf_counter() + child_offset

        sync = clock_handshake(probe, probes=5)
        assert sync.synced
        assert sync.offset_s == pytest.approx(-child_offset,
                                              abs=sync.rtt_s / 2 + 1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClockSync(max_age_s=0.0)
        with pytest.raises(ValueError):
            clock_handshake(lambda: 0.0, probes=0)


# ---------------------------------------------------------------------------
# flight recorder


class TestFlightRecorder:
    def test_ring_overwrites_oldest(self):
        rec = FlightRecorder(capacity=4)
        for index in range(10):
            rec.record("tick", index=index)
        assert len(rec) == 4
        events = rec.events()
        assert [event["index"] for event in events] == [6, 7, 8, 9]
        assert [event["seq"] for event in events] == [6, 7, 8, 9]
        assert rec.recorded_total == 10
        # Timestamps and sequence numbers ascend together.
        stamps = [event["ts_s"] for event in events]
        assert stamps == sorted(stamps)

    def test_dump_load_roundtrip_and_chrome_sibling(self, tmp_path):
        rec = FlightRecorder(capacity=16, dump_dir=tmp_path)
        rec.record("admit", priority=1)
        rec.record("shed", reason="queue_full")
        path = rec.dump("unit-test")
        payload = load_flightrec_dump(path)
        assert payload["version"] == 1
        assert payload["reason"] == "unit-test"
        assert payload["pid"] == os.getpid()
        assert [event["kind"] for event in payload["events"]] \
            == ["admit", "shed"]
        assert payload["events"][1]["reason"] == "queue_full"
        assert rec.dump_count == 1
        sibling = path.with_name(path.stem + ".trace.json")
        with open(sibling) as handle:
            chrome = json.load(handle)
        validate_chrome_trace(chrome)
        names = {event["name"] for event in chrome["traceEvents"]
                 if event.get("ph") == "X"}
        assert names == {"admit", "shed"}
        assert chrome_trace_processes(chrome) == {1: "flight-recorder"}

    def test_dump_to_explicit_path(self, tmp_path):
        rec = FlightRecorder(capacity=4)
        rec.record("tick")
        target = tmp_path / "nested" / "dump.json"
        assert rec.dump("manual", path=target) == target
        assert load_flightrec_dump(target)["events"][0]["kind"] == "tick"

    def test_load_rejects_malformed(self, tmp_path):
        bad_version = tmp_path / "bad.json"
        bad_version.write_text(json.dumps({"version": 99, "events": []}))
        with pytest.raises(ValueError, match="version"):
            load_flightrec_dump(bad_version)
        bad_event = tmp_path / "event.json"
        bad_event.write_text(json.dumps(
            {"version": 1, "events": [{"kind": "x"}]}))
        with pytest.raises(ValueError, match="seq"):
            load_flightrec_dump(bad_event)

    def test_try_dump_never_raises(self, tmp_path):
        blocked = tmp_path / "file"
        blocked.write_text("not a directory")
        rec = FlightRecorder(capacity=4, dump_dir=blocked / "sub")
        rec.record("tick")
        assert rec.try_dump("crash") is None

    def test_clear(self):
        rec = FlightRecorder(capacity=4)
        rec.record("tick")
        rec.clear()
        assert len(rec) == 0
        assert rec.recorded_total == 1     # history survives clear

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


# ---------------------------------------------------------------------------
# SLO burn rate


class TestErrorBudgetBurn:
    def _recorder(self):
        clock = {"now": 1000.0}
        recorder = MetricsRecorder(clock=lambda: clock["now"])
        return recorder, clock

    def test_zero_without_traffic(self):
        recorder, _ = self._recorder()
        assert recorder.error_budget_burn(60.0) == 0.0

    def test_burn_of_one_when_bad_share_equals_budget(self):
        recorder, clock = self._recorder()
        # 99 good completions + 1 failure = exactly the 1% budget of the
        # default 0.99 availability SLO -> burn 1.0.
        recorder.record_batch(99, [0.001] * 99)
        recorder.record_failure(1)
        assert recorder.error_budget_burn(60.0) == pytest.approx(1.0)

    def test_sheds_and_slo_misses_count_as_bad(self):
        recorder, clock = self._recorder()
        recorder.record_batch(8, [0.001] * 8, slo_misses=2)
        recorder.record_shed(2)
        # bad = 2 misses + 2 sheds of 10 events -> 0.4 share.
        expected = 0.4 / (1.0 - DEFAULT_SLO_TARGET)
        assert recorder.error_budget_burn(60.0) == pytest.approx(expected)

    def test_window_excludes_old_events(self):
        recorder, clock = self._recorder()
        recorder.record_failure(5)
        clock["now"] += 120.0                   # failures age out of 1m
        recorder.record_batch(10, [0.001] * 10)
        assert recorder.error_budget_burn(60.0) == 0.0
        assert recorder.error_budget_burn(300.0) == pytest.approx(
            (5 / 15) / (1.0 - DEFAULT_SLO_TARGET))

    def test_validation(self):
        recorder, _ = self._recorder()
        with pytest.raises(ValueError):
            recorder.error_budget_burn(0.0)
        with pytest.raises(ValueError):
            recorder.error_budget_burn(60.0, slo_target=1.0)

    def test_burn_windows_shape(self):
        assert [label for label, _ in BURN_WINDOWS] == ["1m", "5m"]
        assert all(seconds > 0 for _, seconds in BURN_WINDOWS)


# ---------------------------------------------------------------------------
# wire trailers


class TestWireTrailers:
    def test_trace_ctx_roundtrip(self):
        trailer = _TRACE_CTX.pack(_TRACE_CTX_MAGIC, 77)
        assert _unpack_trace_ctx(trailer) == 77

    def test_trace_ctx_absent_or_foreign(self):
        assert _unpack_trace_ctx(b"") is None
        assert _unpack_trace_ctx(b"XY" + b"\x00" * 8) is None
        assert _unpack_trace_ctx(b"Tc") is None     # truncated

    def test_span_block_roundtrip(self):
        timeline = [{"name": "matmul", "op": "matmul",
                     "start": 0.001, "end": 0.004, "thread": 7},
                    {"name": "relu", "op": "relu",
                     "start": 0.004, "end": 0.005, "thread": 8}]
        block = _pack_span_block(42, 10.0, 10.001, 10.006, timeline)
        unpacked = _unpack_span_block(block)
        assert unpacked is not None
        trace_id, recv_t, exec_start, exec_end, steps = unpacked
        assert trace_id == 42
        assert recv_t == pytest.approx(10.0)
        assert exec_start == pytest.approx(10.001)
        assert exec_end == pytest.approx(10.006)
        assert [step["name"] for step in steps] == ["matmul", "relu"]
        assert steps[0]["op"] == "matmul"
        assert steps[0]["start"] == pytest.approx(0.001)
        assert steps[0]["end"] == pytest.approx(0.004)
        assert steps[0]["thread"] == 7

    def test_span_block_absent_on_untraced_payload(self):
        import numpy as np

        payload = encode_tensors({"x": np.ones(3, dtype=np.float32)})
        assert _unpack_span_block(b"") is None
        assert _unpack_span_block(payload[-10:]) is None

    def test_tier_trace_phase_schema(self):
        trace = TierRequestTrace()
        names = [name for name, _, _ in trace._PHASES]
        assert names == ["queue_wait", "slot_wait", "batch_assembly",
                         "dispatch", "finalize"]
        assert trace._STEPS_PHASE == "dispatch"


# ---------------------------------------------------------------------------
# merged fleet traces, end to end

# A queue bound no test here reaches.
ROOMY_QUEUE = ShedPolicy(queue_limit=64)


@pytest.fixture(scope="module")
def mlp_graph():
    return build_model("mlp")


@pytest.fixture(scope="module")
def mlp_feeds(mlp_graph):
    return sample_feeds(mlp_graph, seed=3)


def _drive(tier, feeds, count):
    futures = [tier.infer(feeds) for _ in range(count)]
    for future in futures:
        future.result(timeout=60)


def _dispatch_window_violations(traces):
    """Spans escaping their parent dispatch window (must be zero)."""
    bad = 0
    for trace in traces:
        root = trace.build_spans()
        dispatch = next((child for child in root.children
                         if child.name == "dispatch"), None)
        if dispatch is None:
            continue
        for replica_span in dispatch.children:
            for span in replica_span.walk():
                if span.start_s < dispatch.start_s - 1e-9 or \
                        span.end_s > dispatch.end_s + 1e-9:
                    bad += 1
    return bad


class TestFleetTracing:
    def test_merged_fleet_trace(self, mlp_graph, mlp_feeds, tmp_path):
        tracer = Tracer(sample_rate=1.0, capacity=256)
        with ReplicaEngine(mlp_graph, replicas=2, max_batch=4,
                           max_latency_ms=5.0, max_inflight=1,
                           shed_policy=ROOMY_QUEUE, cache_dir=tmp_path,
                           tracer=tracer) as tier:
            # Coalesce 8 full batches behind the dispatch gate: with a
            # one-batch in-flight budget the dispatcher must overflow
            # onto the second replica while the first executes, so both
            # replicas contribute spans.
            tier._dispatch_gate.clear()
            try:
                futures = [tier.infer(mlp_feeds) for _ in range(32)]
            finally:
                tier._dispatch_gate.set()
            for future in futures:
                future.result(timeout=60)
            offsets = [replica.clock for replica in tier._replicas]
            assert all(clock.synced for clock in offsets)
            assert all(clock.rtt_s < 1.0 for clock in offsets)
        traces = tracer.traces()
        assert len(traces) == 32
        for trace in traces:
            root = trace.build_spans()
            phases = [child.name for child in root.children]
            assert phases == ["queue_wait", "slot_wait",
                              "batch_assembly", "dispatch", "finalize"]
            dispatch = root.children[3]
            assert dispatch.children, "replica spans must merge into " \
                                      "the dispatch phase"
            replica_span = dispatch.children[0]
            assert replica_span.name == "replica_batch"
            assert replica_span.process in ("replica-0", "replica-1")
            assert replica_span.args["batch_size"] >= 1
            execute = replica_span.children[0]
            assert execute.name == "execute"
            assert execute.children, "per-step executor spans expected"
        assert _dispatch_window_violations(traces) == 0
        events = traces_to_chrome(traces)
        validate_chrome_trace({"traceEvents": events})
        tracks = chrome_trace_processes(events)
        assert len(tracks) >= 3
        assert "parent" in tracks.values()
        assert {"replica-0", "replica-1"} <= set(tracks.values())

    def test_untraced_frames_carry_no_spans(self, mlp_graph, mlp_feeds,
                                            tmp_path):
        tracer = Tracer(sample_rate=0.0)
        with ReplicaEngine(mlp_graph, replicas=1, max_batch=2,
                           cache_dir=tmp_path, tracer=tracer) as tier:
            _drive(tier, mlp_feeds, 6)
        assert tracer.traces() == []

    def test_slow_request_log_with_phase_breakdown(
            self, mlp_graph, mlp_feeds, tmp_path, caplog):
        tracer = Tracer(sample_rate=1.0, capacity=64)
        with caplog.at_level("WARNING", logger="repro.serving"):
            with ReplicaEngine(mlp_graph, replicas=1, max_batch=2,
                               cache_dir=tmp_path, tracer=tracer,
                               slow_request_ms=1e-6) as tier:
                _drive(tier, mlp_feeds, 4)
                assert tier.slow_requests >= 4
        slow_lines = [record.message for record in caplog.records
                      if "slow request" in record.message]
        assert slow_lines
        assert any("dispatch" in line and "slot_wait" in line
                   for line in slow_lines)

    def test_resync_probes_keep_clock_fresh(self, mlp_graph, mlp_feeds,
                                            tmp_path):
        tracer = Tracer(sample_rate=1.0, capacity=64)
        with ReplicaEngine(mlp_graph, replicas=1, max_batch=2,
                           cache_dir=tmp_path, tracer=tracer,
                           clock_resync_s=0.0) as tier:
            _drive(tier, mlp_feeds, 8)
            replica = tier._replicas[0]
            deadline = time.monotonic() + 10
            while replica.clock_probes and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not replica.clock_probes   # every probe got answered
            assert replica.clock.synced

    def test_crash_restart_merges_spans_and_dumps_recorder(
            self, mlp_graph, mlp_feeds, tmp_path):
        tracer = Tracer(sample_rate=1.0, capacity=256)
        recorder = FlightRecorder(capacity=512,
                                  dump_dir=tmp_path / "dumps")
        with ReplicaEngine(mlp_graph, replicas=1, max_batch=2,
                           max_latency_ms=5.0, shed_policy=ROOMY_QUEUE,
                           restart_limit=2,
                           cache_dir=tmp_path / "cache",
                           tracer=tracer,
                           flight_recorder=recorder) as tier:
            futures = [tier.infer(mlp_feeds) for _ in range(8)]
            os.kill(tier.replica_stats()[0].pid, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                stats = tier.replica_stats()
                if tier.restarts >= 1 and all(s.alive for s in stats):
                    break
                time.sleep(0.05)
            else:
                pytest.fail("replica was not restarted in time")
            for future in futures:       # crashed or completed; no hang
                try:
                    future.result(timeout=60)
                except Exception:
                    pass
            _drive(tier, mlp_feeds, 4)   # post-restart traffic traces too
        # (a) traces sampled across the crash still merge and validate.
        traces = tracer.traces()
        assert traces
        events = traces_to_chrome(traces)
        validate_chrome_trace({"traceEvents": events})
        assert _dispatch_window_violations(traces) == 0
        # (b) the crash auto-dumped the recorder with the retire event
        # and the admissions leading up to it.
        dumps = sorted((tmp_path / "dumps").glob("flightrec-*.json"))
        dumps = [path for path in dumps
                 if not path.name.endswith(".trace.json")]
        assert dumps, "crash must auto-dump the flight recorder"
        payload = load_flightrec_dump(dumps[0])
        assert "crash" in payload["reason"]
        kinds = [event["kind"] for event in payload["events"]]
        assert "generation_retire" in kinds
        assert "admit" in kinds
        retire = next(event for event in payload["events"]
                      if event["kind"] == "generation_retire")
        assert retire["replica"] == 0
        assert retire["restarting"] is True

    def test_breaker_dump_document_shape(self, tmp_path):
        # The breaker path dumps with reason "breaker-trip"; the dump
        # document is the same schema the crash path writes.
        recorder = FlightRecorder(capacity=64, dump_dir=tmp_path)
        recorder.record("breaker_trip", miss_rate=0.9, threshold=0.5)
        path = recorder.dump("breaker-trip")
        payload = load_flightrec_dump(path)
        assert payload["events"][-1]["kind"] == "breaker_trip"
        assert payload["events"][-1]["miss_rate"] == pytest.approx(0.9)


# ---------------------------------------------------------------------------
# registry surface


class TestBurnGaugeExport:
    def test_burn_gauge_rendered_for_live_engine(self, mlp_graph,
                                                 mlp_feeds):
        from repro.serving import InferenceEngine
        from repro.telemetry import render_prometheus

        with InferenceEngine(mlp_graph, max_batch=4) as engine:
            engine.infer_many([mlp_feeds] * 8, timeout=60)
            text = render_prometheus()
        assert 'repro_serving_error_budget_burn{window="1m"}' in text
        assert 'repro_serving_error_budget_burn{window="5m"}' in text
