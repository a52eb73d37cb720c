"""Tests for repro.serving.replicas: wire codec, replica tier, lifecycle.

Process-spawning tests share one module-scoped 2-replica tier (spawn
costs ~0.5 s each); tests that damage the tier (crashes, closes) build
their own.

Bitwise comparisons always run under *matched batch composition*
(``max_batch=1`` or the dispatch-gate seam): BLAS results legitimately
differ across batch shapes, in-process or not, so only equal-shape runs
are comparable bit for bit.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.ir import build_model
from repro.optim import CastFP16, QuantizePass, calibrate, fuse_graph
from repro.runtime import Executor
from repro.serving import (
    EngineClosedError,
    ReplicaCrashError,
    ReplicaEngine,
    RequestShedError,
    ShedPolicy,
    TierSaturatedError,
    sample_feeds,
)
from repro.serving.replicas import (
    ReplicaProtocolError,
    _KIND_ERROR,
    _KIND_REQUEST,
    _ZERO_STATS,
    _pack_error,
    _pack_frame,
    _unpack_error,
    _unpack_frame,
    decode_tensors,
    encode_tensors,
    pack_tensor_frame,
)

# A queue bound no test here reaches.
ROOMY_QUEUE = ShedPolicy(queue_limit=64)


def mixed_arrays(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "fp32": rng.standard_normal((2, 3, 4)).astype(np.float32),
        "fp16": rng.standard_normal((5,)).astype(np.float16),
        "int8": rng.integers(-128, 127, (3, 3), dtype=np.int8),
        "strided": np.arange(24, dtype=np.float32).reshape(4, 6).T,
        "scalarish": np.ones((1,), dtype=np.float64),
    }


class TestWireCodec:
    def test_roundtrip_all_runtime_dtypes(self):
        rng = np.random.default_rng(0)
        arrays = {
            "fp32": rng.standard_normal((2, 3, 4)).astype(np.float32),
            "fp16": rng.standard_normal((5,)).astype(np.float16),
            "fp64": rng.standard_normal((1, 7)).astype(np.float64),
            "int8": rng.integers(-128, 127, (3, 3), dtype=np.int8),
            "int32": rng.integers(-1000, 1000, (4,), dtype=np.int32),
            "uint8": rng.integers(0, 255, (2, 2), dtype=np.uint8),
            "bool": rng.integers(0, 2, (6,), dtype=bool),
        }
        decoded = decode_tensors(encode_tensors(arrays))
        assert set(decoded) == set(arrays)
        for name, array in arrays.items():
            assert decoded[name].dtype == array.dtype
            assert decoded[name].shape == array.shape
            # Bitwise equality, not allclose: the tier's replica-vs-
            # in-process identity guarantee rests on this.
            np.testing.assert_array_equal(decoded[name], array)

    def test_roundtrip_empty_and_noncontiguous(self):
        arrays = {
            "empty": np.zeros((0, 4), dtype=np.float32),
            "strided": np.arange(24, dtype=np.float32).reshape(4, 6).T,
        }
        decoded = decode_tensors(encode_tensors(arrays))
        np.testing.assert_array_equal(decoded["strided"],
                                      arrays["strided"])
        assert decoded["empty"].shape == (0, 4)

    def test_decoded_views_are_read_only(self):
        payload = encode_tensors({"x": np.ones(3, dtype=np.float32)})
        decoded = decode_tensors(payload)
        with pytest.raises(ValueError):
            decoded["x"][0] = 2.0

    def test_frame_roundtrip_and_magic_check(self):
        frame = _pack_frame(_KIND_REQUEST, 42, (1, 2, 3, 4, 5), b"abc")
        kind, request_id, stats, payload = _unpack_frame(frame)
        assert kind == _KIND_REQUEST
        assert request_id == 42
        assert stats == (1, 2, 3, 4, 5)
        assert bytes(payload) == b"abc"
        with pytest.raises(ReplicaProtocolError):
            _unpack_frame(b"XXXX" + frame[4:])
        with pytest.raises(ReplicaProtocolError):
            _unpack_frame(b"short")

    def test_truncated_tensor_payload_raises(self):
        payload = encode_tensors({"x": np.ones(8, dtype=np.float32)})
        with pytest.raises(ReplicaProtocolError):
            decode_tensors(payload[:-4])

    def test_error_frame_roundtrip(self):
        frame = _pack_error(7, (0, 0, 1, 0, 0),
                            ValueError("bad feed: ünicode"))
        kind, request_id, stats, payload = _unpack_frame(frame)
        assert kind == _KIND_ERROR and request_id == 7
        exc_kind, message = _unpack_error(payload)
        assert exc_kind == "ValueError"
        assert "bad feed" in message


class TestPackTensorFrame:
    def test_wire_compatible_with_legacy_codec(self):
        # Byte-for-byte equal to the two-stage encode + frame pack the
        # pipe path used before: replicas on either codec interoperate.
        arrays = mixed_arrays(3)
        stats = (1, 2, 3, 4, 5)
        fast = pack_tensor_frame(_KIND_REQUEST, 42, stats, arrays)
        legacy = _pack_frame(_KIND_REQUEST, 42, stats,
                             encode_tensors(arrays))
        assert bytes(fast) == bytes(legacy)

    def test_roundtrip_through_frame_codec(self):
        arrays = mixed_arrays(4)
        frame = pack_tensor_frame(_KIND_REQUEST, 7, _ZERO_STATS, arrays)
        kind, request_id, stats, payload = _unpack_frame(bytes(frame))
        assert (kind, request_id) == (_KIND_REQUEST, 7)
        decoded = decode_tensors(payload)
        for name, array in arrays.items():
            assert decoded[name].tobytes() == \
                np.ascontiguousarray(array).tobytes()


@pytest.fixture(scope="module")
def mlp_graph():
    return build_model("mlp")


@pytest.fixture(scope="module")
def mlp_feeds(mlp_graph):
    return sample_feeds(mlp_graph, seed=3)


@pytest.fixture(scope="module")
def tier(mlp_graph, tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("replica-cache")
    with ReplicaEngine(mlp_graph, replicas=2, max_batch=4,
                       max_latency_ms=10.0, max_inflight=2,
                       cache_dir=cache_dir) as engine:
        yield engine


class TestReplicaEngine:
    def test_results_bitwise_identical_to_direct_executor(self, tier,
                                                          mlp_graph):
        # Hold the dispatcher while submitting so the queue coalesces
        # deterministic groups of max_batch; each group must then match
        # a direct in-process run of the *same* batch bit for bit (the
        # codec and the mmap-shared weights add nothing).  Comparing at
        # equal batch shape matters: BLAS may round differently at
        # batch 4 than at batch 1, in-process or not.
        size = tier.max_batch
        samples = [sample_feeds(mlp_graph, seed=seed)
                   for seed in range(3 * size)]
        tier._dispatch_gate.clear()
        try:
            futures = [tier.infer(sample) for sample in samples]
        finally:
            tier._dispatch_gate.set()
        results = [future.result(timeout=60) for future in futures]
        direct = Executor(mlp_graph.with_batch(size))
        for start in range(0, len(samples), size):
            group = samples[start:start + size]
            batched = {
                name: np.concatenate([sample[name] for sample in group],
                                     axis=0)
                for name in group[0]
            }
            reference = direct.run(batched)
            for row, result in enumerate(results[start:start + size]):
                assert set(result) == set(reference)
                for name in reference:
                    assert result[name].dtype == reference[name].dtype
                    np.testing.assert_array_equal(
                        result[name], reference[name][row:row + 1])

    def test_metrics_and_replica_stats(self, tier, mlp_feeds):
        tier.infer_many([mlp_feeds] * 8, timeout=60)
        snapshot = tier.metrics()
        assert snapshot.requests >= 8
        assert snapshot.failures == 0
        assert snapshot.plan_cache_hits + snapshot.plan_cache_misses \
            == tier.max_batch
        stats = tier.replica_stats()
        assert len(stats) == 2
        assert all(entry.alive for entry in stats)
        assert sum(entry.completed_requests for entry in stats) \
            == snapshot.requests
        # Piggybacked child counters agree with the parent's view.
        assert sum(entry.child_requests for entry in stats) \
            == snapshot.requests

    def test_admission_control_sheds_when_queue_full(self, tier,
                                                     mlp_feeds):
        # Hold the dispatcher between batches so submissions pile up in
        # the queue; past its bound the tier sheds on the future, typed
        # (TierSaturatedError is the shared RequestShedError).  The
        # dispatcher may take one batch before it parks at the gate.
        limit = tier.queue.queue_limit
        assert limit == 4 * tier.replicas * tier.max_inflight \
            * tier.max_batch
        shed_before = tier.metrics().shed
        tier._dispatch_gate.clear()
        try:
            futures = [tier.infer(mlp_feeds)
                       for _ in range(limit + tier.max_batch + 8)]
            assert tier.queue.depth() <= limit
        finally:
            tier._dispatch_gate.set()
        shed = 0
        for future in futures:
            try:
                assert future.result(timeout=60)
            except TierSaturatedError:
                shed += 1
        assert shed >= 8
        assert tier.metrics().shed - shed_before == shed

    def test_validation_and_close_semantics(self, mlp_graph, mlp_feeds):
        with pytest.raises(ValueError):
            ReplicaEngine(mlp_graph, replicas=0)
        with pytest.raises(ValueError):
            ReplicaEngine(mlp_graph, replicas=1, max_inflight=0)


class TestReplicaLifecycle:
    def test_crashed_replica_restarts_and_tier_recovers(
            self, mlp_graph, mlp_feeds, tmp_path):
        with ReplicaEngine(mlp_graph, replicas=2, max_batch=2,
                           max_latency_ms=5.0, restart_limit=2,
                           cache_dir=tmp_path) as engine:
            victim_pid = engine.replica_stats()[0].pid
            os.kill(victim_pid, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                stats = engine.replica_stats()
                if engine.restarts == 1 and \
                        all(entry.alive for entry in stats) and \
                        stats[0].pid != victim_pid:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("replica was not restarted in time")
            # The restarted tier serves again, at full width.
            results = engine.infer_many([mlp_feeds] * 8, timeout=60)
            assert len(results) == 8
            assert engine.restarts == 1

    def test_crash_beyond_restart_limit_fails_requests(
            self, mlp_graph, mlp_feeds, tmp_path):
        with ReplicaEngine(mlp_graph, replicas=1, max_batch=1,
                           max_latency_ms=1.0, restart_limit=0,
                           cache_dir=tmp_path) as engine:
            os.kill(engine.replica_stats()[0].pid, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and \
                    engine.replica_stats()[0].alive:
                time.sleep(0.05)
            assert not engine.replica_stats()[0].alive
            with pytest.raises(ReplicaCrashError):
                engine.infer(mlp_feeds).result(timeout=30)

    def test_closed_tier_raises_typed_error(self, mlp_graph, mlp_feeds,
                                            tmp_path):
        engine = ReplicaEngine(mlp_graph, replicas=1, max_batch=1,
                               cache_dir=tmp_path)
        engine.infer_sync(mlp_feeds, timeout=60)
        engine.close(timeout=30)
        with pytest.raises(EngineClosedError):
            engine.infer(mlp_feeds)
        engine.close(timeout=30)                  # idempotent
        # Every replica process is really gone.
        assert all(not entry.alive or entry.pid is None
                   for entry in engine.replica_stats())

    def test_second_tier_warm_starts_from_shared_cache(
            self, mlp_graph, mlp_feeds, tmp_path):
        first = ReplicaEngine(mlp_graph, replicas=1, max_batch=2,
                              cache_dir=tmp_path)
        try:
            assert first.metrics().plan_cache_misses == 2
        finally:
            first.close(timeout=30)
        second = ReplicaEngine(mlp_graph, replicas=1, max_batch=2,
                               cache_dir=tmp_path)
        try:
            snapshot = second.metrics()
            assert snapshot.plan_cache_hits == 2
            assert snapshot.plan_cache_misses == 0
            assert second.infer_sync(mlp_feeds, timeout=60)
        finally:
            second.close(timeout=30)


def quantized_net():
    g = fuse_graph(build_model("tiny_convnet", batch=1))
    rng = np.random.default_rng(7)
    feeds = [{"input": rng.normal(size=(1, 3, 32, 32))
              .astype(np.float32)} for _ in range(3)]
    return QuantizePass(calibrate(g, feeds)).run(g)


ZOO_VARIANTS = {
    "float-mlp": lambda: build_model("mlp", batch=1),
    "fp16-mlp": lambda: CastFP16().run(build_model("mlp", batch=1)),
    "quantized-convnet": quantized_net,
}


class TestZooBitwiseIdentity:
    @pytest.mark.parametrize("variant", sorted(ZOO_VARIANTS))
    def test_tier_matches_direct_executor(self, variant, tmp_path):
        # max_batch=1 pins the batch composition, so the tier and the
        # direct executor run identical kernels on identical shapes and
        # must agree bit for bit.
        graph = ZOO_VARIANTS[variant]()
        samples = [sample_feeds(graph, seed=seed) for seed in range(6)]
        direct = Executor(graph.with_batch(1))
        expected = [direct.run(sample) for sample in samples]
        with ReplicaEngine(graph, replicas=1, max_batch=1,
                           shed_policy=ROOMY_QUEUE,
                           cache_dir=tmp_path) as engine:
            outputs = engine.infer_many(samples, timeout=120)
        for reference, got in zip(expected, outputs):
            assert set(got) == set(reference)
            for name in reference:
                assert got[name].dtype == reference[name].dtype
                assert got[name].tobytes() == reference[name].tobytes()


class TestAdaptiveTierFrontEnd:
    def test_doomed_requests_shed_before_the_data_plane(
            self, mlp_graph, mlp_feeds, tmp_path):
        # A request whose deadline already passed while queued must be
        # shed by the front end — never serialized, never sent to a
        # replica — while fresh traffic keeps flowing.
        with ReplicaEngine(mlp_graph, replicas=1, max_batch=2,
                           max_latency_ms=1.0, shed_policy=ROOMY_QUEUE,
                           cache_dir=tmp_path, adaptive=True,
                           headroom_ms=0.0) as engine:
            # Warm the latency model past min_samples so the assembly
            # path can cost batches (a cold model never sheds).
            engine.infer_many([mlp_feeds] * 16, timeout=60)
            sent_before = engine.replica_stats()[0].child_requests
            engine._dispatch_gate.clear()
            doomed = engine.infer(mlp_feeds, slo_ms=0.01)
            time.sleep(0.05)                # deadline passes in queue
            engine._dispatch_gate.set()
            with pytest.raises(RequestShedError):
                doomed.result(timeout=30)
            assert engine.metrics().shed >= 1
            # The shed request never reached the replica.
            assert engine.replica_stats()[0].child_requests == sent_before
            assert engine.infer_sync(mlp_feeds, timeout=60)
