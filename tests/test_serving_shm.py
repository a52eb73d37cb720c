"""Tests for the replica tier's zero-copy shared-memory data plane.

Covers the slot codec (layout, descriptor table, single-copy frame
packing), ring/channel lifecycle (backpressure, retirement, quarantine,
wraparound), the tier end to end over shm (bitwise identity vs the pipe
codec and the direct executor across float/fp16/quantized graphs, crash
reclaim, fallback), and the deadline-aware tier front end.

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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import build_model
from repro.optim import CastFP16, QuantizePass, calibrate, fuse_graph
from repro.runtime import Executor
from repro.serving import (
    ReplicaEngine,
    RequestShedError,
    ShedPolicy,
    sample_feeds,
)
from repro.serving.replicas import (
    _KIND_REQUEST,
    _ZERO_STATS,
    _pack_frame,
    _unpack_frame,
    decode_tensors,
    encode_tensors,
    pack_tensor_frame,
)
from repro.serving.shm import (
    SLOT_ALIGN,
    ShmAttachment,
    ShmChannel,
    align_up,
    layout_tensors,
    pack_descriptors,
    read_tensors,
    required_slot_bytes,
    shm_available,
    unpack_descriptors,
    write_tensors,
)

# A queue bound no test here reaches.
ROOMY_QUEUE = ShedPolicy(queue_limit=64)

pytestmark = pytest.mark.skipif(not shm_available(),
                                reason="POSIX shared memory unavailable")


def mixed_arrays(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "fp32": rng.standard_normal((2, 3, 4)).astype(np.float32),
        "fp16": rng.standard_normal((5,)).astype(np.float16),
        "int8": rng.integers(-128, 127, (3, 3), dtype=np.int8),
        "strided": np.arange(24, dtype=np.float32).reshape(4, 6).T,
        "scalarish": np.ones((1,), dtype=np.float64),
    }


def segment_files(names):
    return [name for name in names
            if os.path.exists(os.path.join("/dev/shm", name))]


class TestSlotLayout:
    def test_align_up(self):
        assert align_up(0) == 0
        assert align_up(1) == SLOT_ALIGN
        assert align_up(SLOT_ALIGN) == SLOT_ALIGN
        assert align_up(SLOT_ALIGN + 1) == 2 * SLOT_ALIGN

    def test_layout_is_aligned_sorted_and_sized(self):
        arrays = mixed_arrays()
        descs, total = layout_tensors(arrays)
        assert [desc.name for desc in descs] == sorted(arrays)
        for desc in descs:
            assert desc.offset % SLOT_ALIGN == 0
            assert desc.nbytes == arrays[desc.name].nbytes
        assert total == sum(align_up(a.nbytes) for a in arrays.values())

    def test_write_read_roundtrip_bitwise(self):
        arrays = mixed_arrays(1)
        descs, total = layout_tensors(arrays)
        slot = memoryview(bytearray(total))
        write_tensors(slot, arrays, descs)
        back = read_tensors(slot, descs)
        for name, array in arrays.items():
            assert back[name].dtype == array.dtype
            assert back[name].shape == array.shape
            # Bitwise, not allclose: the identity guarantee rests here.
            assert back[name].tobytes() == \
                np.ascontiguousarray(array).tobytes()
            assert not back[name].flags.writeable

    def test_descriptor_table_roundtrip(self):
        descs, _ = layout_tensors(mixed_arrays(2))
        payload = pack_descriptors(descs)
        back, consumed = unpack_descriptors(payload)
        assert consumed == len(payload)
        assert back == descs

    def test_required_slot_bytes_matches_actual_layout(self):
        graph = build_model("mlp", batch=1)
        for batch in (1, 4):
            feeds = {
                spec.name: np.zeros((batch,) + tuple(spec.shape[1:]),
                                    dtype=spec.dtype.to_numpy())
                for spec in graph.inputs
            }
            _, total = layout_tensors(feeds)
            assert total == required_slot_bytes(graph.inputs, batch)


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


class TestChannelLifecycle:
    def test_slot_backpressure_and_lifo_reuse(self):
        channel = ShmChannel(slots=2, request_slot_bytes=256,
                             response_slot_bytes=256, generation=0)
        try:
            first, second = channel.acquire_slot(), channel.acquire_slot()
            assert {first, second} == {0, 1}
            assert channel.acquire_slot() is None     # backpressure
            channel.release_slot(second)
            assert channel.acquire_slot() == second   # LIFO: warm slot
        finally:
            channel.retire()

    def test_retire_unlinks_segments_and_is_idempotent(self):
        channel = ShmChannel(slots=1, request_slot_bytes=64,
                             response_slot_bytes=64, generation=0)
        names = list(channel.segment_names())
        assert segment_files(names) == names
        channel.retire()
        assert segment_files(names) == []
        assert channel.acquire_slot() is None
        channel.retire()                              # idempotent

    def test_retire_with_live_views_quarantines_without_leak(self):
        # A crash can race a slot read: retirement must drop the /dev/shm
        # names immediately even while an exported numpy view pins the
        # mapping, and the draining view must stay readable.
        channel = ShmChannel(slots=1, request_slot_bytes=256,
                             response_slot_bytes=256, generation=0)
        arrays = {"x": np.arange(16, dtype=np.float32)}
        descs, _ = layout_tensors(arrays)
        write_tensors(channel.request_ring.slot_view(0), arrays, descs)
        view = read_tensors(channel.request_ring.slot_view(0), descs)["x"]
        names = list(channel.segment_names())
        channel.retire()
        assert segment_files(names) == []             # names gone now
        assert view.tobytes() == arrays["x"].tobytes()  # mapping drains
        del view
        channel.retire()                              # collects mapping

    def test_attachment_roundtrip_and_oversize_response(self):
        channel = ShmChannel(slots=2, request_slot_bytes=4096,
                             response_slot_bytes=256, generation=3)
        try:
            attachment = ShmAttachment(channel.spec())
            try:
                assert attachment.generation == 3
                feeds = {"a": np.arange(12, dtype=np.float32),
                         "b": np.full((2, 2), 7, dtype=np.int8)}
                descs, _ = layout_tensors(feeds)
                slot = channel.acquire_slot()
                write_tensors(channel.request_ring.slot_view(slot),
                              feeds, descs)
                views = attachment.request_views(slot, descs)
                for name in feeds:
                    assert views[name].tobytes() == feeds[name].tobytes()
                    assert not views[name].flags.writeable
                outputs = {"y": np.linspace(0, 1, 8).astype(np.float32)}
                out_descs = attachment.write_response(slot, outputs)
                assert out_descs is not None
                got = read_tensors(
                    channel.response_ring.slot_view(slot), out_descs)
                assert got["y"].tobytes() == outputs["y"].tobytes()
                # Oversize outputs signal pipe fallback, slot untouched.
                big = {"y": np.zeros(4096, dtype=np.float32)}
                assert attachment.write_response(slot, big) is None
                views = got = None      # release exports before close
            finally:
                attachment.close()
        finally:
            channel.retire()

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=48),
                    min_size=8, max_size=32),
           st.integers(min_value=0, max_value=2**31))
    def test_ring_wraparound_property(self, sizes, seed):
        # Many more writes than slots: every slot index is reused
        # (wraparound) and each generation of contents must read back
        # bitwise despite whatever the previous occupant left behind.
        rng = np.random.default_rng(seed)
        channel = ShmChannel(slots=2, request_slot_bytes=64 * 48,
                             response_slot_bytes=64, generation=0)
        try:
            for step, size in enumerate(sizes):
                arrays = {"x": rng.standard_normal(size)
                          .astype(np.float32)}
                descs, _ = layout_tensors(arrays)
                slot = channel.acquire_slot()
                assert slot is not None
                view = channel.request_ring.slot_view(slot)
                write_tensors(view, arrays, descs)
                back = read_tensors(view, descs)["x"]
                assert back.tobytes() == arrays["x"].tobytes()
                back = view = None      # release exports before retire
                channel.release_slot(slot)
        finally:
            channel.retire()


@pytest.fixture(scope="module")
def mlp_graph():
    return build_model("mlp")


@pytest.fixture(scope="module")
def mlp_feeds(mlp_graph):
    return sample_feeds(mlp_graph, seed=3)


@pytest.fixture(scope="module")
def shm_tier(mlp_graph, tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("shm-tier-cache")
    with ReplicaEngine(mlp_graph, replicas=2, max_batch=4,
                       max_latency_ms=10.0, max_inflight=2,
                       cache_dir=cache_dir, shm=True) as engine:
        yield engine


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


class TestShmTier:
    def test_bitwise_identical_to_direct_executor(self, shm_tier,
                                                  mlp_graph):
        # Same gated-batch harness as the pipe-codec test: coalesce
        # deterministic groups of max_batch and demand bit-for-bit
        # equality with an in-process run of the identical batch.
        size = shm_tier.max_batch
        samples = [sample_feeds(mlp_graph, seed=seed)
                   for seed in range(2 * size)]
        shm_tier._dispatch_gate.clear()
        try:
            futures = [shm_tier.infer(sample) for sample in samples]
        finally:
            shm_tier._dispatch_gate.set()
        results = [future.result(timeout=60) for future in futures]
        direct = Executor(mlp_graph.with_batch(size))
        for start in range(0, len(samples), size):
            group = samples[start:start + size]
            batched = {
                name: np.concatenate([s[name] for s in group], axis=0)
                for name in group[0]
            }
            reference = direct.run(batched)
            for row, result in enumerate(results[start:start + size]):
                for name in reference:
                    assert result[name].tobytes() == \
                        reference[name][row:row + 1].tobytes()

    def test_counters_drain_and_segments_live(self, shm_tier, mlp_feeds):
        before = shm_tier.shm_requests
        shm_tier.infer_many([mlp_feeds] * 8, timeout=60)
        assert shm_tier.shm_enabled
        assert shm_tier.shm_requests > before
        assert shm_tier.shm_bytes_inflight == 0       # all drained
        names = shm_tier.shm_segment_names()
        assert len(names) == 4                        # 2 rings x 2 replicas
        assert segment_files(names) == names

    def test_telemetry_exports_shm_series(self, shm_tier, mlp_feeds):
        from repro.telemetry import registry_to_json
        shm_tier.infer_sync(mlp_feeds, timeout=60)
        payload = registry_to_json()
        names = {family["name"] for family in payload["families"]}
        assert "repro_replica_shm_bytes_inflight" in names
        assert "repro_replica_shm_requests_total" in names
        assert "repro_replica_shm_fallbacks_total" in names
        assert "repro_replica_shm_slot_wait_seconds" in names

    def test_oversize_request_falls_back_to_pipe(self, shm_tier,
                                                 mlp_graph):
        # Shrink the advertised slot capacity: every batch now looks
        # oversize, the tier must degrade to the pipe codec per-frame —
        # and still answer bitwise-correctly.
        rings = [replica.channel.request_ring
                 for replica in shm_tier._replicas]
        saved = [ring.slot_bytes for ring in rings]
        fallbacks = shm_tier.shm_fallbacks
        sample = sample_feeds(mlp_graph, seed=11)
        expected = Executor(mlp_graph.with_batch(1)).run(sample)
        with shm_tier._cond:
            for ring in rings:
                ring.slot_bytes = 0
        try:
            result = shm_tier.infer_sync(sample, timeout=60)
        finally:
            with shm_tier._cond:
                for ring, size in zip(rings, saved):
                    ring.slot_bytes = size
        assert shm_tier.shm_fallbacks > fallbacks
        for name in expected:
            assert result[name].tobytes() == expected[name].tobytes()

    def test_env_kill_switch_disables_data_plane(self, mlp_graph,
                                                 tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_REPLICA_SHM", "0")
        with ReplicaEngine(mlp_graph, replicas=1, max_batch=1,
                           cache_dir=tmp_path) as engine:
            assert not engine.shm_enabled
            assert engine.shm_segment_names() == []
            assert engine.infer_sync(sample_feeds(mlp_graph), timeout=60)
            assert engine.shm_requests == 0


class TestZooBitwiseIdentity:
    @pytest.mark.parametrize("variant", sorted(ZOO_VARIANTS))
    def test_shm_matches_pipe_and_direct(self, variant, tmp_path):
        # max_batch=1 pins the batch composition, so the three paths
        # (direct executor, pipe tier, shm tier) run identical kernels
        # on identical shapes and must agree bit for bit.
        graph = ZOO_VARIANTS[variant]()
        samples = [sample_feeds(graph, seed=seed) for seed in range(6)]
        direct = Executor(graph.with_batch(1))
        expected = [direct.run(sample) for sample in samples]
        outputs = {}
        for shm in (False, True):
            with ReplicaEngine(graph, replicas=1, max_batch=1,
                               shed_policy=ROOMY_QUEUE, cache_dir=tmp_path,
                               shm=shm) as engine:
                outputs[shm] = engine.infer_many(samples, timeout=120)
                if shm:
                    assert engine.shm_requests >= len(samples)
                    assert engine.shm_fallbacks == 0
        for reference, pipe_out, shm_out in zip(expected, outputs[False],
                                                outputs[True]):
            for name in reference:
                assert pipe_out[name].dtype == reference[name].dtype
                assert pipe_out[name].tobytes() == \
                    reference[name].tobytes()
                assert shm_out[name].tobytes() == \
                    reference[name].tobytes()


class TestShmLifecycle:
    def test_crash_with_slots_in_flight_reclaims_generation(
            self, mlp_graph, tmp_path):
        # Kill a replica while batches occupy ring slots: the old
        # generation's segments must vanish from /dev/shm, the restart
        # must attach a *fresh* generation, and post-restart answers
        # must still be bitwise-identical to the direct executor.
        sample = sample_feeds(mlp_graph, seed=5)
        expected = Executor(mlp_graph.with_batch(1)).run(sample)
        with ReplicaEngine(mlp_graph, replicas=1, max_batch=1,
                           shed_policy=ROOMY_QUEUE, max_inflight=2,
                           restart_limit=2, cache_dir=tmp_path,
                           shm=True) as engine:
            old_names = engine.shm_segment_names()
            old_generation = engine._replicas[0].channel.generation
            assert segment_files(old_names) == old_names
            futures = [engine.infer(sample) for _ in range(8)]
            os.kill(engine.replica_stats()[0].pid, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                stats = engine.replica_stats()
                if engine.restarts >= 1 and all(s.alive for s in stats):
                    break
                time.sleep(0.05)
            else:
                pytest.fail("replica was not restarted in time")
            for future in futures:          # crashed or completed; no hang
                try:
                    future.result(timeout=60)
                except Exception:
                    pass
            assert engine.shm_bytes_inflight == 0
            new_names = engine.shm_segment_names()
            new_generation = engine._replicas[0].channel.generation
            assert new_generation > old_generation
            assert not set(new_names) & set(old_names)
            assert segment_files(old_names) == []     # reclaimed now
            result = engine.infer_sync(sample, timeout=60)
            for name in expected:
                assert result[name].tobytes() == expected[name].tobytes()
        # (a) nothing outlives close(): neither generation's segments.
        assert engine.shm_segment_names() == []
        assert segment_files(old_names + new_names) == []

    def test_close_unlinks_every_segment(self, mlp_graph, tmp_path):
        engine = ReplicaEngine(mlp_graph, replicas=2, max_batch=2,
                               cache_dir=tmp_path, shm=True)
        names = engine.shm_segment_names()
        assert segment_files(names) == names
        engine.close(timeout=30)
        assert engine.shm_segment_names() == []
        assert segment_files(names) == []


class TestAdaptiveTierFrontEnd:
    def test_doomed_requests_shed_before_the_data_plane(
            self, mlp_graph, mlp_feeds, tmp_path):
        # A request whose deadline already passed while queued must be
        # shed by the front end — never serialized, never sent across
        # the data plane — while fresh traffic keeps flowing.
        with ReplicaEngine(mlp_graph, replicas=1, max_batch=2,
                           max_latency_ms=1.0, shed_policy=ROOMY_QUEUE,
                           cache_dir=tmp_path, adaptive=True,
                           headroom_ms=0.0) as engine:
            # Warm the latency model past min_samples so the assembly
            # path can cost batches (a cold model never sheds).
            engine.infer_many([mlp_feeds] * 16, timeout=60)
            sent_before = engine.shm_requests
            engine._dispatch_gate.clear()
            doomed = engine.infer(mlp_feeds, slo_ms=0.01)
            time.sleep(0.05)                # deadline passes in queue
            engine._dispatch_gate.set()
            with pytest.raises(RequestShedError):
                doomed.result(timeout=30)
            assert engine.metrics().shed >= 1
            # The shed request never crossed the data plane.
            assert engine.shm_requests == sent_before
            assert engine.infer_sync(mlp_feeds, timeout=60)
