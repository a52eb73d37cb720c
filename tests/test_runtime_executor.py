"""Tests for repro.runtime.executor: dispatch, feeds, hooks, arena guard."""

import threading

import numpy as np
import pytest

from repro.ir import build_model
from repro.ir.graph import Graph
from repro.ir.tensor import DType, TensorSpec
from repro.runtime import (
    ArenaOwnershipError,
    ExecutionError,
    Executor,
    ScratchArena,
    run_graph,
)


def dense_graph():
    g = Graph("d")
    g.add_input(TensorSpec("x", (2, 3)))
    g.add_initializer("w", np.array([[1, 0, 0], [0, 2, 0]], dtype=np.float32))
    g.add_initializer("b", np.array([0.5, -0.5], dtype=np.float32))
    g.add_node("dense", ["x", "w", "b"], ["y"], name="fc")
    g.set_outputs(["y"])
    return g


class TestBasicExecution:
    def test_dense_result(self):
        x = np.array([[1, 2, 3], [4, 5, 6]], dtype=np.float32)
        out = run_graph(dense_graph(), {"x": x})["y"]
        np.testing.assert_allclose(out, [[1.5, 3.5], [4.5, 9.5]])

    def test_model_zoo_graph_runs(self):
        g = build_model("tiny_convnet", batch=2)
        x = np.random.default_rng(0).normal(size=(2, 3, 32, 32)) \
            .astype(np.float32)
        out = run_graph(g, {"input": x})[g.output_names[0]]
        assert out.shape == (2, 10)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=1e-4)

    def test_multi_output_graph(self):
        g = build_model("tiny_yolo")
        x = np.zeros((1, 3, 96, 96), dtype=np.float32)
        out = run_graph(g, {"input": x})
        assert len(out) == 1

    def test_keep_intermediates(self):
        executor = Executor(dense_graph(), keep_intermediates=True)
        env = executor.run({"x": np.zeros((2, 3), dtype=np.float32)})
        assert "x" in env and "w" in env and "y" in env


class TestFeedValidation:
    def test_missing_feed(self):
        with pytest.raises(ExecutionError, match="missing feed"):
            run_graph(dense_graph(), {})

    def test_wrong_shape(self):
        with pytest.raises(ExecutionError, match="shape"):
            run_graph(dense_graph(), {"x": np.zeros((3, 3), dtype=np.float32)})

    def test_unknown_feed(self):
        with pytest.raises(ExecutionError, match="unknown feed"):
            run_graph(dense_graph(), {
                "x": np.zeros((2, 3), dtype=np.float32),
                "extra": np.zeros(1),
            })

    def test_feed_cast_to_spec_dtype(self):
        out = run_graph(dense_graph(), {"x": np.ones((2, 3), dtype=np.float64)})
        assert out["y"].dtype == np.float32


class TestHooks:
    def test_observation_hook(self):
        executor = Executor(dense_graph())
        seen = []
        executor.add_hook(lambda node, outs: seen.append(node.name) or None)
        executor.run({"x": np.zeros((2, 3), dtype=np.float32)})
        assert seen == ["fc"]

    def test_replacement_hook(self):
        executor = Executor(dense_graph())

        def zero_out(node, outputs):
            return [np.zeros_like(o) for o in outputs]

        executor.add_hook(zero_out)
        out = executor.run({"x": np.ones((2, 3), dtype=np.float32)})["y"]
        assert not out.any()

    def test_clear_hooks(self):
        executor = Executor(dense_graph())
        executor.add_hook(lambda n, o: [np.zeros_like(v) for v in o])
        executor.clear_hooks()
        out = executor.run({"x": np.ones((2, 3), dtype=np.float32)})["y"]
        assert out.any()


class TestFusedAndQuantized:
    def test_fused_conv_activation(self):
        g = Graph("f")
        g.add_input(TensorSpec("x", (1, 1, 3, 3)))
        g.add_initializer("w", -np.ones((1, 1, 1, 1), dtype=np.float32))
        g.add_node("fused_conv2d", ["x", "w"], ["y"], activation="relu")
        g.set_outputs(["y"])
        out = run_graph(g, {"x": np.ones((1, 1, 3, 3), dtype=np.float32)})
        assert not out["y"].any()  # -1 then relu -> 0

    def test_quantize_dequantize_roundtrip(self):
        g = Graph("q")
        g.add_input(TensorSpec("x", (1, 4)))
        g.add_node("quantize", ["x"], ["q"], scale=np.array([0.1]),
                   zero_point=np.array([0]), dtype=DType.INT8)
        g.add_node("dequantize", ["q"], ["y"], scale=np.array([0.1]),
                   zero_point=np.array([0]))
        g.set_outputs(["y"])
        x = np.array([[0.35, -0.72, 1.0, 0.0]], dtype=np.float32)
        out = run_graph(g, {"x": x})["y"]
        np.testing.assert_allclose(out, x, atol=0.05)

    def test_int8_graph_agrees_with_float(self):
        from repro.optim import fuse_graph, quantize_int8

        rng = np.random.default_rng(0)
        g = build_model("tiny_convnet", batch=4)
        x = rng.normal(size=(4, 3, 32, 32)).astype(np.float32)
        ref = run_graph(g, {"input": x})[g.output_names[0]]
        gq = quantize_int8(fuse_graph(g), [{"input": x}])
        out = run_graph(gq, {"input": x})[gq.output_names[0]]
        assert (out.argmax(-1) == ref.argmax(-1)).mean() >= 0.75

    def test_fp16_graph_close_to_fp32(self):
        from repro.optim import convert_fp16, fuse_graph

        rng = np.random.default_rng(1)
        g = build_model("tiny_convnet", batch=2)
        x = rng.normal(size=(2, 3, 32, 32)).astype(np.float32)
        ref = run_graph(g, {"input": x})[g.output_names[0]]
        gh = convert_fp16(fuse_graph(g))
        out = run_graph(gh, {"input": x})[gh.output_names[0]]
        np.testing.assert_allclose(out.astype(np.float32), ref, atol=5e-2)


class TestFusedLeakyReluAlpha:
    """Fused leaky_relu must keep its slope on every dispatch path.

    Regression: the fused attr ``activation_alpha`` used to be dropped at
    all dispatch sites, silently applying the default 0.1 slope.
    """

    ALPHA = 0.3

    def _conv_pair(self, op_type, **extra_attrs):
        """(unfused, fused) graphs for a conv-family op + leaky_relu."""
        rng = np.random.default_rng(7)
        w = rng.normal(size=(4, 2, 3, 3)).astype(np.float32)
        x = rng.normal(size=(1, 2, 6, 6)).astype(np.float32)

        unfused = Graph("u")
        unfused.add_input(TensorSpec("x", (1, 2, 6, 6)))
        unfused.add_initializer("w", w.copy() if op_type != "bconv2d"
                                else np.sign(w).astype(np.int8))
        unfused.add_node(op_type, ["x", "w"], ["c"], padding=1,
                         name="conv", **extra_attrs)
        unfused.add_node("leaky_relu", ["c"], ["y"], alpha=self.ALPHA,
                         name="act")
        unfused.set_outputs(["y"])

        fused = Graph("f")
        fused.add_input(TensorSpec("x", (1, 2, 6, 6)))
        fused.add_initializer("w", w.copy() if op_type != "bconv2d"
                              else np.sign(w).astype(np.int8))
        target = "fused_conv2d" if op_type == "conv2d" else op_type
        fused.add_node(target, ["x", "w"], ["y"], padding=1, name="conv",
                       activation="leaky_relu",
                       activation_alpha=self.ALPHA, **extra_attrs)
        fused.set_outputs(["y"])
        return unfused, fused, {"x": x}

    def test_fused_conv2d_keeps_alpha(self):
        unfused, fused, feeds = self._conv_pair("conv2d")
        np.testing.assert_array_equal(
            run_graph(fused, feeds)["y"], run_graph(unfused, feeds)["y"])

    def test_fused_dense_keeps_alpha(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(5, 8)).astype(np.float32)
        x = rng.normal(size=(2, 8)).astype(np.float32)
        unfused = Graph("u")
        unfused.add_input(TensorSpec("x", (2, 8)))
        unfused.add_initializer("w", w)
        unfused.add_node("dense", ["x", "w"], ["h"], name="fc")
        unfused.add_node("leaky_relu", ["h"], ["y"], alpha=0.25, name="act")
        unfused.set_outputs(["y"])
        fused = Graph("f")
        fused.add_input(TensorSpec("x", (2, 8)))
        fused.add_initializer("w", w)
        fused.add_node("fused_dense", ["x", "w"], ["y"], name="fc",
                       activation="leaky_relu", activation_alpha=0.25)
        fused.set_outputs(["y"])
        feeds = {"x": x}
        np.testing.assert_array_equal(
            run_graph(fused, feeds)["y"], run_graph(unfused, feeds)["y"])

    def test_bconv2d_keeps_alpha(self):
        scale = np.full(4, 0.5, dtype=np.float32)
        unfused, fused, feeds = self._conv_pair("bconv2d", scale=scale)
        np.testing.assert_array_equal(
            run_graph(fused, feeds)["y"], run_graph(unfused, feeds)["y"])

    def test_bdense_keeps_alpha(self):
        rng = np.random.default_rng(5)
        w = np.sign(rng.normal(size=(5, 8))).astype(np.int8)
        x = rng.normal(size=(2, 8)).astype(np.float32)
        scale = np.full(5, 0.25, dtype=np.float32)
        unfused = Graph("u")
        unfused.add_input(TensorSpec("x", (2, 8)))
        unfused.add_initializer("w", w)
        unfused.add_node("bdense", ["x", "w"], ["h"], name="fc", scale=scale)
        unfused.add_node("leaky_relu", ["h"], ["y"], alpha=0.4, name="act")
        unfused.set_outputs(["y"])
        fused = Graph("f")
        fused.add_input(TensorSpec("x", (2, 8)))
        fused.add_initializer("w", w)
        fused.add_node("bdense", ["x", "w"], ["y"], name="fc", scale=scale,
                       activation="leaky_relu", activation_alpha=0.4)
        fused.set_outputs(["y"])
        feeds = {"x": x}
        np.testing.assert_array_equal(
            run_graph(fused, feeds)["y"], run_graph(unfused, feeds)["y"])

    def test_fusion_pass_end_to_end_nondefault_alpha(self):
        """fuse_graph output is bitwise-identical to the original graph."""
        from repro.optim import fuse_graph

        unfused, _, feeds = self._conv_pair("conv2d")
        ref = run_graph(unfused, feeds)["y"]
        fused = fuse_graph(unfused)
        assert fused.nodes[0].attrs["activation_alpha"] == self.ALPHA
        out = run_graph(fused, feeds)[fused.output_names[0]]
        np.testing.assert_array_equal(out, ref)
        # The default-slope result differs, so the test would catch a
        # dropped alpha rather than vacuously pass.
        assert not np.array_equal(
            ref, np.where(ref >= 0, ref, ref / self.ALPHA * 0.1))

    def test_quantized_requantize_keeps_alpha(self):
        from repro.runtime import QuantParams, quantized_dense

        rng = np.random.default_rng(11)
        x = rng.normal(size=(4, 8)).astype(np.float32)
        w = rng.normal(size=(6, 8)).astype(np.float32)
        in_p = QuantParams(np.array(0.05), np.array(0))
        w_p = QuantParams(np.array(0.05), np.array(0))
        out_p = QuantParams(np.array(0.05), np.array(0))
        qx, qw = in_p.quantize(x), w_p.quantize(w)
        got = quantized_dense(qx, in_p, qw, w_p, None, out_p,
                              activation="leaky_relu", activation_alpha=0.5)
        real = (qx.astype(np.int32) @ qw.astype(np.int32).T) * \
            (0.05 * 0.05)
        real = np.where(real >= 0, real, 0.5 * real).astype(np.float32)
        np.testing.assert_array_equal(got, out_p.quantize(real))


class TestErrors:
    def test_node_failure_names_node(self):
        g = Graph("bad")
        g.add_input(TensorSpec("x", (1, 4)))
        g.add_node("quantize", ["x"], ["y"], scale=np.array([0.0]),
                   zero_point=np.array([0]))
        g.set_outputs(["y"])
        with pytest.raises(Exception):
            run_graph(g, {"x": np.zeros((1, 4), dtype=np.float32)})


class TestArenaOwnership:
    def test_concurrent_misuse_fails_loudly(self):
        arena = ScratchArena()
        arena._active = threading.get_ident() + 1   # a thread mid-call
        with pytest.raises(ArenaOwnershipError, match="with_buffers"):
            arena.alloc((4,), np.float32)
