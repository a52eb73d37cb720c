"""Tests for repro.runtime.plan: compiled execution plans and arena reuse.

Covers the compile-then-execute split: bound kernels agree bitwise with
per-run dispatch over every zoo model, the release schedule drops dead
activations exactly when the memory planner says they die, and the
profiler's live-set peak equals ``plan_memory(graph).peak_live_bytes``.
"""

import numpy as np
import pytest

from repro.ir import available_models, build_model
from repro.ir.graph import Graph
from repro.ir.tensor import TensorSpec
from repro.optim import plan_memory, release_schedule
from repro.runtime import (
    ExecutionError,
    Executor,
    Profiler,
    compile_node,
    compile_plan,
)

# Large reference models are exercised at reduced resolution so the whole
# zoo stays executable in seconds on the reference kernels.
ZOO_OVERRIDES = {
    "resnet50": {"image_size": 64},
    "yolov4": {"image_size": 64},
    "mobilenet_v3_large": {"image_size": 64},
    "mobilenet_v3_small": {"image_size": 64},
}


def zoo_graph(name):
    return build_model(name, batch=1, **ZOO_OVERRIDES.get(name, {}))


def reference_feeds(graph, seed=0):
    rng = np.random.default_rng(seed)
    return {
        spec.name: rng.normal(size=spec.shape)
        .astype(spec.dtype.to_numpy())
        for spec in graph.inputs
    }


def interpret(graph, feeds):
    """Seed-style interpreter: re-resolve every node's kernel per run."""
    specs = graph.infer_specs()
    env = dict(feeds)
    env.update(graph.initializers)
    for node in graph.nodes:
        args = [env[name] for name in node.inputs]
        outputs = compile_node(node, specs)(args)
        for name, value in zip(node.outputs, outputs):
            env[name] = value
    return {name: env[name] for name in graph.output_names}


class TestPlanStructure:
    def test_one_step_per_node(self):
        g = zoo_graph("tiny_convnet")
        plan = compile_plan(g)
        assert len(plan) == len(g.nodes)
        assert [s.node.name for s in plan.steps] == [n.name for n in g.nodes]

    def test_release_schedule_covers_all_intermediates_once(self):
        g = zoo_graph("tiny_convnet")
        plan = compile_plan(g)
        released = [t for step in plan.steps for t in step.release]
        assert len(released) == len(set(released))
        intermediates = {out for node in g.nodes for out in node.outputs}
        assert set(released) == intermediates - set(g.output_names)

    def test_outputs_never_released(self):
        g = zoo_graph("tiny_yolo")
        for step in compile_plan(g).steps:
            assert not set(step.release) & set(g.output_names)

    def test_release_schedule_matches_planner_deaths(self):
        g = zoo_graph("motor_net")
        schedule = release_schedule(g)
        assert len(schedule) == len(g.nodes)
        consumers = g.consumer_map()
        for position, names in enumerate(schedule):
            for name in names:
                last_use = max(
                    (i for i, node in enumerate(g.nodes)
                     if name in node.inputs or name in node.outputs),
                )
                assert last_use == position, name
        assert consumers  # schedule derived from real consumer structure

    def test_unknown_op_fails_at_compile_time(self):
        g = Graph("bad")
        g.add_input(TensorSpec("x", (1, 4)))
        g.add_node("dense", ["x", "w"], ["y"])
        g.add_initializer("w", np.zeros((2, 4), dtype=np.float32))
        g.set_outputs(["y"])
        g.nodes[0].op_type = "made_up_op"  # bypass schema validation
        with pytest.raises(Exception):
            compile_plan(g)

    def test_summary_lists_steps(self):
        plan = compile_plan(zoo_graph("mlp"))
        text = plan.summary()
        assert "execution plan" in text
        assert "frees" in text

    def test_peak_live_matches_memory_planner(self):
        g = zoo_graph("tiny_convnet")
        assert compile_plan(g).peak_live_bytes == \
            plan_memory(g).peak_live_bytes


class TestArenaReuseExecution:
    def test_dead_tensors_leave_environment(self):
        g = zoo_graph("tiny_convnet")
        executor = Executor(g)
        live_counts = []
        executor.add_hook(lambda node, outs: live_counts.append(True) or None)
        out = executor.run(reference_feeds(g))
        assert set(out) == set(g.output_names)

    def test_keep_intermediates_disables_release(self):
        g = zoo_graph("mlp")
        env = Executor(g, keep_intermediates=True).run(reference_feeds(g))
        for node in g.nodes:
            for name in node.outputs:
                assert name in env

    def test_live_set_never_exceeds_planned_peak(self):
        g = zoo_graph("tiny_convnet")
        executor = Executor(g)
        plan = executor.plan
        releases = {step.node.name: step.release for step in plan.steps}
        sizes = {}
        state = {"live": 0, "peak": 0}

        def watch(node, outputs):
            for name, out in zip(node.outputs, outputs):
                sizes[name] = int(out.nbytes)
                state["live"] += sizes[name]
            state["peak"] = max(state["peak"], state["live"])
            for name in releases[node.name]:
                state["live"] -= sizes.pop(name, 0)
            return None

        executor.add_hook(watch)
        executor.run(reference_feeds(g))
        assert state["peak"] <= plan.peak_live_bytes


@pytest.mark.parametrize("name", available_models())
class TestZooProperties:
    """Planned execution is bitwise-faithful to per-run dispatch, and the
    profiler's live-set peak equals the memory planner's lower bound."""

    def test_planned_matches_interpreter_bitwise(self, name):
        g = zoo_graph(name)
        feeds = reference_feeds(g)
        planned = Executor(g).run(feeds)
        interpreted = interpret(g, feeds)
        assert set(planned) == set(interpreted)
        for tensor, value in planned.items():
            assert value.dtype == interpreted[tensor].dtype
            np.testing.assert_array_equal(value, interpreted[tensor])

    def test_profiler_peak_equals_planner_peak(self, name):
        g = zoo_graph(name)
        result = Profiler(g).profile(reference_feeds(g), runs=1, warmup=0)
        expected = plan_memory(g).peak_live_bytes
        assert result.peak_activation_bytes == expected
        assert result.planned_peak_bytes == expected

    def test_arena_execution_bitwise_and_allocation_free(self, name):
        """The scratch-buffer (out=) kernel variants are bitwise-identical
        to the allocating paths, and repeat runs with output recycling
        perform zero arena allocations — the serving engine's steady
        state."""
        g = zoo_graph(name)
        feeds = reference_feeds(g)
        reference = Executor(g).run(feeds)
        executor = Executor(g, reuse_buffers=True)

        first = executor.run(feeds)
        for tensor, value in reference.items():
            assert value.dtype == first[tensor].dtype
            np.testing.assert_array_equal(value, first[tensor])
        executor.recycle(first)

        arena = executor.plan.arena
        baseline = arena.stats.snapshot()
        for _ in range(2):
            again = executor.run(feeds)
            for tensor, value in reference.items():
                np.testing.assert_array_equal(value, again[tensor])
            executor.recycle(again)
        assert arena.stats.allocations == baseline.allocations
        assert arena.stats.large_allocations == baseline.large_allocations
        assert arena.stats.reuses > baseline.reuses


class TestErrorCompatibility:
    def test_execution_error_still_raised_for_bad_feeds(self):
        g = zoo_graph("mlp")
        with pytest.raises(ExecutionError, match="missing feed"):
            Executor(g).run({})
