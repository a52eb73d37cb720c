"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestModels:
    def test_lists_zoo(self, capsys):
        assert main(["models", "--small"]) == 0
        out = capsys.readouterr().out
        assert "tiny_convnet" in out and "arc_net" in out
        assert "resnet50" not in out  # --small skips the big builds


class TestAccelerators:
    def test_lists_catalog(self, capsys):
        assert main(["accelerators"]) == 0
        out = capsys.readouterr().out
        assert "GTX1660" in out and "Myriad" in out

    def test_family_filter(self, capsys):
        assert main(["accelerators", "--family", "cpu"]) == 0
        out = capsys.readouterr().out
        assert "Epyc3451" in out
        assert "GTX1660" not in out


class TestPredict:
    def test_batch_sweep(self, capsys):
        assert main(["predict", "--model", "tiny_convnet",
                     "--platform", "XavierNX"]) == 0
        out = capsys.readouterr().out
        assert "XavierNX" in out
        assert len([l for l in out.splitlines() if l.strip() and
                    l.strip()[0].isdigit()]) == 3  # batches 1/4/8

    def test_power_mode_suffix(self, capsys):
        assert main(["predict", "--model", "mlp",
                     "--platform", "XavierAGX:10W",
                     "--batches", "1"]) == 0
        assert "(10W)" in capsys.readouterr().out

    def test_explicit_dtype(self, capsys):
        assert main(["predict", "--model", "mlp", "--platform", "GTX1660",
                     "--dtype", "fp16", "--batches", "1"]) == 0
        assert "fp16" in capsys.readouterr().out

    def test_unknown_platform_raises(self):
        with pytest.raises(KeyError):
            main(["predict", "--model", "mlp", "--platform", "TPUv9"])

    def test_single_batch_overrides_sweep(self, capsys):
        assert main(["predict", "--model", "mlp",
                     "--platform", "XavierNX", "--batch", "2"]) == 0
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines() if l.strip() and
                l.strip()[0].isdigit()]
        assert len(rows) == 1
        assert rows[0].strip().startswith("2")

    def test_repeat_measures_host_fps(self, capsys):
        assert main(["predict", "--model", "mlp", "--platform", "XavierNX",
                     "--batch", "1", "--repeat", "2"]) == 0
        out = capsys.readouterr().out
        assert "host fps" in out


class TestPlan:
    def test_compiles_and_reports_arena(self, capsys):
        assert main(["plan", "--model", "tiny_convnet"]) == 0
        out = capsys.readouterr().out
        assert "execution plan" in out
        assert "peak live" in out
        assert "memory plan" in out

    def test_steps_listing(self, capsys):
        assert main(["plan", "--model", "mlp", "--steps"]) == 0
        out = capsys.readouterr().out
        assert "frees" in out
        assert "fc0" in out

    def test_repeat_reports_steady_state(self, capsys):
        assert main(["plan", "--model", "mlp", "--batch", "2",
                     "--repeat", "3"]) == 0
        out = capsys.readouterr().out
        assert "samples/s" in out
        assert "0 steady-state allocations" in out


class TestServeBench:
    def test_sweep_reports_table(self, capsys):
        assert main(["serve-bench", "--model", "mlp",
                     "--configs", "1x1", "1x2",
                     "--requests", "6", "--warmup", "2"]) == 0
        out = capsys.readouterr().out
        assert "serve-bench: mlp" in out
        assert "req/s" in out
        # one row per configuration after the header rule
        rows = [l for l in out.splitlines() if l.strip() and
                l.strip()[0].isdigit()]
        assert len(rows) == 2

    def test_bad_config_string_rejected(self, capsys):
        assert main(["serve-bench", "--model", "mlp",
                     "--configs", "nonsense"]) == 2
        assert "WORKERSxBATCH" in capsys.readouterr().err

    def test_metrics_json_and_trace_out(self, tmp_path, capsys):
        import json

        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "serve_trace.json"
        assert main(["serve-bench", "--model", "mlp",
                     "--configs", "1x2",
                     "--requests", "8", "--warmup", "2",
                     "--metrics-json", str(metrics_path),
                     "--trace-out", str(trace_path),
                     "--slow-request-ms", "0"]) == 0
        out = capsys.readouterr().out
        assert "metrics snapshot written" in out
        assert "chrome trace" in out

        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["version"] == 1
        names = {family["name"] for family in snapshot["families"]}
        assert "repro_serving_requests_total" in names

        from repro.telemetry import validate_chrome_trace
        events = validate_chrome_trace(trace_path.read_text())
        assert events  # at least one complete event per sampled request

    def test_replicas_trace_out_merges_fleet(self, tmp_path, capsys):
        from repro.telemetry import (
            chrome_trace_processes,
            validate_chrome_trace,
        )

        trace_path = tmp_path / "fleet.json"
        assert main(["serve-bench", "--model", "mlp",
                     "--replicas", "2", "--requests", "16",
                     "--warmup", "4", "--max-batch", "4",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--trace-out", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "fleet chrome trace" in out
        validate_chrome_trace(trace_path.read_text())
        tracks = chrome_trace_processes(trace_path.read_text())
        assert "parent" in tracks.values()
        assert any(name.startswith("replica-")
                   for name in tracks.values())


class TestMetricsCommand:
    def test_prometheus_output_covers_subsystems(self, capsys):
        assert main(["metrics", "--model", "mlp",
                     "--requests", "8", "--max-batch", "4"]) == 0
        out = capsys.readouterr().out
        from repro.telemetry import parse_prometheus
        families = parse_prometheus(out)
        for name in ("repro_arena_allocations_total",
                     "repro_plan_cache_misses_total",
                     "repro_serving_requests_total"):
            assert name in families, name

    def test_json_format_to_file(self, tmp_path, capsys):
        import json

        path = tmp_path / "metrics.json"
        assert main(["metrics", "--model", "mlp", "--requests", "4",
                     "--format", "json", "--output", str(path)]) == 0
        assert "metrics written" in capsys.readouterr().out
        snapshot = json.loads(path.read_text())
        assert snapshot["families"]


class TestTraceCommand:
    def test_writes_valid_chrome_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(["trace", "--model", "mlp", "--runs", "2",
                     "--out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "events on" in out and "perfetto" in out
        from repro.telemetry import validate_chrome_trace
        events = validate_chrome_trace(path.read_text())
        # two runs of the same plan -> same step count per run
        assert len(events) % 2 == 0

    def test_replica_fleet_trace(self, tmp_path, capsys):
        from repro.telemetry import (
            chrome_trace_processes,
            validate_chrome_trace,
        )

        path = tmp_path / "fleet.json"
        assert main(["trace", "--model", "mlp", "--replicas", "2",
                     "--runs", "1", "--out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "process tracks" in out
        validate_chrome_trace(path.read_text())
        tracks = chrome_trace_processes(path.read_text())
        assert set(tracks.values()) >= {"parent", "replica-0",
                                        "replica-1"}


class TestFlightrecCommand:
    def test_dump_and_sibling_parse(self, tmp_path, capsys):
        from repro.telemetry import (
            load_flightrec_dump,
            validate_chrome_trace,
        )

        path = tmp_path / "frec.json"
        assert main(["flightrec", "dump", "--model", "mlp",
                     "--replicas", "1", "--requests", "8",
                     "--out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "flight recorder dump v1" in out
        payload = load_flightrec_dump(path)
        kinds = {event["kind"] for event in payload["events"]}
        assert "admit" in kinds and "batch" in kinds
        sibling = path.with_name(path.stem + ".trace.json")
        validate_chrome_trace(sibling.read_text())


class TestOptimize:
    def test_arc_pipeline(self, capsys):
        assert main(["optimize", "--dataset", "arc",
                     "--passes", "fuse", "--confusion"]) == 0
        out = capsys.readouterr().out
        assert "fp32" in out and "fuse" in out
        assert "confusion matrix" in out

    def test_with_target(self, capsys):
        assert main(["optimize", "--dataset", "keywords",
                     "--passes", "fuse", "--platform", "ZynqZU3"]) == 0
        assert "accuracy" in capsys.readouterr().out


class TestSimulate:
    def test_runs_program(self, tmp_path, capsys):
        program = tmp_path / "ok.s"
        program.write_text("""
            li a0, 0x10000000
            li a1, 79
            sb a1, 0(a0)
            li t6, 0x100F0000
            sw zero, 0(t6)
        """)
        assert main(["simulate", str(program)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("O")
        assert "halted" in out

    def test_exit_code_propagates(self, tmp_path):
        program = tmp_path / "fail.s"
        program.write_text("""
            li t6, 0x100F0000
            li t5, 7
            sw t5, 0(t6)
        """)
        assert main(["simulate", str(program)]) == 7

    def test_nonterminating_returns_2(self, tmp_path, capsys):
        program = tmp_path / "spin.s"
        program.write_text("spin: j spin")
        assert main(["simulate", str(program), "--max-steps", "100"]) == 2

    def test_cfu_flag(self, tmp_path):
        program = tmp_path / "cfu.s"
        program.write_text("""
            li a0, 0x01010101
            cfu a1, a0, a0, 3, 0
            li t6, 0x100F0000
            sw a1, 0(t6)
        """)
        assert main(["simulate", str(program), "--cfu"]) == 4
