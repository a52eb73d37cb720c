#!/usr/bin/env python3
"""Repository benchmark: serving workloads end to end and layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload yolo-camera --seed 1 \\
        --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced episodes and reports the
per-layer metrics, a Chrome trace and a per-layer self-time table.
Human-readable lines come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Reports are written under ``.perfbench/reports``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from typing import Dict, List

ROOT = os.getcwd()
WORK_DIR = os.path.join(ROOT, ".perfbench")
# Per episode: its seconds plus this much for start-up and set-up.
EPISODE_SLACK_S = 90.0
# Seconds between the CPU-counter readings taken while an episode runs.
STEAL_SAMPLE_S = 0.25


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _episode(spec: Dict[str, object], timeout_s: float
             ) -> Dict[str, object]:
    """Run one episode in a fresh spawned process and return its result."""
    import multiprocessing

    import episode
    import host

    ctx = multiprocessing.get_context("spawn")
    receiver, sender = ctx.Pipe(duplex=False)
    process = ctx.Process(target=episode.episode_main, args=(sender, spec),
                          name=f"perfbench-episode-{spec['episode']}")
    process.start()
    sender.close()
    # Timestamped CPU counters while the episode runs, so that every
    # slice of its measured window can be given its own steal share.
    steal_samples = [(time.perf_counter(), host.cpu_times())]
    deadline = time.monotonic() + timeout_s
    try:
        while not receiver.poll(STEAL_SAMPLE_S):
            steal_samples.append((time.perf_counter(), host.cpu_times()))
            if time.monotonic() > deadline:
                raise RuntimeError(f"episode {spec['episode']} timed out")
        status, payload = receiver.recv()
        steal_samples.append((time.perf_counter(), host.cpu_times()))
    except EOFError:
        status, payload = "error", "the episode process died"
    finally:
        receiver.close()
        process.join(timeout=30.0)
        if process.is_alive():
            process.kill()
            process.join()
    if status != "ok":
        raise RuntimeError(f"episode {spec['episode']} failed:\n{payload}")
    if process.exitcode != 0:
        raise RuntimeError(f"episode {spec['episode']} exited with code "
                           f"{process.exitcode}")
    payload["steal_samples"] = steal_samples
    return payload


def _run_episodes(workload, args, run_dir: str, chrome_path: str
                  ) -> List[Dict[str, object]]:
    """Every episode in its own fresh process, one at a time."""
    traced_mode = bool(args.trace)
    count = workload.episodes(args.seconds, traced_mode)
    seconds = args.seconds / count
    results = []
    for index in range(count):
        spec = {"workload": workload.name, "seed": args.seed,
                "episode": index, "seconds": seconds,
                "traced": traced_mode and index % 2 == 1,
                "run_dir": run_dir, "chrome_path": chrome_path}
        results.append(_episode(spec, seconds + EPISODE_SLACK_S))
    return results


def _metric_units(group: str) -> Dict[str, str]:
    """Metric name -> unit for one group of ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in spec[group]}


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: run from the repository root (src/repro not "
              "found)", file=sys.stderr)
        return 2
    import host

    host.pin_blas()      # before anything imports numpy
    fingerprint = host.fingerprint(args.seed)
    sys.path.insert(0, src)
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    reports = os.path.join(WORK_DIR, "reports")
    run_dir = os.path.join(WORK_DIR, f"run-{os.getpid()}")
    os.makedirs(reports, exist_ok=True)
    os.makedirs(run_dir, exist_ok=True)
    # Everything the program under test writes stays in the checkout.
    os.environ["REPRO_FLIGHTREC_DIR"] = os.path.join(run_dir, "flightrec")
    os.environ["XDG_CACHE_HOME"] = os.path.join(run_dir, "cache")
    stem = os.path.join(reports, f"{workload.name}-seed{args.seed}"
                                 f"-trace{args.trace}")
    chrome_path = stem + ".trace.json" if args.trace else ""
    shm_before = set(host.shm_segments())
    cpu_before = host.cpu_times()
    try:
        episodes = _run_episodes(workload, args, run_dir, chrome_path)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    steal = host.steal_share(cpu_before, host.cpu_times())
    leaks = [leak for e in episodes for leak in e["leaks"]]
    leaks += [f"{host.SHM_DIR}/{name}" for name in
              sorted(set(host.shm_segments()) - shm_before)]

    import episode
    import metrics as measure
    import verify

    samples = {}
    for e in episodes:
        samples.update(e["samples"])
    wrong = verify.check(workload.build_graph(),
                         workload.input_pool(args.seed), workload.max_batch,
                         samples)
    tally = measure.counts(episodes, len(wrong))
    correct = not wrong and not leaks and tally["failed"] == 0

    lines = [f"perfbench {workload.name} seed={args.seed} "
             f"trace={args.trace} episodes={len(episodes)}",
             "host " + json.dumps(fingerprint, sort_keys=True),
             f"host cpu steal during the run {steal:.4f}"]
    lines += measure.episode_lines(workload, episodes)
    untraced = [e for e in episodes if not e["traced"]]
    if args.trace:
        layer = measure.per_layer(
            workload, untraced, [e for e in episodes if e["traced"]])
        values, group = layer["metrics"], "per_layer"
        with open(stem + ".layers.txt", "w") as handle:
            handle.write(layer["table"] + "\n")
        lines.append(layer["table"])
    else:
        values, group = measure.end_to_end(workload, untraced, tally), \
            "end_to_end"
        parts = measure.slices(workload, untraced)
        kept = measure.calm(parts)
        answered = sum(part["latency"].size for part in kept)
        lines.append(
            f"latency metrics over {answered} answered requests "
            f"({answered // 100} beyond p99) sent in the {len(kept)} "
            f"calmest of {len(parts)} slices of ~{measure.SLICE_S:g} s: "
            f"host steal <= {max(part['steal'] for part in kept):.4f} "
            f"(slices up to {max(part['steal'] for part in parts):.4f})")
        lines += [f"{key} {value:.4f}" for key, value in
                  measure.loadgen_metrics(untraced).items()]
    units = _metric_units(group)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} "
                           f"disagree with BENCHMARK.json {group}")
    sent = max(1, tally["sent"])
    bad = tally["shed"] + tally["failed"] + tally["wrong"]
    lines.append(
        f"requests sent {tally['sent']} succeeded {tally['succeeded']} "
        f"shed {tally['shed']} failed {tally['failed']} wrong "
        f"{tally['wrong']} failed_share {bad / sent:.4f} (bitwise-checked "
        f"{len(samples)} outputs)")
    lines += [f"{name} {value:.6g} {units[name]}"
              for name, value in values.items()]
    if leaks:
        lines.append("leaked after close: " + ", ".join(leaks))
    print("\n".join(lines))
    with open(stem + ".json", "w") as handle:
        json.dump({"workload": workload.name, "why": workload.why,
                   "host": fingerprint, "cpu_steal_share": steal,
                   "trace": args.trace, "seconds": args.seconds,
                   "episodes": len(episodes), "counts": tally,
                   "wrong_inputs": wrong, "leaks": leaks,
                   "checked_samples": len(samples),
                   "chrome_trace": chrome_path, "metrics": values},
                  handle, indent=1, sort_keys=True)
    episode.stop_resource_tracker()
    print(json.dumps({
        "correct": correct, "attempted": tally["sent"],
        "failed": tally["failed"] + tally["wrong"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
