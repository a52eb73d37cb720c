"""Host fingerprint, BLAS pinning and run-hygiene probes.

Everything here is read from the outside: ``/proc`` for memory and
processes, ``/dev/shm`` for shared-memory segments, ``threading`` for
engine threads.  Nothing in ``src/`` is modified or monkey-patched.
"""

from __future__ import annotations

import bisect
import os
import platform
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

# Pinned before numpy is imported anywhere in the benchmark process, and
# inherited by every episode child (the replica tier pins its own
# replicas to one BLAS thread as well).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")

# Threads the serving engines start and must join on close.  The
# process-wide worker pool is shared by design and outlives engines.
ENGINE_THREAD_PREFIXES = ("repro-serve-dispatch", "repro-replica-")

SHM_DIR = "/dev/shm"
SHM_PREFIX = "repro_"


def pin_blas() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_build() -> str:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: no dict mode
        return "unknown"


def fingerprint(seed: int) -> Dict[str, object]:
    """What a result needs to be compared with another one."""
    import numpy as np

    env = {key: value for key, value in sorted(os.environ.items())
           if key.startswith("REPRO_") or key.endswith("_NUM_THREADS")
           or key in BLAS_THREAD_VARS}
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_build(),
        "env": env,
        "seed": seed,
    }


def cpu_times() -> List[int]:
    """Aggregate ``/proc/stat`` CPU counters (user .. steal, in ticks)."""
    try:
        with open("/proc/stat") as handle:
            return [int(v) for v in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return [0] * 8


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests between two
    :func:`cpu_times` readings: host noise this run could not control."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return delta[7] / total if total > 0 else 0.0


def steal_between(samples: Sequence[Tuple[float, List[int]]],
                  start: float, end: float) -> float:
    """Steal share between two ``perf_counter`` times, from timestamped
    :func:`cpu_times` readings taken every fraction of a second: the
    readings just before ``start`` and just after ``end``."""
    if not samples:
        return 0.0
    times = [t for t, _ in samples]
    first = max(0, bisect.bisect_right(times, start) - 1)
    last = min(len(samples) - 1, bisect.bisect_left(times, end))
    return steal_share(samples[first][1], samples[last][1])


def vm_hwm_kib(pid: Optional[int] = None) -> int:
    """Peak resident set (``VmHWM``) of ``pid`` (default: this process)."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    try:
        with open(path) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def shm_segments() -> List[str]:
    try:
        return sorted(name for name in os.listdir(SHM_DIR)
                      if name.startswith(SHM_PREFIX))
    except OSError:
        return []


def pid_alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


def engine_threads() -> List[str]:
    return sorted(thread.name for thread in threading.enumerate()
                  if thread.is_alive()
                  and thread.name.startswith(ENGINE_THREAD_PREFIXES))


def leaks(pids: Iterable[int], segments: Iterable[str],
          grace_s: float = 3.0) -> List[str]:
    """Everything of a closed engine that is still around: engine
    threads, replica processes, ``/dev/shm`` segments.  Waits up to
    ``grace_s`` for stragglers that are already shutting down."""
    pids = [pid for pid in pids if pid]
    segments = list(segments)
    deadline = time.monotonic() + grace_s
    while True:
        live = set(shm_segments())
        found = [f"thread {name}" for name in engine_threads()]
        found += [f"process {pid}" for pid in pids if pid_alive(pid)]
        found += [f"{SHM_DIR}/{name}" for name in segments if name in live]
        if not found or time.monotonic() >= deadline:
            return found
        time.sleep(0.05)
