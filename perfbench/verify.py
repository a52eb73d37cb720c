"""Bitwise check of served outputs against a direct ``Executor.run``.

A served row's bits depend on the batch size the engine formed for it
(BLAS blocks differently at each row count), not on its position or on
the other rows.  So each sampled input is run directly at every batch
size the engine may form, ``1..max_batch``, and the served output must
equal one of those references bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

import numpy as np


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


def check(graph, pool: np.ndarray, max_batch: int,
          samples: Mapping[int, Mapping[str, np.ndarray]]) -> List[int]:
    """Input indices whose served outputs match no direct reference."""
    from repro.runtime import Executor

    indices = sorted(samples)
    if not indices:
        return []
    references: Dict[int, List[Dict[str, np.ndarray]]] = {
        index: [] for index in indices}
    template = graph.with_batch(1)
    name = template.inputs[0].name
    for size in range(1, max_batch + 1):
        executor = Executor(template.with_batch(size))
        for start in range(0, len(indices), size):
            chunk = indices[start:start + size]
            rows = chunk + [chunk[0]] * (size - len(chunk))
            outputs = executor.run({name: pool[rows]})
            for row, index in enumerate(chunk):
                references[index].append(
                    {key: value[row:row + 1]
                     for key, value in outputs.items()})
    wrong = []
    for index in indices:
        served = samples[index]
        if not any(set(served) == set(ref) and
                   all(_same(served[key], ref[key]) for key in served)
                   for ref in references[index]):
            wrong.append(index)
    return wrong
