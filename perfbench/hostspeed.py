"""Host-speed calibration: a fixed pure-Python pass, timed between phases.

On a shared host the speed of the CPU the benchmark gets drifts by tens of
percent over minutes, as neighbours come and go; two sets of runs of the
same code taken twenty minutes apart were seen to differ by 30%. The
benchmark therefore times this pass in the untimed gaps between phases and
reports every time scaled by ``REFERENCE_S / mean(pass times)``: the seconds
the phase would take on a host where one pass takes ``REFERENCE_S``.

The pass uses none of the program's code, so a change to the program moves
the scaled times exactly as it moves the raw ones. It mixes the operations
the simulator and the stream engine spend their time in: dict updates, heap
pushes and pops, small-object allocation and attribute reads.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from typing import List

#: Seconds one pass takes on the host the ledger was measured on (a 2-core
#: Xeon KVM guest, Python 3.11, in its faster state).
REFERENCE_S = 0.08
#: Loop steps per pass.
STEPS = 60000


class _Node:
    __slots__ = ("key", "weight", "next")

    def __init__(self, key: int, weight: float, next_node) -> None:
        self.key = key
        self.weight = weight
        self.next = next_node


def _work(steps: int) -> float:
    heap: List[tuple] = []
    table = {}
    acc = 0.0
    node = None
    for i in range(steps):
        key = (i * 7919) % 4093
        table[key] = table.get(key, 0) + 1
        heapq.heappush(heap, ((i * 31) % 97 * 0.5, i))
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0]
        node = _Node(key, acc * 1e-9, node if i % 16 else None)
        acc += node.weight
    return acc


class HostSpeed:
    """Collects pass times over a run and turns them into a scale factor."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, passes: int = 1) -> None:
        """Time ``passes`` passes with the cyclic collector off, so that the
        size of the program's heap does not enter the pass times."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(passes):
                start = time.perf_counter()
                _work(STEPS)
                self.samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    def factor(self) -> float:
        """Multiply a measured time by this to get reference-host seconds."""
        return REFERENCE_S / statistics.fmean(self.samples)
