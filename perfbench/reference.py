"""A fixed pure-Python kernel that measures how fast the host runs right now.

Shared hosts change speed from second to second (other tenants, clock
scaling), by up to a factor of two between passes.  A pass times this
kernel between its timed intervals, at least every
:data:`SAMPLE_EVERY_S` of measured time (between the seeds of a sim
pass, around a cluster bring-up), and :class:`HostSpeed` scales each
stretch of host time to a reference host on which the kernel takes
:data:`REFERENCE_S` of CPU time: ``reported = measured * REFERENCE_S /
kernel``, with the kernel time averaged over the runs just before and
just after the stretch.  It also keeps every kernel time, so that a
whole run can be scaled by their mean (:func:`run_factor`).  The kernel
is a small discrete-event loop (a heap of timed messages, dict lookups,
method calls on slotted objects), the same mix of interpreter work as
the simulator, but it imports nothing from the program, so a change to
the program never moves it.
"""

from __future__ import annotations

import heapq
import random
import time

#: CPU seconds the kernel takes on the reference host.
REFERENCE_S = 0.020
#: measured host time between two kernel runs, at most (one interval more).
SAMPLE_EVERY_S = 0.25
NODES = 96


class _Node:
    __slots__ = ("ident", "seen")

    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.seen: dict[tuple[int, int], int] = {}

    def on_message(self, sender: int, payload: tuple[int, int]) -> bool:
        if payload in self.seen:
            return False
        self.seen[payload] = sender
        return True


def kernel_seconds() -> float:
    """CPU seconds one run of the kernel takes on this host, now."""
    rng = random.Random(11)
    nodes = [_Node(i) for i in range(NODES)]
    heap: list[tuple[float, int, int, int, tuple[int, int]]] = []
    sequence = 0
    for origin in range(NODES):
        sequence += 1
        heap.append((rng.expovariate(1.0), sequence, (origin + 1) % NODES, origin, (origin, 0)))
    heapq.heapify(heap)
    started = time.process_time()
    while heap:
        now, _, destination, sender, payload = heapq.heappop(heap)
        if nodes[destination].on_message(sender, payload):
            sequence += 1
            heapq.heappush(
                heap,
                (now + rng.expovariate(1.0), sequence, (destination + 1) % NODES, destination, payload),
            )
    return time.process_time() - started


def run_factor(kernels: list[float]) -> float:
    """Scale for host times measured while the kernel took ``kernels``
    seconds, run after run."""
    return REFERENCE_S / (sum(kernels) / len(kernels))


def host_factor(before: float, after: float) -> float:
    """Scale for host times measured between kernel runs of ``before`` and
    ``after`` seconds."""
    return REFERENCE_S / ((before + after) / 2.0)


class HostSpeed:
    """Accumulates host time and its reference-host equivalent."""

    def __init__(self) -> None:
        self._kernel = kernel_seconds()
        #: every kernel time taken, in order.
        self.kernels = [self._kernel]
        self._pending = 0.0
        self._measured = 0.0
        self._scaled = 0.0

    def add(self, seconds: float) -> None:
        """Record ``seconds`` of host time; sample the kernel when due."""
        self._pending += seconds
        if self._pending >= SAMPLE_EVERY_S:
            self._sample()

    def _sample(self) -> None:
        after = kernel_seconds()
        self.kernels.append(after)
        self._scaled += self._pending * host_factor(self._kernel, after)
        self._measured += self._pending
        self._pending = 0.0
        self._kernel = after

    def factor(self) -> float:
        """Reference-host seconds per measured second, over everything added."""
        if self._pending or not self._measured:
            self._sample()
        return self._scaled / self._measured if self._measured else 1.0
