"""A fixed pure-Python kernel that measures how fast the host runs right now.

On a shared machine the speed of the same instructions drifts by up to
1.7x, in phases that last minutes (see README, "Noise").  No amount of
repetition inside a 30 s run removes a phase that covers the whole run.
So the benchmark runs this kernel right before and right after every
timed unit and divides the unit's time by the kernel's mean time: the
ratio does not depend on the host's speed at that moment.  Time metrics
are that ratio times ``NOMINAL_S``, the kernel's time at the reference
speed, so they read as seconds on a host running at that speed.

The kernel does what embedlab spends its time on: small objects with
slots and methods, tuple keys in a dict, and a sort with a key function.
It calls nothing of embedlab, so a change to the program cannot move it.
Of the candidates tried (dict and JSON churn, list membership scans,
generators of frozensets), this one followed the program's cases most
closely through the host's slow and fast phases.  Never change it,
``ROUNDS`` or ``NOMINAL_S`` between two benchmark runs that are compared.
"""

from __future__ import annotations

import gc
import time

ROUNDS = 6000
# The kernel's median time on a 2-vCPU cloud host, Python 3.11.7.
NOMINAL_S = 0.007


class _Node:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def key(self):
        return (self.a, self.b)


def kernel(rounds: int = ROUNDS):
    nodes = {}
    for i in range(rounds):
        node = _Node(i % 101, i % 37)
        nodes[node.key()] = node
    return sorted(nodes, key=lambda k: (k[1], k[0]))[0]


def measure() -> float:
    """Seconds one run of the kernel takes now.  The collector is off while
    it runs: a collection started by the kernel's allocations would walk
    whatever the program left on the heap, and the kernel's time would
    depend on the program."""
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        gc.enable()


def reference_seconds(seconds: float, calibration: float) -> float:
    """``seconds`` measured next to kernel runs of ``calibration`` seconds
    (their mean), as seconds at the reference speed."""
    return seconds / calibration * NOMINAL_S
