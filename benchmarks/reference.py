"""Timing at reference speed: op latencies with the host's load divided out.

The benchmark shares a few cores of a busy host.  Other tenants slow it by
up to about 1.8x, for spans from milliseconds to minutes, and CPU time
slows as much as wall time: the core itself is contended (shared caches,
sibling hardware threads), so no clock of our own excludes the slowdown.
Two runs of the same code can then differ by more than any bound worth
setting.

So every timing is also taken at reference speed.  A fixed pure-Python
kernel measures how fast the interpreter runs: a few times just before and
just after an op and, while the op runs, once every ``SAMPLE_S`` from a
``SIGALRM`` handler, whose own time is taken out of the op's.  The op's
latency times its mean kernel speed, times ``REFERENCE_S``, is its latency
at reference speed.  The kernel is part of the benchmark, not of qchar, so
a change to the library moves that figure and a change in the host's load
does not.

Load slows code of different shapes differently, so the kernel has the two
shapes of qchar's hot loops: products of sparse exponent maps with sorted,
hashed keys, and a depth-first search with a visited set.  Measured on a
shared 2-core x86 VM, the slope of log op time against log kernel time came
out at 1.3-1.4 for enumeration ops against the product half alone, 0.7-0.8
for closure ops against the search half alone, and 0.8-1.06 for both
against the blend.  Kernel runs inside an op are about 10% slower than at
its edges (the op has evicted their data from the caches); that share is a
property of the op, which a change to the library's memory use can move by
a few per cent.  On an idle host the kernel takes about 0.6 ms, so times at
reference speed there read close to wall times.
"""

from __future__ import annotations

import signal
import statistics
import time

REFERENCE_S = 6e-4  # the kernel time that defines reference speed
PRODUCT_STEPS = 75
SEARCH_NODES = 150
EDGE_SAMPLES = 3    # kernel runs just before and just after an op
SAMPLE_S = 0.01     # kernel period while an op runs


def kernel() -> int:
    """Fixed work in two halves, the two shapes of qchar's hot loops.

    A walk over products of sparse exponent maps keyed by small tuples, with
    sorted canonical keys hashed into a dict (closures and expansion), then
    a depth-first search over sorted tuples with a visited set (dominant
    enumeration).
    """
    seen = {}
    e = {(1, 0): 1}
    for step in range(PRODUCT_STEPS):
        factor = {(step % 5, step % 7): -1, ((step + 1) % 5, step % 3): 1}
        e = dict(e)
        for k, v in factor.items():
            w = e.get(k, 0) + v
            if w:
                e[k] = w
            else:
                e.pop(k, None)
        key = tuple(sorted(e.items()))
        seen[key] = seen.get(key, 0) + 1
        if len(e) >= 12:
            e = {(1, 0): 1}
    visited = set()
    stack = [((0, 0), (1, 0))]
    while stack and len(visited) < SEARCH_NODES:
        node = stack.pop()
        if node in visited:
            continue
        visited.add(node)
        for da, db in ((1, 2), (2, -1), (-1, 3)):
            child = tuple(sorted(((a + da) % 13, (b + db) % 11) for a, b in node))
            if child not in visited:
                stack.append(child)
    return len(seen) + len(visited)


def _kernel_run():
    """(start, end) of one kernel run."""
    start = time.perf_counter()
    kernel()
    return start, time.perf_counter()


def speed() -> float:
    """Kernel runs per second right now: the mean over a few runs."""
    return statistics.fmean(1 / (e - s) for s, e in
                            (_kernel_run() for _ in range(2 * EDGE_SAMPLES)))


class Meter:
    """Times the body of ``with meter:``, as measured and at reference speed.

    ``during`` turns on the samples taken while the body runs; without them
    only the edges are sampled, for runs whose time is not reported (the
    warm-up) or whose spans should hold no kernel time (traced runs).
    """

    def __init__(self, during=True):
        self.during = during
        self.seconds = self.reference_seconds = None
        self._samples = []  # (start, end) of each kernel run

    def _sample(self, *_):
        self._samples.append(_kernel_run())

    def __enter__(self):
        self._samples = []
        for _ in range(EDGE_SAMPLES):
            self._sample()
        if self.during:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        for _ in range(EDGE_SAMPLES):
            self._sample()
        # kernel runs the handler made while the body ran are not the body's
        stolen = sum(min(e, end) - s for s, e in self._samples if self._start <= s < end)
        self.seconds = end - self._start - stolen
        runs_per_s = statistics.fmean(1 / (e - s) for s, e in self._samples)
        self.reference_seconds = self.seconds * runs_per_s * REFERENCE_S
        return False

