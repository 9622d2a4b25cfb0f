"""The reference workload: a fixed piece of pure-Python work, timed
between the benchmark's samples to gauge how fast the machine is at
that moment.

On a shared host the speed of a vCPU drifts by a third or more over
minutes, as other tenants come and go, and every wall time drifts with
it. The benchmark therefore reports its times in *reference seconds*:
a wall time scaled by ``NOMINAL_S / probe()``, where ``probe()`` is the
reference's time measured right before and right after the sample.
The reference never imports the verifier, so a change to the verifier
moves the scaled times exactly as much as the wall times; only the
machine's drift cancels. The raw wall times are kept in each run's
record.

The reference mixes the two kinds of work the verifier's time goes to:
interpreter-bound term building, hashing and recursion, which a noisy
neighbour slows through the shared core, and scattered reads of a heap
larger than the private caches, which it slows through the shared cache
and memory bandwidth. ``probe()`` returns the geometric mean of the two
medians.
"""

from __future__ import annotations

import math
import random
import statistics
import time

#: The reference's time on the 2-vCPU machine the benchmark was tuned
#: on, quiet; a scaled time reads as seconds on a machine that fast.
NOMINAL_S = 0.004
#: Repetitions of each unit in one probe.
REPEATS = 9
#: Entries in the memory unit's heap (about 5 MB).
HEAP = 30_000


def _terms(n: int) -> int:
    """Build, intern and fold ``n`` small expression trees."""
    table: dict = {}
    acc = 0
    for i in range(n):
        leaf = ("var", f"x{i % 17}")
        node = ("add", leaf, ("const", i % 5))
        node = ("mul", node, table.setdefault(node, node))
        acc += _fold(node)
    return acc + len(table)


def _fold(node) -> int:
    if node[0] == "var":
        return len(node[1])
    if node[0] == "const":
        return node[1]
    return _fold(node[1]) + _fold(node[2])


def _heap() -> dict:
    return {i: (i, str(i), [i]) for i in range(HEAP)}


def _scatter(heap: dict, n: int) -> int:
    """``n`` random reads of ``heap``, each allocating a little."""
    rng = random.Random(7)
    acc = 0
    for _ in range(n):
        entry = heap[rng.randrange(HEAP)]
        acc += len(entry[1]) + len({"k": entry, "n": acc})
    return acc


def _median_time(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def probe() -> float:
    """The reference's time now, in seconds (about ``NOMINAL_S`` on a
    quiet machine of the tuning speed). A probe takes about 0.15 s of
    wall time."""
    heap = _heap()
    a = _median_time(lambda: _terms(4_000), REPEATS)
    b = _median_time(lambda: _scatter(heap, 5_000), REPEATS)
    return math.sqrt(a * b)


if __name__ == "__main__":
    print(probe())
