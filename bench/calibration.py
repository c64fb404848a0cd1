"""A fixed pure-Python loop that measures the host's current speed.

On a shared virtual machine the same operation can take 1.75 times longer
for stretches of ten seconds or more, while other tenants load the host.
Timing this loop around every operation and scaling the operation's time
by ``REFERENCE_SECONDS / loop time`` cancels those swings: the scaled
figure is the operation's time at the speed where the loop takes
``REFERENCE_SECONDS``. The loop does the program's kind of work (tuple
permutation products and set inserts) and does not touch the program.
"""

from __future__ import annotations

import random
import time

# the loop's time at the unloaded speed of the machine the benchmark was
# written on (README: "Timing"); a constant, so runs compare directly
REFERENCE_SECONDS = 1e-3
LOOP = 400

_rng = random.Random(0)
_START = tuple(_rng.sample(range(50), 50))
_STEP = tuple(_rng.sample(range(50), 50))


def reference_seconds() -> float:
    start = time.perf_counter()
    seen = set()
    x = _START
    for _ in range(LOOP):
        x = tuple(_STEP[i] for i in x)
        seen.add(x)
    return time.perf_counter() - start


def scaled(seconds: float, reference: float) -> float:
    return seconds * REFERENCE_SECONDS / reference
