"""Machine-speed gauge for the CPU-bound workloads.

The benchmark machine shares its CPUs with other tenants.  A fixed pure-
Python loop there runs up to 1.5 times slower for seconds to minutes at a
time, which swamps any change to the program.  The gauge times a fixed
reference computation, bit-parallel string scoring in pure Python (the
kind of interpreter work the pipeline does; of the candidates tried it
tracked both CPU-bound workloads best), right before and after each
measured unit.  A unit's times are then scaled to the reference speed:
``time * REFERENCE_S / reference time``.  The reference never changes
with the program, so a slower program still reads slower; the machine's
own swings are mostly taken out.
"""

from __future__ import annotations

import random
import time

# Reference time on the benchmark machine when uncontended; it only sets
# the scale of the normalised figures.
REFERENCE_S = 0.0025


def _lcs(a: str, b: str) -> int:
    # Kept apart from gen.py's matching oracle: the yardstick must not
    # change when the oracle does.
    masks: dict = {}
    for i, ch in enumerate(a):
        masks[ch] = masks.get(ch, 0) | (1 << i)
    row, full = 0, (1 << len(a)) - 1
    for ch in b:
        x = row | masks.get(ch, 0)
        row = x & ~(x - ((row << 1) | 1)) & full
    return bin(row).count("1")


class SpeedGauge:
    """Times the reference computation over fixed inputs."""

    def __init__(self):
        rng = random.Random(0)
        self.words = ["".join(rng.choice("abcdefghijklmnop")
                              for _ in range(rng.randint(5, 12)))
                      for _ in range(500)]

    def _once(self) -> float:
        started = time.perf_counter()
        for word in self.words:
            _lcs("kelmoravandt", word)
        return time.perf_counter() - started

    def sample(self) -> float:
        """Reference time now: the median of three runs."""
        return sorted(self._once() for _ in range(3))[1]
